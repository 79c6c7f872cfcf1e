package v6lab

import (
	"sync"
	"testing"

	"v6lab/internal/faults"
)

var (
	privOnce sync.Once
	privLab  *Lab
	privErr  error
)

func privacyLab(t *testing.T) *Lab {
	t.Helper()
	privOnce.Do(func() {
		privLab = NewWithOptions(Options{ForcePrivacyExtensions: true, ForceDAD: true})
		privErr = privLab.Run()
	})
	if privErr != nil {
		t.Fatal(privErr)
	}
	return privLab
}

// TestPrivacyExtensionAblation verifies the paper's §6 recommendation: with
// RFC 8981 privacy extensions everywhere, the EUI-64 tracking surface
// disappears completely.
func TestPrivacyExtensionAblation(t *testing.T) {
	lab := privacyLab(t)
	r := lab.EUI64Exposure()
	if r.Assign != 0 || r.Use != 0 || r.DNS != 0 || r.Data != 0 {
		t.Errorf("EUI-64 funnel with privacy extensions = %d/%d/%d/%d, want all zero",
			r.Assign, r.Use, r.DNS, r.Data)
	}
}

// TestForceDADAblation verifies full RFC 4862 compliance removes every
// audit finding.
func TestForceDADAblation(t *testing.T) {
	lab := privacyLab(t)
	a := lab.DADAudit()
	if a.DevicesSkipping != 0 || a.GUAsNoDAD+a.ULAsNoDAD+a.LLAsNoDAD != 0 {
		t.Errorf("DAD audit with forced compliance: %+v", a)
	}
}

// TestMitigationsPreserveReadiness: the privacy mitigations must not change
// the functional outcome — readiness is a DNS/destination problem, not an
// addressing one.
func TestMitigationsPreserveReadiness(t *testing.T) {
	lab := privacyLab(t)
	f := lab.Data.Table3()
	if got := f.Functional.Total(); got != 8 {
		t.Errorf("functional devices = %d, want 8 (mitigations should not change readiness)", got)
	}
}

// TestAAAAEverywhereAblation models a fully v6-ready destination Internet:
// every device with complete IPv6 support becomes functional, devices with
// stack limitations still fail.
func TestAAAAEverywhereAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("extra full study in -short mode")
	}
	lab := NewWithOptions(Options{AAAAEverywhere: true})
	if err := lab.Run(); err != nil {
		t.Fatal(err)
	}
	f := lab.Data.Table3()
	got := f.Functional.Total()
	if got <= 8 {
		t.Errorf("functional devices with AAAA everywhere = %d, want more than the baseline 8", got)
	}
	// Devices with no IPv6 stack at all can never become functional.
	if got > 93-f.NoIPv6.Total() {
		t.Errorf("functional (%d) exceeds devices with any IPv6 support (%d)", got, 93-f.NoIPv6.Total())
	}
	t.Logf("AAAA-everywhere: %d functional (baseline 8)", got)
}

// TestAblationAAAAAddressesDeterministic: the AAAA-everywhere ablation
// allocates its new AAAA endpoints in plan order, so two labs give every
// domain the same address (and the ablation's pcaps are reproducible).
func TestAblationAAAAAddressesDeterministic(t *testing.T) {
	a := NewWithOptions(Options{AAAAEverywhere: true}).Study.Cloud.Domains()
	b := NewWithOptions(Options{AAAAEverywhere: true}).Study.Cloud.Domains()
	if len(a) != len(b) {
		t.Fatalf("domain registries differ in size: %d vs %d", len(a), len(b))
	}
	for name, d := range a {
		if len(d.V6) != 1 {
			t.Fatalf("%s has %d AAAA endpoints under AAAA-everywhere, want 1", name, len(d.V6))
		}
		if got := b[name].V6; len(got) != 1 || got[0] != d.V6[0] {
			t.Errorf("%s: AAAA %v in one lab, %v in another", name, d.V6, got)
		}
	}
}

// TestAblationResilienceSeesCounterfactual: the resilience grid runs over
// the ablation lab's own World, so its clean grid reproduces the lab's
// connectivity study — including the device AAAA-everywhere makes
// functional on IPv6-only.
func TestAblationResilienceSeesCounterfactual(t *testing.T) {
	lab := NewWithOptions(Options{AAAAEverywhere: true}, WithDevices("SmartThings Hub", "Wyze Cam"))
	if err := lab.Run(Connectivity(), Resilience(Impairments(faults.Clean()))); err != nil {
		t.Fatal(err)
	}
	if !lab.Study.Result("ipv6-only").Functional["SmartThings Hub"] {
		t.Fatal("AAAA-everywhere left SmartThings Hub non-functional on IPv6-only")
	}
	for _, res := range lab.Study.Results {
		want := 0
		for _, ok := range res.Functional {
			if ok {
				want++
			}
		}
		if got := lab.Resil.Config("clean", res.Config.ID).Functional; got != want {
			t.Errorf("%s: clean grid has %d functional devices, the lab's study %d", res.Config.ID, got, want)
		}
	}
}
