package v6lab

// Byte-identity of the Table 2 engine: a lab run on any worker count must
// produce exactly the same FullReport and pcaps — pinned, for the clean
// study, to recorded hashes, so a regression in the engine (or in the
// frame path underneath it) fails here. Faulted labs run on the same
// engine and must be just as worker-count invariant.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"v6lab/internal/faults"
	"v6lab/internal/telemetry"
)

// studyHashes are the sha256 sums of the single-home study's outputs, recorded before the parallel engine and the zero-copy frame
// path landed. Any engine change that alters a byte shows up as a diff
// against these.
var studyHashes = map[string]string{
	"fullreport":          "96e255d3365ad1b4619211d1763277de6983cc9a56a8314294a5ff959235f365",
	"ipv4-only":           "d0857fa276bfa52be08665c09e763a429a94c90ba7d7634d13e348d0eb3ba2fc",
	"ipv6-only":           "764dcfa206c3a7397f052678a352428fe45cbf5c749081a4a2688f7baae8d944",
	"ipv6-only-rdnss":     "eb3d076d33e569e409697fdf07b08be61cf5751be8069473fe72d27cca8b262f",
	"ipv6-only-stateful":  "080218a283d5551c56dd4ecaad7804f2a21017e2f802b5fe760ca0fabb694a34",
	"dual-stack":          "b5cdb6ca8bf9737a9cf89d5cb23cd63aa18fee7eedd37d02b940baa83d21f4da",
	"dual-stack-stateful": "645bc9c9824eaa1aae98da865e34fe47c459bd51371b27562a83649a22d3e887",
}

// labHashes computes the sha256 of the full report and of each pcap.
func labHashes(t *testing.T, lab *Lab) map[string]string {
	t.Helper()
	out := map[string]string{}
	sum := sha256.Sum256([]byte(lab.FullReport()))
	out["fullreport"] = hex.EncodeToString(sum[:])
	dir := t.TempDir()
	if err := lab.SavePcaps(dir); err != nil {
		t.Fatal(err)
	}
	for _, res := range lab.Study.Results {
		b, err := os.ReadFile(filepath.Join(dir, res.Config.ID+".pcap"))
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(b)
		out[res.Config.ID] = hex.EncodeToString(s[:])
	}
	return out
}

// TestParallelStudyByteIdentity runs the study on six workers and checks
// every output hash against the recorded baselines (the default
// one-worker study is pinned to the same baselines by the shared lab).
func TestParallelStudyByteIdentity(t *testing.T) {
	par := New(WithWorkers(6))
	if err := par.Run(); err != nil {
		t.Fatal(err)
	}
	got := labHashes(t, par)
	one := labHashes(t, sharedLab(t))
	for key, want := range studyHashes {
		if one[key] != want {
			t.Errorf("one-worker %s = %s, recorded baseline %s", key, one[key], want)
		}
		if got[key] != want {
			t.Errorf("parallel %s = %s, recorded baseline %s", key, got[key], want)
		}
	}
	if len(got) != len(studyHashes) {
		t.Errorf("parallel study produced %d outputs, want %d", len(got), len(studyHashes))
	}
}

// TestResilienceWorkersEquivalence checks the resilience grid at four
// workers against the default one-worker grid on a small population.
func TestResilienceWorkersEquivalence(t *testing.T) {
	names := []string{"Behmor Brewer", "Smarter IKettle", "Samsung Fridge"}
	one := New(WithDevices(names...))
	if err := one.Run(Resilience()); err != nil {
		t.Fatal(err)
	}
	par := New(WithDevices(names...), WithWorkers(4))
	if err := par.Run(Resilience()); err != nil {
		t.Fatal(err)
	}
	a, b := one.Report(ResilienceStudy), par.Report(ResilienceStudy)
	if a != b {
		t.Fatalf("resilience reports differ between 1- and 4-worker runs:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", a, b)
	}
}

// TestFaultedStudyWorkerInvariance: a faulted study runs on the same
// engine as a clean one, so a lossy-wifi lab is byte-equal at one and six
// workers in its FullReport, all six pcaps, and the telemetry snapshot.
func TestFaultedStudyWorkerInvariance(t *testing.T) {
	run := func(workers int) (map[string]string, []byte) {
		lab := New(WithFaultProfile(faults.LossyWiFi()), WithWorkers(workers), WithTelemetry(telemetry.NewRegistry()))
		if err := lab.Run(); err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for _, res := range lab.Study.Results {
			dropped += res.FramesDropped
		}
		if dropped == 0 {
			t.Fatalf("workers=%d: lossy-wifi dropped no frames", workers)
		}
		snap, ok := lab.TelemetrySnapshot()
		if !ok {
			t.Fatal("instrumented lab lost its registry")
		}
		j, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return labHashes(t, lab), j
	}
	one, oneJSON := run(1)
	six, sixJSON := run(6)
	if len(one) != len(studyHashes) {
		t.Errorf("faulted study produced %d outputs, want %d", len(one), len(studyHashes))
	}
	for key, want := range one {
		if six[key] != want {
			t.Errorf("%s: sha256 %s at 6 workers, %s at 1", key, six[key], want)
		}
	}
	if !bytes.Equal(oneJSON, sixJSON) {
		t.Errorf("telemetry snapshots differ between 1 and 6 workers:\n--- 1 worker ---\n%s\n--- 6 workers ---\n%s", oneJSON, sixJSON)
	}
}

// faultedFirewallHashes pin a lossy-wifi lab that runs the study and then
// the WAN firewall comparison: the FullReport (which carries the
// comparison) and all six pcaps. The comparison's scans boot on a clean
// network even in a faulted lab, so any change to how a home comes up —
// faulted Table 2 runs or clean scan boots — shows up here.
var faultedFirewallHashes = map[string]string{
	"fullreport":          "4d2a0e6ebf7136f43a54ca775d83b659165b23903bbc5e5eb04e561781fdb2aa",
	"ipv4-only":           "0607b9c6b39f6e357be753f0348e7efc02f80b9797435ba86b09cbb606403ea0",
	"ipv6-only":           "50cf7a09fcf6a056249216507396578c7e13969b8a467b1712bd94e8482e993f",
	"ipv6-only-rdnss":     "b75846d4105a6e0d5d2077981581f2f6a9045929df82d5c65d8b4dba44a5cfe1",
	"ipv6-only-stateful":  "20895edca728a1304b150c097b5cf89e30d44361499ffe7f708317f4ba84723f",
	"dual-stack":          "de1a3dc5c10ae0a4a831ac308e784070897cbc01b02c18bf7083cf7d63c6cedc",
	"dual-stack-stateful": "b9aecb39b222ae7ffb7146388c1809f962ef99e98e469785b34d9ce0389163e3",
}

func TestLossyWiFiFirewallLabHashes(t *testing.T) {
	lab := New(WithFaultProfile(faults.LossyWiFi()),
		WithDevices("Samsung Fridge", "Wyze Cam", "Apple TV", "Google Home Mini", "TiVo Stream", "Behmor Brewer"))
	if err := lab.Run(Connectivity(), FirewallComparison()); err != nil {
		t.Fatal(err)
	}
	got := labHashes(t, lab)
	if len(got) != len(faultedFirewallHashes) {
		t.Errorf("lab produced %d outputs, want %d", len(got), len(faultedFirewallHashes))
	}
	for key, want := range faultedFirewallHashes {
		if got[key] != want {
			t.Errorf("%s = %s, recorded %s", key, got[key], want)
		}
	}
}
