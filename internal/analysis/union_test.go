package analysis

import (
	"reflect"
	"testing"

	"v6lab/internal/device"
	"v6lab/internal/experiment"
	"v6lab/internal/packet"
	"v6lab/internal/world"
)

// refMerged is the per-device fold the union views replaced, kept as the
// reference they are checked against: it unions one device's observations
// across the given experiments, or returns nil when none observed it.
func refMerged(exps []*ExpObs, name string) *DeviceObs {
	var out *DeviceObs
	for _, e := range exps {
		d, ok := e.Devices[name]
		if !ok {
			continue
		}
		if out == nil {
			out = newDeviceObs(&device.Profile{Name: d.Name, Category: d.Category}, d.MAC)
		}
		out.NDP = out.NDP || d.NDP
		for a, k := range d.Assigned {
			out.Assigned[a] = k
		}
		for a := range d.Used {
			out.Used[a] = true
		}
		for a := range d.DADProbed {
			out.DADProbed[a] = true
		}
		if d.StatefulLease.IsValid() {
			out.StatefulLease = d.StatefulLease
		}
		out.StatelessDHCPv6 = out.StatelessDHCPv6 || d.StatelessDHCPv6
		out.StatefulDHCPv6 = out.StatefulDHCPv6 || d.StatefulDHCPv6
		for k := range d.Queries {
			out.Queries[k] = true
		}
		for k := range d.Responses {
			out.Responses[k] = true
		}
		for k := range d.InternetFlows {
			out.InternetFlows[k] = true
		}
		out.LocalV6Data = out.LocalV6Data || d.LocalV6Data
		out.InternetV6 = out.InternetV6 || d.InternetV6
		out.InternetV4 = out.InternetV4 || d.InternetV4
		out.BytesV4 += d.BytesV4
		out.BytesV6 += d.BytesV6
		out.EUI64DNS = out.EUI64DNS || d.EUI64DNS
		out.EUI64Data = out.EUI64Data || d.EUI64Data
		out.EUI64GUAUsed = out.EUI64GUAUsed || d.EUI64GUAUsed
		for n := range d.EUI64DNSNames {
			out.EUI64DNSNames[n] = true
		}
		for n := range d.EUI64DataDomains {
			out.EUI64DataDomains[n] = true
		}
	}
	return out
}

// refSubsets spells out each subset's runs independently of
// subset.includes, with the number of Table 2 runs it holds.
var refSubsets = []struct {
	s    subset
	runs int
	in   func(device.Mode) bool
}{
	{subsetV4Only, 1, func(m device.Mode) bool { return m == device.ModeV4Only }},
	{subsetV6Only, 3, func(m device.Mode) bool { return m == device.ModeV6Only }},
	{subsetDual, 2, func(m device.Mode) bool { return m == device.ModeDual }},
	{subsetV6, 5, func(m device.Mode) bool { return m == device.ModeV6Only || m == device.ModeDual }},
	{subsetAll, 6, func(device.Mode) bool { return true }},
}

// checkViewsMatchReference asserts that every subset's view holds, for
// every profiled device, exactly the reference fold over that subset's
// runs, with an empty record where the reference has none.
func checkViewsMatchReference(t *testing.T, ds *Dataset) {
	t.Helper()
	if len(refSubsets) != int(numSubsets) {
		t.Fatalf("reference covers %d subsets, want %d", len(refSubsets), numSubsets)
	}
	for _, rs := range refSubsets {
		var exps []*ExpObs
		for _, e := range ds.Exps {
			if rs.in(e.Mode) {
				exps = append(exps, e)
			}
		}
		if len(exps) != rs.runs {
			t.Errorf("subset %d: %d runs, want %d", rs.s, len(exps), rs.runs)
		}
		view := ds.union(rs.s)
		if len(view) != len(ds.Profiles) {
			t.Errorf("subset %d: view has %d records, want %d", rs.s, len(view), len(ds.Profiles))
		}
		for _, p := range ds.Profiles {
			want := refMerged(exps, p.Name)
			if want == nil {
				want = newDeviceObs(p, packet.MAC{})
			}
			if got := view[p.Name]; !reflect.DeepEqual(got, want) {
				t.Errorf("subset %d, %s: view record differs from the reference fold", rs.s, p.Name)
			}
		}
	}
}

func TestUnionViewsMatchReference(t *testing.T) {
	checkViewsMatchReference(t, dataset(t))
}

// TestUnionViewsMatchReferenceSubsetWorld repeats the check on a
// non-default world: a device subset whose runs include stateful leases,
// rotating link-local addresses, EUI-64 exposure and devices without IPv6.
func TestUnionViewsMatchReferenceSubsetWorld(t *testing.T) {
	want := map[string]bool{
		"Samsung Fridge": true, "SmartThings Hub": true, "HomePod Mini": true,
		"Aeotec Hub": true, "Nest Camera": true, "Samsung TV": true,
		"Apple TV": true, "Wyze Cam": true,
	}
	var profiles []*device.Profile
	for _, p := range device.Registry() {
		if want[p.Name] {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) != len(want) {
		t.Fatalf("resolved %d of %d devices", len(profiles), len(want))
	}
	st := experiment.NewStudyWith(experiment.StudyOptions{World: world.Build(profiles)})
	if err := st.RunAll(); err != nil {
		t.Fatal(err)
	}
	checkViewsMatchReference(t, FromStudy(st))
}
