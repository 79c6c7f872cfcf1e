package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"v6lab/internal/device"
)

// goldenStudyHash is the recorded options hash of the canonical default
// study spec ({"kind":"study"}). It is deliberately hardcoded: any change
// to JobSpec's hashed fields, their canonicalization, or the hashedSpec
// layout changes every hash, silently splitting the result cache across
// deployments — this test makes that failure loud instead.
const goldenStudyHash = "3f187b0dd9130eb5e52e31fe326a2d814d6fbe7a29feacc9acb69750ed2dcb43"

func TestOptionsHashGolden(t *testing.T) {
	got := JobSpec{Kind: KindStudy}.OptionsHash()
	if got != goldenStudyHash {
		t.Errorf("default study options hash changed:\n got %s\nwant %s\n"+
			"If the spec layout changed intentionally, update the golden hash — and "+
			"know that every deployed cache key just changed with it.", got, goldenStudyHash)
	}
	// One valid spec per kind, with every option it honours set: the
	// recorded hashes pin the canonical layout of every field.
	cases := []struct {
		spec JobSpec
		hash string
	}{
		{JobSpec{Kind: KindStudy, Seed: 7, Devices: []string{"Apple TV", "Wyze Cam"}, Fault: "lossy-wifi"}, "41cf783b101ed26c052e47a4cdb517a081af57f59a8fa540cca65c24f27d13e8"},
		{JobSpec{Kind: KindFirewall, Policies: []string{"deny", "open"}}, "aaddc3b03fe3a628ee26c94ee2c1ef4306419a7b927e557f4af7e41c4c7cf671"},
		{JobSpec{Kind: KindFleet, FleetHomes: 20, FleetSeed: 3, Seed: 9}, "ef8a15035d15e608e19f86cd6c2e9bd91a07be5fcff7e93ce59973769aa2a004"},
		{JobSpec{Kind: KindResilience, Seed: 9, Devices: []string{"Wyze Cam"}, MaxFramesPerRun: 500}, "8ec7aacb201158eeaaef89e056f0dd1c2b44a9a349e63b08c9be02bf6c10225f"},
		{JobSpec{Kind: KindAdversary, FleetHomes: 12, CampaignSeed: 5, Seed: 4}, "1601ded18f61067fb4b17c854179ad891f0953e1d5561dfdd3924aafe44da360"},
		{JobSpec{Kind: KindTimeline, FleetHomes: 8, FleetSeed: 3, Horizon: "48h", Fault: "lossy-wifi"}, "c1c2819f240abcfd84203e53ca3e50a3864921913be86b11a299b7c5d67642cd"},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c.spec, err)
		}
		if got := c.spec.OptionsHash(); got != c.hash {
			t.Errorf("%s options hash = %s, recorded %s", c.spec.Kind, got, c.hash)
		}
	}
}

// TestCanonicalJSONRoundTrip: a canonical spec survives a JSON
// round-trip unchanged — encode, decode, re-canonicalize, same struct
// and same hash.
func TestCanonicalJSONRoundTrip(t *testing.T) {
	specs := []JobSpec{
		{Kind: KindStudy},
		{Kind: KindStudy, Seed: 7, Devices: []string{"Apple TV", "Wyze Cam"}, Fault: "lossy-wifi"},
		{Kind: KindFirewall, Policies: []string{"deny", "open"}},
		{Kind: KindFleet, FleetHomes: 20, FleetSeed: 3, Workers: 8},
		{Kind: KindResilience, Seed: 9, MaxFramesPerRun: 500},
		{Kind: KindAdversary, FleetHomes: 12, CampaignSeed: 5},
	}
	for _, spec := range specs {
		c := spec.Canonicalize()
		blob, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back JobSpec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Canonicalize(); !reflect.DeepEqual(got, c) {
			t.Errorf("canonical spec changed across a JSON round-trip:\nbefore %+v\nafter  %+v", c, got)
		}
		if got, want := back.CacheKey(), spec.CacheKey(); got != want {
			t.Errorf("cache key changed across a JSON round-trip: %v vs %v", got, want)
		}
	}
}

// TestOptionsHashFieldOrderIndependence: the same experiment described
// with different JSON field order and different device order hashes
// identically.
func TestOptionsHashFieldOrderIndependence(t *testing.T) {
	docs := []string{
		`{"kind":"study","seed":5,"devices":["Wyze Cam","Apple TV"],"fault":"lossy-wifi"}`,
		`{"fault":"lossy-wifi","devices":["Apple TV","Wyze Cam"],"seed":5,"kind":"study"}`,
	}
	var keys []Key
	for _, doc := range docs {
		var spec JobSpec
		if err := json.Unmarshal([]byte(doc), &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, spec.CacheKey())
	}
	if keys[0] != keys[1] {
		t.Errorf("field/device order split the cache key: %v vs %v", keys[0], keys[1])
	}
}

// TestWorkersExcludedFromHash: worker count changes wall time, never
// bytes, so it must not split the cache.
func TestWorkersExcludedFromHash(t *testing.T) {
	a := JobSpec{Kind: KindStudy, Workers: 0}.CacheKey()
	b := JobSpec{Kind: KindStudy, Workers: 8}.CacheKey()
	if a != b {
		t.Errorf("workers split the cache key: %v vs %v", a, b)
	}
}

// TestSeedSplitsKeyNotHash: the seed is the explicit first half of the
// key, not part of the options hash. Fleet and adversary jobs draw only
// from their own seeds, so theirs canonicalizes to 1 and never splits it.
func TestSeedSplitsKeyNotHash(t *testing.T) {
	cases := []struct {
		spec  JobSpec
		split bool
	}{
		{JobSpec{Kind: KindResilience}, true},
		{JobSpec{Kind: KindStudy}, true},
		{JobSpec{Kind: KindTimeline, FleetHomes: 5, Horizon: "2d", Fault: "lossy-wifi"}, true},
		{JobSpec{Kind: KindFleet, FleetHomes: 5}, false},
		{JobSpec{Kind: KindAdversary, FleetHomes: 5, CampaignSeed: 3}, false},
	}
	for _, c := range cases {
		one, two := c.spec, c.spec
		one.Seed, two.Seed = 1, 2
		a, b := one.CacheKey(), two.CacheKey()
		if a.Hash != b.Hash {
			t.Errorf("%s: seed leaked into the options hash: %s vs %s", c.spec.Kind, a.Hash, b.Hash)
		}
		if split := a != b; split != c.split {
			t.Errorf("%s: seeds 1 and 2 split the cache key = %v, want %v", c.spec.Kind, split, c.split)
		}
		if got := two.Canonicalize().Seed; !c.split && got != 1 {
			t.Errorf("%s: canonical seed = %d, want 1", c.spec.Kind, got)
		}
	}
}

func TestCanonicalizeDefaults(t *testing.T) {
	c := JobSpec{Kind: " Study "}.Canonicalize()
	if c.Kind != KindStudy || c.Seed != 1 {
		t.Errorf("defaults not applied: %+v", c)
	}
	// A clean fault profile is the same run as no profile at all.
	if got := (JobSpec{Kind: KindStudy, Fault: "clean"}).CacheKey(); got != (JobSpec{Kind: KindStudy}).CacheKey() {
		t.Error("fault=clean split the cache key from the no-fault spec")
	}
	// Policy aliases fold onto one spelling, and the empty list expands
	// to the three defaults in report order.
	alias := JobSpec{Kind: KindFirewall, Policies: []string{"open", "deny", "pinhole"}}.CacheKey()
	expanded := JobSpec{Kind: KindFirewall}.CacheKey()
	if alias != expanded {
		t.Errorf("policy alias/expansion split the cache key: %v vs %v", alias, expanded)
	}
	// Policy *order* is report order, so it must stay significant.
	reordered := JobSpec{Kind: KindFirewall, Policies: []string{"pinhole", "stateful", "open"}}.CacheKey()
	if reordered == expanded {
		t.Error("policy order must change the key (it changes report bytes)")
	}
	// Fleet seeds default only for fleet jobs.
	if c := (JobSpec{Kind: KindFleet, FleetHomes: 5}).Canonicalize(); c.FleetSeed != 1 {
		t.Errorf("fleet seed default not applied: %+v", c)
	}
	// Adversary jobs default both the fleet seed and the campaign seed.
	if c := (JobSpec{Kind: KindAdversary, FleetHomes: 5}).Canonicalize(); c.FleetSeed != 1 || c.CampaignSeed != 1 {
		t.Errorf("adversary seed defaults not applied: %+v", c)
	}
	// The campaign seed is output-affecting, so it must split the key.
	s3 := JobSpec{Kind: KindAdversary, FleetHomes: 5, CampaignSeed: 3}.CacheKey()
	s1 := JobSpec{Kind: KindAdversary, FleetHomes: 5}.CacheKey()
	if s3 == s1 {
		t.Error("campaign seed must change the cache key (it changes report bytes)")
	}
}

func TestCanonicalDevicesRegistryOrderAndDedup(t *testing.T) {
	reg := device.Registry()
	// A permutation with a duplicate canonicalizes to registry order,
	// deduplicated.
	names := []string{reg[3].Name, reg[0].Name, reg[3].Name}
	got := canonicalDevices(names)
	want := []string{reg[0].Name, reg[3].Name}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonicalDevices(%v) = %v, want %v", names, got, want)
	}
	// Listing the whole registry is the default testbed: nil.
	var all []string
	for _, p := range reg {
		all = append(all, p.Name)
	}
	if got := canonicalDevices(all); got != nil {
		t.Errorf("full-registry device list should canonicalize to nil, got %d names", len(got))
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Kind: "espresso"}, "unknown kind"},
		{JobSpec{Kind: KindStudy, Devices: []string{"Quantum Toaster"}}, "unknown device"},
		{JobSpec{Kind: KindStudy, Fault: "solar-flare"}, "unknown profile"},
		{JobSpec{Kind: KindStudy, Policies: []string{"open"}}, "policies only apply"},
		{JobSpec{Kind: KindFirewall, Policies: []string{"moat"}}, "unknown policy"},
		{JobSpec{Kind: KindFleet}, "fleet_homes > 0"},
		{JobSpec{Kind: KindStudy, FleetHomes: 5}, "only apply to kind"},
		{JobSpec{Kind: KindStudy, MaxFramesPerRun: -1}, "non-negative"},
		{JobSpec{Kind: KindStudy, Workers: -2}, "non-negative"},
		{JobSpec{Kind: KindAdversary}, "fleet_homes > 0"},
		{JobSpec{Kind: KindFleet, FleetHomes: 5, CampaignSeed: 2}, "campaign_seed only applies"},
		// Options the kind ignores would only split the cache.
		{JobSpec{Kind: KindFleet, FleetHomes: 5, Fault: "lossy-wifi"}, "fault only applies"},
		{JobSpec{Kind: KindAdversary, FleetHomes: 5, Fault: "flaky-dnsmasq"}, "fault only applies"},
		{JobSpec{Kind: KindResilience, Fault: "clamped-tunnel"}, "fault only applies"},
		{JobSpec{Kind: KindFleet, FleetHomes: 5, Devices: []string{"Wyze Cam"}}, "devices only apply"},
		{JobSpec{Kind: KindAdversary, FleetHomes: 5, Devices: []string{"Wyze Cam"}}, "devices only apply"},
		{JobSpec{Kind: KindTimeline, FleetHomes: 5, Horizon: "2d", Devices: []string{"Wyze Cam"}}, "devices only apply"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error containing %q", c.spec, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %q, want it to contain %q", c.spec, err, c.want)
		}
	}
	valid := []JobSpec{
		{Kind: KindStudy},
		{Kind: KindFirewall, Policies: []string{"stateful-default-deny"}},
		{Kind: KindFleet, FleetHomes: 10, FleetSeed: 2},
		{Kind: KindResilience, Devices: []string{"Wyze Cam"}},
		{Kind: KindAdversary, FleetHomes: 8, CampaignSeed: 4},
		{Kind: KindTimeline, FleetHomes: 8, Horizon: "2d", Fault: "lossy-wifi"},
	}
	for _, spec := range valid {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
}
