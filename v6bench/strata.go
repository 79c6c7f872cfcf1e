package main

import (
	"v6lab/internal/device"
	"v6lab/internal/fleet"
)

// meanDevicesX100 is the mean household size of fleet.DefaultSizes, in
// hundredths of a device: bands 3-6, 7-12, 13-20 and 21-35 weighted
// 3:4:2:1 average 11.25 devices.
const meanDevicesX100 = 1125

// stratifier draws batch populations stratified so that every run sees
// the same mix of work: per-home cost depends mostly on the home's
// connectivity config, its size, and how much traffic its devices plan,
// and all three are heavy-tailed (3 to 35 devices; a few devices plan
// 50 times the median volume), so unstratified runs would differ by
// their draws more than by the code under test.
type stratifier struct {
	reg    []*device.Profile // read-only registry snapshot
	weight []float64         // each device's planned bytes per experiment
	meanW  float64
}

func newStratifier() *stratifier {
	s := &stratifier{reg: device.Registry()}
	for _, pl := range device.BuildPlans(s.reg) {
		s.weight = append(s.weight, float64(pl.TotalBytes))
		s.meanW += float64(pl.TotalBytes)
	}
	s.meanW /= float64(len(s.weight))
	return s
}

// populate sets fc up for batch b of a run seeded with seed. Batches
// follow mixCycle, so the default connectivity mix holds over any run of
// batches. The seed is the first candidate derived from (seed, b) whose
// homes hold the default mean household size in total (within one
// device) and plan within 10% of the mean traffic for that many devices.
// Sizes, devices and firewall policies are still drawn from the defaults.
func (s *stratifier) populate(fc *fleet.Config, seed uint64, b, homes int) {
	fc.Connectivity = []fleet.Share{{Name: mixCycle[b%len(mixCycle)], Weight: 1}}
	target := (homes*meanDevicesX100 + 50) / 100
	for k := uint64(0); k < 1<<12; k++ {
		fc.Seed = splitmix64(seed ^ splitmix64(uint64(b)<<20|k))
		if fc.Seed == 0 {
			continue
		}
		n, w := 0, 0.0
		for i := 0; i < homes; i++ {
			for _, di := range fc.SpecForIn(s.reg, i).DeviceIndexes {
				n++
				w += s.weight[di]
			}
		}
		want := float64(n) * s.meanW
		if n >= target-1 && n <= target+1 && w >= 0.9*want && w <= 1.1*want {
			return
		}
	}
}

// mixCycle spreads fleet.DefaultConnectivity's configs over a cycle in
// proportion to their weights (smooth weighted round-robin, one slot per
// 5 weight), so any window of consecutive batches holds close to the
// default mix.
var mixCycle = func() []string {
	shares := fleet.DefaultConnectivity
	total := 0
	for _, sh := range shares {
		total += sh.Weight / 5
	}
	cur := make([]int, len(shares))
	out := make([]string, 0, total)
	for len(out) < total {
		best := 0
		for i, sh := range shares {
			cur[i] += sh.Weight / 5
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, shares[best].Name)
	}
	return out
}()

// warmupSeed seeds the fixed warm-up population fleet and timeline set
// up with; it does not depend on the run's seed, so set-up costs the
// same on every run.
const warmupSeed = 0x5E7
