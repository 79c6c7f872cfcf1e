package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the middle two for even
// lengths), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidates tail selects from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail value.
const minBeyond = 10

// tail is a tail-latency figure: the value at the highest candidate
// percentile that still has at least minBeyond samples above it.
type tail struct {
	Pct    float64
	Value  float64
	N      int // samples in the distribution
	Beyond int // samples strictly above the nearest-rank position
	OK     bool
}

// String renders the tail with its percentile and sample counts, e.g.
// "p90 (n=120, 12 beyond)".
func (t tail) String() string {
	if !t.OK {
		return fmt.Sprintf("p%g (n=%d, only %d beyond: too few samples)", t.Pct, t.N, t.Beyond)
	}
	return fmt.Sprintf("p%g (n=%d, %d beyond)", t.Pct, t.N, t.Beyond)
}

// selectTail picks the highest percentile in tailPercentiles whose
// nearest-rank sample has at least minBeyond samples beyond it. With too
// few samples for any candidate it falls back to the lowest candidate
// and reports OK=false.
func selectTail(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tail{Pct: tailPercentiles[len(tailPercentiles)-1]}
	}
	var t tail
	for _, p := range tailPercentiles {
		rank := nearestRank(p, n)
		t = tail{Pct: p, Value: s[rank-1], N: n, Beyond: n - rank}
		if t.Beyond >= minBeyond {
			t.OK = true
			return t
		}
	}
	return t
}

// nearestRank is the 1-based nearest-rank position of percentile p among
// n sorted samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps binary rounding (99.9% of 10000 computes as
	// 9990.000000000002) from bumping an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// ratio is a share with its base kept alongside, so every printed ratio
// can state what it was taken over.
type ratio struct {
	Num, Den float64
	Of       string // what Den counts, e.g. "jobs attempted"
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%g / %g %s)", r.Value(), r.Num, r.Den, r.Of)
}
