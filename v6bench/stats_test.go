package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so selectTail must sort
	}
	return xs
}

func TestSelectTailKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 20, pct: 50, value: 10, beyond: 10, ok: true},
		{n: 39, pct: 50, value: 20, beyond: 19, ok: true},
		{n: 40, pct: 75, value: 30, beyond: 10, ok: true},
		{n: 100, pct: 90, value: 90, beyond: 10, ok: true},
		{n: 1000, pct: 99, value: 990, beyond: 10, ok: true},
		{n: 10000, pct: 99.9, value: 9990, beyond: 10, ok: true},
		{n: 15, pct: 50, value: 8, beyond: 7, ok: false},
	}
	for _, c := range cases {
		got := selectTail(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.OK != c.ok || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g value %g beyond %d ok %v", c.n, got, c.pct, c.value, c.beyond, c.ok)
		}
		if got.OK && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, got.Pct, got.Beyond)
		}
	}
	if got := selectTail(nil); got.OK || got.N != 0 {
		t.Errorf("empty input: got %+v", got)
	}
	if s := selectTail(seq(100)).String(); !strings.Contains(s, "p90") || !strings.Contains(s, "n=100") || !strings.Contains(s, "10 beyond") {
		t.Errorf("tail string %q lacks its percentile and counts", s)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 12, Of: "jobs attempted"}
	if r.Value() != 0.25 {
		t.Errorf("value = %g", r.Value())
	}
	if s := r.String(); !strings.Contains(s, "3 / 12 jobs attempted") {
		t.Errorf("ratio string %q does not state its base", s)
	}
	if (ratio{Num: 5}).Value() != 0 {
		t.Error("a ratio over an empty base must read 0")
	}
	// failed_ratio's base is every operation attempted, failures included.
	tl := newTally()
	tl.done(1)
	tl.done(1)
	tl.fail("boom")
	fr := ratio{float64(tl.failed), float64(tl.attempted), "operations attempted"}
	if fr.Num != 1 || fr.Den != 3 {
		t.Errorf("failed ratio %v, want 1 / 3", fr)
	}
}

func TestNameValidity(t *testing.T) {
	good := []string{"setup_s", "packet.serialize_ns", "experiment.run_ms.dual-stack-stateful", "9lives", strings.Repeat("a", 64)}
	bad := []string{"", "_lead", ".lead", "-lead", "has space", "slash/no", "pct%", strings.Repeat("a", 65), "ünïcode"}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	for _, u := range []string{"ms", "s", "1/s", "unit/s", "count", "%", "B"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "has space", strings.Repeat("u", 17)} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, m := range specs {
			if !validName(m.Name) || !validUnit(m.Unit) || seen[m.Name] {
				t.Errorf("metric %q (unit %q) is invalid or repeated", m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "d", Start: ms(15), End: ms(20)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40 * time.Millisecond, 2: 25 * time.Millisecond, 3: 30 * time.Millisecond, 4: 30 * time.Millisecond, 5: 5 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.finished() != nil {
		t.Errorf("nil tracer recorded span %d", id)
	}
}
