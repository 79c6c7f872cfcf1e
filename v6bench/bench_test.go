package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"v6lab/internal/experiment"
	"v6lab/internal/fleet"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode checks BENCHMARK.json against the metric
// and workload lists the command prints from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if !validName(w.Name) || w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, command knows %v", names, workloadNames())
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, command prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && (m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit) {
			t.Errorf("end_to_end[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %g better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be seconds, lower is better")
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, command prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit) {
			t.Errorf("per_layer[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
}

// lastResult runs the command in-process and decodes its final line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("v6bench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result not correct: %+v", res)
	}
	return res
}

// TestCommandPrintsEveryListedMetric runs the shortest workload untraced
// and traced and checks that each prints exactly the metrics
// BENCHMARK.json lists, with their units.
func TestCommandPrintsEveryListedMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	bf := loadBenchmarkFile(t)
	check := func(res result, want map[string]string) {
		t.Helper()
		if len(res.Metrics) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
		}
		for name, unit := range want {
			got, ok := res.Metrics[name]
			if !ok || got.Unit != unit {
				t.Errorf("metric %s: printed %+v (present %v), want unit %s", name, got, ok, unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	check(lastResult(t, "--workload", "server", "--seconds", "1", "--trace", "0"), e2e)
	check(lastResult(t, "--workload", "server", "--seconds", "1", "--trace", "1", "--out", t.TempDir()), layers)
}

// TestCheckHomeRejectsBadRows checks that each per-home fleet invariant
// can fail.
func TestCheckHomeRejectsBadRows(t *testing.T) {
	good := func() *fleet.HomeResult {
		return &fleet.HomeResult{
			Spec:    fleet.HomeSpec{Index: 2, DeviceIndexes: []int{4, 7, 9}, ConfigID: "dual-stack", Policy: "stateful"},
			Devices: 3, GUA: 2, Functional: 3, FramesCaptured: 500,
			Exposure: &experiment.PolicyExposure{Policy: "stateful", DevicesProbed: 2},
		}
	}
	if err := checkHome(good(), 2, "dual-stack"); err != nil {
		t.Fatalf("consistent row rejected: %v", err)
	}
	for name, spoil := range map[string]func(*fleet.HomeResult){
		"wrong index":          func(h *fleet.HomeResult) { h.Spec.Index = 3 },
		"device count":         func(h *fleet.HomeResult) { h.Devices = 4 },
		"wrong config":         func(h *fleet.HomeResult) { h.Spec.ConfigID = "ipv6-only" },
		"no frames":            func(h *fleet.HomeResult) { h.FramesCaptured = 0 },
		"functional > devices": func(h *fleet.HomeResult) { h.Functional = 4 },
		"no exposure scan":     func(h *fleet.HomeResult) { h.Exposure = nil },
		"scan on ipv4-only":    func(h *fleet.HomeResult) { h.Spec.ConfigID = "ipv4-only" },
		"scan under policy":    func(h *fleet.HomeResult) { h.Exposure.Policy = "open" },
		"reachable > probed": func(h *fleet.HomeResult) {
			h.Exposure.Policy, h.Spec.Policy, h.Exposure.DevicesReachable = "open", "open", 3
		},
		"stateful lets one in": func(h *fleet.HomeResult) { h.Exposure.DevicesReachable = 1 },
	} {
		h := good()
		spoil(h)
		config := "dual-stack"
		if name == "scan on ipv4-only" {
			config = ""
		}
		if checkHome(h, 2, config) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestColdSpecRechecksEvictedKeys checks the server workload's cold job
// stream: new specs never repeat, and every serverRecheckEvery-th job
// repeats the new spec serverRecheckLag new specs back.
func TestColdSpecRechecksEvictedKeys(t *testing.T) {
	w := newServerWL(defaultSeed).(*serverWL)
	rng := uint64(7)
	seen := map[uint64]bool{}
	var fresh []uint64
	rechecks := 0
	for i := 1; i <= 60; i++ {
		s := w.coldSpec(&rng)
		if i%serverRecheckEvery == 0 && len(fresh) >= serverRecheckLag {
			rechecks++
			if want := fresh[len(fresh)-serverRecheckLag]; s.Seed != want {
				t.Fatalf("cold job %d: seed %d, want the recheck of %d", i, s.Seed, want)
			}
			continue
		}
		if seen[s.Seed] || len(s.Devices) != serverDevices {
			t.Fatalf("cold job %d: seed %d repeats or %d devices", i, s.Seed, len(s.Devices))
		}
		seen[s.Seed] = true
		fresh = append(fresh, s.Seed)
	}
	if rechecks == 0 {
		t.Fatal("no rechecks in 60 cold jobs")
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "study", "--seconds", "0"},
		{"--workload", "study", "--trace", "2"},
		{"--workload", "study", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("v6bench %v exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("v6bench %v printed a result", args)
		}
	}
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and holds at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for _, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}
