// Command v6bench is v6lab's end-to-end benchmark. It runs one named
// workload — study, fleet, timeline, or server — as a closed loop for a
// fixed number of seconds, checks that every output is correct, and
// prints each metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 the run is split into an untraced and a traced half, spans
// are recorded around the calls into each layer, the recorded frames of
// one study are replayed through each layer's entry point, and the
// metrics are the per-layer ones (perLayer). See README.md.
//
// Usage (from the root of a v6lab checkout):
//
//	bash v6bench/run.sh --workload study --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"v6lab/internal/telemetry"
)

// metricSpec names a metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"units_per_s", "unit/s"},
	{"unit_ms_p50", "ms"},
	{"unit_ms_tail", "ms"},
	{"alloc_bytes_per_unit", "B"},
	{"cpu_s_per_unit", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"packet.serialize_ns", "ns"},
		{"packet.serialize_bytes", "B"},
		{"packet.serialize_realloc_ratio", "ratio"},
		{"packet.parse_ns", "ns"},
		{"packet.parse_allocs", "count"},
		{"netsim.deliver_ns", "ns"},
		{"netsim.fanout_per_frame", "count"},
		{"netsim.frames_per_unit", "count"},
		{"netsim.arena_bytes_per_frame", "B"},
		{"device.handle_ns", "ns"},
		{"device.handle_allocs", "count"},
		{"device.multicast_share", "ratio"},
		{"device.functional_ratio", "ratio"},
		{"router.handle_ns", "ns"},
		{"router.handle_allocs", "count"},
		{"router.forwarded_per_unit", "count"},
		{"router.nat44_per_unit", "count"},
		{"conntrack.op_ns", "ns"},
		{"conntrack.hit_ratio", "ratio"},
		{"firewall.dropped_in_per_unit", "count"},
		{"cloud.handle_ns", "ns"},
		{"cloud.queries_per_unit", "count"},
		{"dnsmsg.unpack_ns", "ns"},
		{"tlssim.sni_ns", "ns"},
		{"analysis.observe_ns", "ns"},
		{"analysis.frames_observed_per_unit", "count"},
		{"analysis.finalize_ms", "ms"},
		{"pcapio.capture_add_ns", "ns"},
		{"pcapio.bytes_retained_per_unit", "B"},
		{"world.build_ms", "ms"},
		{"world.build_home_ms", "ms"},
		{"experiment.run_ms", "ms"},
	}
	for _, id := range configIDs() {
		m = append(m, metricSpec{"experiment.run_ms." + id, "ms"})
	}
	return append(m, []metricSpec{
		{"experiment.sim_s_per_unit", "s"},
		{"report.render_ms", "ms"},
		{"fleet.home_ms", "ms"},
		{"timeline.home_ms", "ms"},
		{"timeline.frames_per_homeday", "count"},
		{"timeline.bursts_per_homeday", "count"},
		{"server.queue_wait_ms", "ms"},
		{"server.exec_ms", "ms"},
		{"server.fetch_ms", "ms"},
		{"server.cache_hit_ratio", "ratio"},
		{"runtime.gc_cpu_ratio", "ratio"},
		{"runtime.gc_cycles_per_unit", "count"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}()

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// workload is one closed-loop load the benchmark can drive.
type workload interface {
	// unit names one unit of work ("study", "home", "home-day", "job").
	unit() string
	// setup builds the workload's state and runs its warm-up unit.
	setup() error
	// run drives the loop until deadline, recording into t. A non-nil tr
	// records spans around layer calls; a non-nil reg counts telemetry.
	run(deadline time.Time, t *tally, tr *tracer, reg *telemetry.Registry)
	// close releases what setup started.
	close()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) workload{
	"study":    newStudyWL,
	"fleet":    newFleetWL,
	"timeline": newTimelineWL,
	"server":   newServerWL,
}

// tally accumulates one phase's outcomes; safe for concurrent clients.
type tally struct {
	mu        sync.Mutex
	units     float64
	latMS     []float64 // per-unit latency (server: cold jobs only)
	hitMS     []float64 // server cache hits
	attempted int
	failed    int
	problems  []string
	// samples holds per-layer observations by metric name (e.g. per-home
	// spans); counts holds per-layer totals (e.g. frames from a report).
	samples map[string][]float64
	counts  map[string]float64
}

func newTally() *tally {
	return &tally{samples: map[string][]float64{}, counts: map[string]float64{}}
}

// done records one completed operation worth units units.
func (t *tally) done(units float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.units += units
}

// fail records one failed operation.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// latency records a per-unit latency sample.
func (t *tally) latency(ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.latMS = append(t.latMS, ms)
}

// hit records a server cache-hit latency sample.
func (t *tally) hit(ms float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hitMS = append(t.hitMS, ms)
}

// sample records a per-layer observation.
func (t *tally) sample(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

// count adds to a per-layer total.
func (t *tally) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] += v
}

// phase is a timed run of the loop with its runtime deltas.
type phase struct {
	t          *tally
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

func runPhase(wl workload, d time.Duration, tr *tracer, reg *telemetry.Registry) phase {
	t := newTally()
	runtime.GC()
	a := sampleRuntime()
	wl.run(a.wall.Add(d), t, tr, reg)
	b := sampleRuntime()
	return phase{
		t: t, wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes, gcCycles: b.gcCycles - a.gcCycles,
		gcCPU: b.gcCPU - a.gcCPU, totalCPU: b.totalCPU - a.totalCPU,
	}
}

func (p phase) unitsPerS() float64 { return p.t.units / p.wall.Seconds() }

// result is what the final JSON line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v6bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: study | fleet | timeline | server")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "seconds the timed loop runs")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "v6bench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	h := hostInfo()
	fmt.Fprintf(stdout, "host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	wl, setupS, err := setUp(mk, *seed, tr)
	if err != nil {
		fmt.Fprintf(stderr, "v6bench: setup: %v\n", err)
		return 1
	}
	defer wl.close()

	var res result
	if *trace == 0 {
		res = measureEndToEnd(stdout, wl, setupS, time.Duration(*seconds)*time.Second)
	} else {
		res = measureLayers(stdout, wl, *name, time.Duration(*seconds)*time.Second, tr)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "v6bench: %v\n", err)
			return 1
		}
		if err := writeSpans(path, tr.finished()); err != nil {
			fmt.Fprintf(stderr, "v6bench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "v6bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setUp builds the workload setupReps times, timing each, and keeps the
// last one; the others are closed.
func setUp(mk func(uint64) workload, seed uint64, tr *tracer) (workload, []float64, error) {
	var times []float64
	var wl workload
	for i := 0; i < setupReps; i++ {
		if wl != nil {
			wl.close()
		}
		wl = mk(seed)
		runtime.GC() // every set-up starts from a collected heap
		id := tr.begin("setup", 0, -1)
		start := time.Now()
		err := wl.setup()
		times = append(times, time.Since(start).Seconds())
		tr.end(id)
		if err != nil {
			wl.close()
			return nil, nil, err
		}
	}
	return wl, times, nil
}

// measureEndToEnd runs the untraced timed loop and reports endToEnd.
func measureEndToEnd(w io.Writer, wl workload, setupS []float64, d time.Duration) result {
	p := runPhase(wl, d, nil, nil)
	t := p.t
	units := max(t.units, 1e-9)
	tl := selectTail(t.latMS)
	vals := map[string]float64{
		"setup_s":              median(setupS),
		"units_per_s":          p.unitsPerS(),
		"unit_ms_p50":          median(t.latMS),
		"unit_ms_tail":         tl.Value,
		"alloc_bytes_per_unit": float64(p.allocBytes) / units,
		"cpu_s_per_unit":       p.cpu.Seconds() / units,
		"peak_rss_mb":          peakRSSMB(),
	}
	notes := map[string]string{
		"setup_s":      fmt.Sprintf("median of %d set-ups: %s", len(setupS), fmtList(setupS)),
		"units_per_s":  fmt.Sprintf("%g %ss in %.3f s", t.units, wl.unit(), p.wall.Seconds()),
		"unit_ms_p50":  fmt.Sprintf("n=%d %s", len(t.latMS), latencyScope(wl)),
		"unit_ms_tail": tl.String(),
		"peak_rss_mb":  "VmHWM, set-up included",
	}
	fmt.Fprintf(w, "unit=%s\n", wl.unit())
	for _, m := range endToEnd {
		fmt.Fprintf(w, "metric %-22s %14.6g %-7s %s\n", m.Name, vals[m.Name], m.Unit, notes[m.Name])
	}
	if len(t.hitMS) > 0 {
		fmt.Fprintf(w, "metric %-22s %14.6g %-7s n=%d cache hits\n", "hit_ms_p50", median(t.hitMS), "ms", len(t.hitMS))
	} else {
		fmt.Fprintf(w, "metric %-22s %14s %-7s no cache hits on this workload\n", "hit_ms_p50", "n/a", "ms")
	}
	fr := ratio{float64(t.failed), float64(t.attempted), "operations attempted"}
	fmt.Fprintf(w, "metric %-22s %14.6g %-7s %s\n", "failed_ratio", fr.Value(), "ratio", fr)
	if _, ok := wl.(*serverWL); ok {
		fmt.Fprintf(w, "server: %g cold reports computed again and compared with the first\n", t.counts["server.recomputed"])
	}
	return finish(w, []*tally{t}, vals, endToEnd)
}

func latencyScope(wl workload) string {
	if _, ok := wl.(*serverWL); ok {
		return "cold jobs, submit to fullreport read"
	}
	return wl.unit() + "s"
}

// finish reports correctness and assembles the JSON result.
func finish(w io.Writer, ts []*tally, vals map[string]float64, specs []metricSpec) result {
	res := result{Metrics: map[string]metricValue{}}
	var problems []string
	for _, t := range ts {
		res.Attempted += t.attempted
		res.Failed += t.failed
		problems = append(problems, t.problems...)
	}
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Correct {
		fmt.Fprintf(w, "correctness: ok (%d operations checked)\n", res.Attempted)
	} else {
		fmt.Fprintf(w, "correctness: FAILED (%d of %d operations)\n", res.Failed, res.Attempted)
		for _, p := range problems {
			fmt.Fprintf(w, "  failure: %s\n", p)
		}
	}
	return res
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// defaultSeed is the seed the recorded output digests were taken with.
const defaultSeed = 1

// splitmix64 is the benchmark's seed-derivation step.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
