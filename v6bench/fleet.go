package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"v6lab/internal/fleet"
	"v6lab/internal/report"
	"v6lab/internal/telemetry"
)

// fleetHomes is the population size of one fleet batch.
const fleetHomes = 8

// fleetDigest is the sha256 of report.Fleet for batch 0 of the default
// seed (fleetHomes homes drawn by stratifier.populate, exposure scan on),
// and fleetWarmupDigest that of the warm-up population every run sets up.
const (
	fleetDigest       = "28037ecba17b29c77ad1555df477a8946482f7f6a14ef94606413cddd41b3806"
	fleetWarmupDigest = "ca9bec1d446188c188c5b4dba3de6ed7fea747ff18bc5a3fd95276b0de169846"
)

// fleetWL runs seed-derived fleet populations with the streaming
// (CaptureNone) analysis and the WAN exposure scan on. nproc clients each
// run one batch at a time on one worker, so the gaps between a batch's
// progress events are per-home latencies. A unit is one home.
type fleetWL struct {
	seed    uint64
	clients int
	strata  *stratifier
	next    atomic.Int64 // next batch index
	units   atomic.Int64
}

func newFleetWL(seed uint64) workload {
	return &fleetWL{seed: seed, clients: runtime.NumCPU(), strata: newStratifier()}
}

func (w *fleetWL) unit() string { return "home" }

// setup runs one fixed warm-up batch and checks its report against the
// recorded digest, whatever the run's seed.
func (w *fleetWL) setup() error {
	cfg := fleet.Config{Homes: fleetHomes, Workers: 1, Seed: warmupSeed}
	pop, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	if err := checkFleet(pop, cfg.Homes, ""); err != nil {
		return err
	}
	if got := digest(report.Fleet(pop)); got != fleetWarmupDigest {
		return fmt.Errorf("fleet warm-up: report sha256 %s, recorded %s", got, fleetWarmupDigest)
	}
	return nil
}

func (w *fleetWL) close() {}

// run starts every phase at batch 0, so the untraced and traced halves
// of a traced run see the same populations.
func (w *fleetWL) run(deadline time.Time, t *tally, tr *tracer, reg *telemetry.Registry) {
	w.next.Store(0)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.batch(int(w.next.Add(1)-1), t, tr, reg)
			}
		}()
	}
	wg.Wait()
}

// batch runs population b and checks it.
func (w *fleetWL) batch(b int, t *tally, tr *tracer, reg *telemetry.Registry) {
	unit := w.units.Add(1)
	cfg := fleet.Config{Homes: fleetHomes, Workers: 1, Telemetry: reg}
	w.strata.populate(&cfg, w.seed, b, fleetHomes)
	spans := &homeSpans{name: "fleet.home", tr: tr, unit: unit}
	cfg.Progress = telemetry.FuncSink(spans.event)
	root := tr.begin("fleet.run", 0, unit)
	spans.start(root)
	pop, err := fleet.RunContext(context.Background(), cfg)
	tr.end(root)
	if err != nil {
		t.fail("fleet batch %d: %v", b, err)
		return
	}
	if err := checkFleet(pop, fleetHomes, cfg.Connectivity[0].Name); err != nil {
		t.fail("fleet batch %d (seed %d): %v", b, cfg.Seed, err)
		return
	}
	if b == 0 && w.seed == defaultSeed {
		if got := digest(report.Fleet(pop)); got != fleetDigest {
			t.fail("fleet batch 0: report sha256 %s, recorded %s", got, fleetDigest)
			return
		}
	}
	for _, ms := range spans.gapsMS() {
		t.latency(ms)
		t.sample("fleet.home_ms", ms)
	}
	for range pop.Homes {
		t.done(1)
	}
}

// checkFleet verifies that every planned home completed, that each
// home's row is consistent (see checkHome; config is the batch's
// connectivity config, "" for the default mix), and that the per-home
// rows sum to the population aggregates.
func checkFleet(pop *fleet.Population, planned int, config string) error {
	if len(pop.Homes) != planned {
		return fmt.Errorf("%d homes completed, %d planned", len(pop.Homes), planned)
	}
	var devices, frames, functional int
	for i, hr := range pop.Homes {
		if hr == nil {
			return fmt.Errorf("home %d has no result", i)
		}
		if err := checkHome(hr, i, config); err != nil {
			return fmt.Errorf("home %d: %w", i, err)
		}
		devices += hr.Devices
		frames += hr.FramesCaptured
		functional += hr.Functional
	}
	agg := pop.Aggregate()
	switch {
	case agg.Homes != planned:
		return fmt.Errorf("aggregate homes %d, planned %d", agg.Homes, planned)
	case agg.Devices != devices:
		return fmt.Errorf("aggregate devices %d, per-home sum %d", agg.Devices, devices)
	case agg.FramesCaptured != frames:
		return fmt.Errorf("aggregate frames %d, per-home sum %d", agg.FramesCaptured, frames)
	case agg.DeviceFunctional != functional:
		return fmt.Errorf("aggregate functional %d, per-home sum %d", agg.DeviceFunctional, functional)
	}
	return nil
}

// checkHome verifies one home's row: it is the home its spec planned,
// on the expected config, it delivered frames, every funnel count lies
// within its device count, and its WAN exposure scan ran exactly when
// the home has IPv6, under the home's policy, with nothing reachable
// through a stateful firewall.
func checkHome(hr *fleet.HomeResult, i int, config string) error {
	n := hr.Devices
	switch {
	case hr.Spec.Index != i:
		return fmt.Errorf("spec index %d", hr.Spec.Index)
	case n == 0 || n != len(hr.Spec.DeviceIndexes):
		return fmt.Errorf("%d devices, spec lists %d", n, len(hr.Spec.DeviceIndexes))
	case config != "" && hr.Spec.ConfigID != config:
		return fmt.Errorf("config %s, batch config %s", hr.Spec.ConfigID, config)
	case hr.FramesCaptured <= 0:
		return fmt.Errorf("%d frames captured", hr.FramesCaptured)
	}
	for _, c := range []int{hr.NDP, hr.Addr, hr.GUA, hr.AAAAReq, hr.InternetV6, hr.Functional, hr.EUI64Assign} {
		if c < 0 || c > n {
			return fmt.Errorf("funnel count %d outside 0..%d devices", c, n)
		}
	}
	ex := hr.Exposure
	switch {
	case (ex != nil) != (hr.Spec.ConfigID != "ipv4-only"):
		return fmt.Errorf("config %s: exposure scan ran %t", hr.Spec.ConfigID, ex != nil)
	case ex == nil:
		return nil
	case ex.Policy != hr.Spec.Policy:
		return fmt.Errorf("exposure scanned under %s, home policy %s", ex.Policy, hr.Spec.Policy)
	case ex.DevicesReachable > ex.DevicesProbed || ex.DevicesProbed > n:
		return fmt.Errorf("exposure: %d reachable of %d probed of %d devices", ex.DevicesReachable, ex.DevicesProbed, n)
	case ex.Policy == "stateful" && ex.DevicesReachable != 0:
		return fmt.Errorf("%d devices reachable through a stateful firewall", ex.DevicesReachable)
	}
	return nil
}

// homeSpans turns a one-worker run's progress events into per-home
// spans: each home runs from the previous completion (or the run's
// start) to its own completion event.
type homeSpans struct {
	name   string
	tr     *tracer
	unit   int64
	parent int
	mu     sync.Mutex
	times  []time.Time
}

func (h *homeSpans) start(parent int) {
	h.parent = parent
	h.times = []time.Time{time.Now()}
}

func (h *homeSpans) event(telemetry.Event) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tr.add(h.name, h.parent, h.unit, h.times[len(h.times)-1], now)
	h.times = append(h.times, now)
}

// gapsMS returns the per-home spans in milliseconds.
func (h *homeSpans) gapsMS() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, 0, len(h.times))
	for i := 1; i < len(h.times); i++ {
		out = append(out, float64(h.times[i].Sub(h.times[i-1]))/1e6)
	}
	return out
}
