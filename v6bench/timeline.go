package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"v6lab/internal/report"
	"v6lab/internal/telemetry"
	"v6lab/internal/timeline"
)

const (
	// timelineHomes is the population size of one timeline batch.
	timelineHomes = 4
	// timelineDays is the simulated horizon of every batch.
	timelineDays = 7
)

// timelineDigest is the sha256 of report.Timeline for batch 0 of the
// default seed (timelineHomes homes drawn by stratifier.populate, over
// timelineDays days), and timelineWarmupDigest that of the warm-up
// population every run sets up.
const (
	timelineDigest       = "a1861bcb2df35ade903b1f649b9452818913ebaf00f0007119f9e0477c038737"
	timelineWarmupDigest = "7b0cbfe7d74b5b0a43ddbd9a5fb4ff277ce186dbdfc8411e109e22b05196e140"
)

// timelineWL runs seed-derived populations over a one-week horizon with
// no capture and no analysis observer. nproc clients each run one batch
// at a time on one worker; a home's span (the gap between progress
// events) divided by the horizon's days is one home-day's latency. A
// unit is one simulated home-day.
type timelineWL struct {
	seed    uint64
	clients int
	strata  *stratifier
	next    atomic.Int64
	units   atomic.Int64
}

func newTimelineWL(seed uint64) workload {
	return &timelineWL{seed: seed, clients: runtime.NumCPU(), strata: newStratifier()}
}

func (w *timelineWL) unit() string { return "home-day" }

func timelineConfig(homes int, seed uint64) timeline.Config {
	return timeline.Config{Horizon: timelineDays * 24 * time.Hour, Homes: homes, Workers: 1, Seed: seed}
}

// setup runs one fixed warm-up batch and checks its report against the
// recorded digest, whatever the run's seed.
func (w *timelineWL) setup() error {
	rep, err := timeline.Run(timelineConfig(timelineHomes, warmupSeed))
	if err != nil {
		return err
	}
	if err := checkTimeline(rep, timelineHomes, ""); err != nil {
		return err
	}
	if got := digest(report.Timeline(rep)); got != timelineWarmupDigest {
		return fmt.Errorf("timeline warm-up: report sha256 %s, recorded %s", got, timelineWarmupDigest)
	}
	return nil
}

func (w *timelineWL) close() {}

// run starts every phase at batch 0, as fleetWL.run does.
func (w *timelineWL) run(deadline time.Time, t *tally, tr *tracer, reg *telemetry.Registry) {
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

func (w *timelineWL) batch(b int, t *tally, tr *tracer, reg *telemetry.Registry) {
	unit := w.units.Add(1)
	cfg := timelineConfig(timelineHomes, 0)
	w.strata.populate(&cfg.Fleet, w.seed, b, timelineHomes)
	cfg.Seed = cfg.Fleet.Seed
	cfg.Telemetry = reg
	spans := &homeSpans{name: "timeline.home", tr: tr, unit: unit}
	cfg.Progress = telemetry.FuncSink(spans.event)
	root := tr.begin("timeline.run", 0, unit)
	spans.start(root)
	rep, err := timeline.RunContext(context.Background(), cfg)
	tr.end(root)
	if err != nil {
		t.fail("timeline batch %d: %v", b, err)
		return
	}
	if err := checkTimeline(rep, timelineHomes, cfg.Fleet.Connectivity[0].Name); err != nil {
		t.fail("timeline batch %d (seed %d): %v", b, cfg.Seed, err)
		return
	}
	if b == 0 && w.seed == defaultSeed {
		if got := digest(report.Timeline(rep)); got != timelineDigest {
			t.fail("timeline batch 0: report sha256 %s, recorded %s", got, timelineDigest)
			return
		}
	}
	days := rep.SimDays()
	for _, ms := range spans.gapsMS() {
		t.latency(ms / days)
		t.sample("timeline.home_ms", ms)
	}
	tot := rep.Totals()
	t.count("timeline.frames", float64(tot.Frames))
	for _, d := range tot.Days {
		t.count("timeline.bursts", float64(d.BurstsAttempted))
	}
	for range rep.Homes {
		t.count("timeline.homedays", days)
		t.done(days)
	}
}

// checkTimeline verifies that every planned home reached the horizon on
// the batch's connectivity config ("" for the default mix) with one row
// per day, that each home delivered frames and no day counts more
// successful bursts than it attempted, and that the per-home rows sum to
// Report.Totals.
func checkTimeline(rep *timeline.Report, planned int, config string) error {
	if len(rep.Homes) != planned {
		return fmt.Errorf("%d homes completed, %d planned", len(rep.Homes), planned)
	}
	var devices, frames, bursts, totBursts, rotations int
	for i, h := range rep.Homes {
		switch {
		case h == nil:
			return fmt.Errorf("home %d has no result", i)
		case h.Spec.Index != i:
			return fmt.Errorf("home %d: spec index %d", i, h.Spec.Index)
		case config != "" && h.Spec.ConfigID != config:
			return fmt.Errorf("home %d: config %s, batch config %s", i, h.Spec.ConfigID, config)
		case len(h.Days) != timelineDays:
			return fmt.Errorf("home %d: %d days, horizon %d", i, len(h.Days), timelineDays)
		case h.FramesDelivered <= 0:
			return fmt.Errorf("home %d: %d frames delivered", i, h.FramesDelivered)
		}
		for d, day := range h.Days {
			if day.BurstsOK < 0 || day.BurstsOK > day.BurstsAttempted || day.BurstsAsleep < 0 {
				return fmt.Errorf("home %d day %d: %d of %d bursts ok, %d asleep", i, d, day.BurstsOK, day.BurstsAttempted, day.BurstsAsleep)
			}
			bursts += day.BurstsAttempted
		}
		devices += len(h.Spec.DeviceIndexes)
		frames += h.FramesDelivered
		rotations += len(h.Rotations)
	}
	tot := rep.Totals()
	for _, d := range tot.Days {
		totBursts += d.BurstsAttempted
	}
	switch {
	case tot.Homes != planned:
		return fmt.Errorf("totals homes %d, planned %d", tot.Homes, planned)
	case tot.Devices != devices:
		return fmt.Errorf("totals devices %d, per-home sum %d", tot.Devices, devices)
	case tot.Frames != frames:
		return fmt.Errorf("totals frames %d, per-home sum %d", tot.Frames, frames)
	case totBursts != bursts:
		return fmt.Errorf("totals bursts %d, per-home sum %d", totBursts, bursts)
	case tot.Rotations != rotations:
		return fmt.Errorf("totals rotations %d, per-home sum %d", tot.Rotations, rotations)
	}
	return nil
}
