package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"time"

	"v6lab"
	"v6lab/internal/analysis"
	"v6lab/internal/telemetry"
)

// studyDigest is the sha256 of the single-home study's FullReport, as
// recorded in the repository's byte-identity tests. The study's input is
// the fixed 93-device testbed, so the digest holds for every seed.
const studyDigest = "96e255d3365ad1b4619211d1763277de6983cc9a56a8314294a5ff959235f365"

// studyWL runs the paper's full study back to back over one warm Env:
// six Table 2 experiments, active DNS, port scans, the analysis pipeline,
// and every report artifact. One client; the study engine itself uses
// nproc workers.
type studyWL struct {
	env     *v6lab.Env
	workers int
	units   int64
}

func newStudyWL(uint64) workload { return &studyWL{workers: runtime.NumCPU()} }

func (w *studyWL) unit() string { return "study" }

// setup builds the shared World and runs one warm-up study, which fills
// the Env's pool with per-worker environments.
func (w *studyWL) setup() error {
	w.env = v6lab.NewEnv()
	t := newTally()
	w.once(t, nil, nil)
	return t.err()
}

func (w *studyWL) close() {}

func (w *studyWL) run(deadline time.Time, t *tally, tr *tracer, reg *telemetry.Registry) {
	for time.Now().Before(deadline) {
		start := time.Now()
		if w.once(t, tr, reg) {
			t.latency(msSince(start))
		}
	}
}

// once runs one study and checks its report digest; it reports whether
// the study succeeded.
func (w *studyWL) once(t *tally, tr *tracer, reg *telemetry.Registry) bool {
	w.units++
	unit := w.units
	opts := []v6lab.Option{v6lab.WithEnv(w.env), v6lab.WithWorkers(w.workers)}
	if reg != nil {
		opts = append(opts, v6lab.WithTelemetry(reg))
	}
	root := tr.begin("study", 0, unit)
	defer tr.end(root)
	lab := v6lab.New(opts...)
	// The steps Lab.Run and FullReport take, one span each; on a nil
	// tracer the spans record nothing.
	id := tr.begin("experiment.run_all", root, unit)
	err := lab.Study.RunAllContext(context.Background())
	tr.end(id)
	if err != nil {
		t.fail("study: %v", err)
		return false
	}
	id = tr.begin("analysis.from_study", root, unit)
	lab.Data = analysis.FromStudy(lab.Study)
	tr.end(id)
	start := time.Now()
	rep := renderFull(lab, tr, root, unit)
	t.sample("report.render_ms", msSince(start))
	if got := digest(rep); got != studyDigest {
		t.fail("study %d: fullreport sha256 %s, recorded %s", unit, got, studyDigest)
		return false
	}
	if reg != nil {
		funcs, devs := 0, 0
		for _, res := range lab.Study.Results {
			for _, ok := range res.Functional {
				devs++
				if ok {
					funcs++
				}
			}
		}
		t.count("device.functional", float64(funcs))
		t.count("device.tested", float64(devs))
	}
	t.done(1)
	return true
}

// renderFull renders every artifact FullReport renders, in its order,
// one report.render span per artifact, and returns the concatenation.
func renderFull(lab *v6lab.Lab, tr *tracer, parent int, unit int64) string {
	id := tr.begin("report.full", parent, unit)
	defer tr.end(id)
	out := ""
	for _, a := range v6lab.Artifacts {
		// FullReport skips the opt-in parts that have not run.
		if (a == v6lab.ResilienceStudy && lab.Resil == nil) ||
			(a == v6lab.AdversaryStudy && lab.Adv == nil) ||
			(a == v6lab.TimelineStudy && lab.TL == nil) {
			continue
		}
		rid := tr.begin("report.render", id, unit)
		out += lab.Report(a) + "\n"
		tr.end(rid)
	}
	return out
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// err summarizes a tally's failures (nil when there were none).
func (t *tally) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.failed > 0:
		return errors.New(t.problems[0])
	case t.attempted == 0:
		return errors.New("no units completed")
	}
	return nil
}
