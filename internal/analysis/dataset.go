package analysis

import (
	"context"

	"v6lab/internal/experiment"
	"v6lab/internal/pool"
)

// Streaming returns the observer factory experiment studies plug into
// StudyOptions.Observe: one streaming Observer per run, feeding this
// package's extraction core at frame-delivery time (CaptureNone runs).
func Streaming() experiment.ObserverFactory {
	return func(cfg experiment.Config, st *experiment.Study) experiment.Observer {
		return NewObserver(cfg.ID, cfg.Mode, st.MACToDevice)
	}
}

// observationsFor returns one experiment's finished observations: the
// already-streamed observer's (finalized in place), or a fresh batch
// extraction over the buffered capture. Both paths run the same core.
func observationsFor(st *experiment.Study, res *experiment.RunResult) *ExpObs {
	if res.Capture != nil {
		return Observe(res.Config.ID, res.Config.Mode, res.Capture, st.MACToDevice, res.Functional)
	}
	if o, ok := res.Observed.(*Observer); ok {
		return o.Finalize(res.Functional)
	}
	panic("analysis: run has neither a capture nor a streaming Observer")
}

// FromStudy runs the extraction over every experiment a Study produced and
// assembles the Dataset the table derivations consume. Each frame is
// parsed exactly once — at delivery for streaming (CaptureNone) runs, or
// here over the buffered capture. The per-capture extractions are
// independent, so they run on a pool of the study's Workers and land in
// the dataset in experiment order; the result never depends on
// scheduling.
func FromStudy(st *experiment.Study) *Dataset {
	ds := &Dataset{
		Profiles:   st.World.Profiles,
		ActiveAAAA: map[string]bool{},
		Cloud:      st.Cloud,
	}
	ds.Exps = make([]*ExpObs, len(st.Results))
	// The jobs never fail and the context is never cancelled, so Run
	// cannot return an error.
	_ = pool.Run(context.Background(), len(st.Results), st.Workers, nil, func(_ struct{}, i int) error {
		ds.Exps[i] = observationsFor(st, st.Results[i])
		return nil
	})
	for name, r := range st.ActiveDNS {
		ds.ActiveAAAA[name] = r.HasAAAA
	}
	return ds
}
