package experiment

import (
	"context"
	"fmt"

	"v6lab/internal/faults"
	"v6lab/internal/telemetry"
)

// ResilienceConfig aggregates one Table 2 experiment's outcome under one
// impairment profile.
type ResilienceConfig struct {
	// ID is the experiment slug ("ipv6-only-stateful").
	ID string
	// Devices and Functional count the population and how many passed the
	// functionality test.
	Devices, Functional int
	// Failures histograms device.FailureStage over the population
	// ("ok", "no-ra", "data-stalled", ...).
	Failures map[string]int
	// FailedDevices lists the non-functional device names in registry
	// order (the report cross-references profiles with them).
	FailedDevices []string
	// Diagnostics carried over from the RunResult.
	FramesDelivered, FramesDropped, Retransmits, PTBSent, ServiceDrops int
}

// ResilienceProfile is the full Table 2 grid under one impairment profile.
type ResilienceProfile struct {
	Profile  faults.Profile
	ByConfig []ResilienceConfig
	// FunctionalTotal sums functional device-runs across the grid.
	FunctionalTotal int
}

// ResilienceReport is the artifact of the impairment-grid experiment: the
// six connectivity configurations re-run under each fault profile.
type ResilienceReport struct {
	// Devices is the per-config population size.
	Devices int
	// Profiles holds one grid per impairment profile, in the order given.
	Profiles []*ResilienceProfile
}

// Config returns the outcome for (profile, config id), or nil.
func (r *ResilienceReport) Config(profile, id string) *ResilienceConfig {
	for _, p := range r.Profiles {
		if p.Profile.Name != profile {
			continue
		}
		for i := range p.ByConfig {
			if p.ByConfig[i].ID == id {
				return &p.ByConfig[i]
			}
		}
	}
	return nil
}

// RunResilience re-runs the Table 2 connectivity grid under each fault
// profile (faults.Grid() when profiles is empty) and reports per-profile
// functionality and failure modes. Each profile gets a fresh study built
// from opts, so impairment in one profile cannot leak state into another;
// the whole experiment is deterministic in (opts, profiles). Profiles run
// in the order given, each grid on the Table 2 engine with opts.Workers
// workers, all of them over opts.World and one environment pool. The grid
// always streams: opts.Capture and opts.Observe are ignored.
func RunResilience(opts StudyOptions, profiles ...faults.Profile) (*ResilienceReport, error) {
	return RunResilienceContext(context.Background(), opts, profiles...)
}

// RunResilienceContext is RunResilience with cancellation: ctx is checked
// before each profile's grid and between its experiments, and a cancelled
// run returns ctx.Err() with no report.
func RunResilienceContext(ctx context.Context, opts StudyOptions, profiles ...faults.Profile) (*ResilienceReport, error) {
	if len(profiles) == 0 {
		profiles = faults.Grid()
	}
	// The grid reads stack and router state (failure stages, drop and
	// retransmit counters), never frames: no Capture is materialized and
	// no analysis tap runs.
	opts.Capture = CaptureNone
	opts.Observe = nil
	// One immutable world for the whole grid: every profile's study shares
	// the population, plans, and primed cloud registry, and the pool hands
	// each profile the environments the previous one warmed.
	if opts.Pool == nil {
		opts.Pool = NewEnvPool()
	}
	rep := &ResilienceReport{Devices: len(opts.World.Profiles)}
	for _, p := range profiles {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		po, err := runResilienceProfile(ctx, opts, p)
		if err != nil {
			return nil, err
		}
		rep.Profiles = append(rep.Profiles, po)
	}
	return rep, nil
}

// runResilienceProfile runs the full Table 2 grid under one fault profile
// on a study of its own and folds each run's diagnosis into the grid.
func runResilienceProfile(ctx context.Context, opts StudyOptions, p faults.Profile) (*ResilienceProfile, error) {
	fp := p
	opts.Faults = &fp
	st := NewStudyWith(opts)
	began := st.Clock.Now()
	if err := st.runConnectivity(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("resilience %s: %w", p.Name, err)
	}
	po := &ResilienceProfile{Profile: p}
	for _, res := range st.Results {
		rc := ResilienceConfig{
			ID:              res.Config.ID,
			Devices:         len(st.World.Profiles),
			Failures:        map[string]int{},
			FramesDelivered: res.FramesDelivered,
			FramesDropped:   res.FramesDropped,
			Retransmits:     res.Retransmits,
			PTBSent:         res.PTBSent,
			ServiceDrops:    res.ServiceDrops,
		}
		for _, prof := range st.World.Profiles {
			if stage, failed := res.FailureStages[prof.Name]; failed {
				rc.Failures[stage]++
				rc.FailedDevices = append(rc.FailedDevices, prof.Name)
			} else {
				rc.Failures["ok"]++
				rc.Functional++
			}
		}
		po.ByConfig = append(po.ByConfig, rc)
		po.FunctionalTotal += rc.Functional
	}
	telemetry.Emit(st.Progress, telemetry.Event{
		Scope:   "resilience",
		ID:      p.Name,
		Detail:  fmt.Sprintf("%d/%d device-runs functional", po.FunctionalTotal, len(st.World.Profiles)*len(Configs)),
		Elapsed: st.Clock.Now().Sub(began),
	})
	return po, nil
}
