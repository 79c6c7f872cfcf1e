package experiment

import (
	"context"
	"fmt"
	"time"

	"v6lab/internal/device"
	"v6lab/internal/pool"
)

// The Table 2 engine.
//
// The six Table 2 experiments are fully independent: each one builds its
// own switch and router, reboots every device stack, and the capture it
// produces depends only on (profiles, plans, config, fault profile) —
// never on absolute time, because no stack or router service reads the
// clock into frame content; the clock only timestamps capture records
// and paces the fault schedule relative to the run's own start. So every
// study, at every worker count and under any fault profile, runs the
// grid on a bounded pool of environments and merges the outcomes in
// config order. Two pieces of state would otherwise thread the runs
// together:
//
//   - the clock: pcap timestamps are cumulative, experiment i starting
//     where experiment i-1 left off. Every run starts its environment's
//     clock at a common base; the merge rebases experiment i's record
//     times by the summed elapsed time of experiments 0..i-1 and leaves
//     the study clock at base + the total. time.Time.Add is exact, so the
//     timeline is the same whichever environment ran what.
//   - the DHCPv4 transaction counter: Boot increments it once per
//     v4-enabled experiment. beginRun seeds it absolutely with the number
//     of prior v4-enabled configs, so experiment i's XIDs never depend on
//     which environment runs it or what ran there before. Fault-driven
//     retries advance it further within a run only.
//
// The cloud's domain registry is immutable while experiments run; its
// only run-time mutation is the per-type query diagnostic counter, so
// each environment serves through a Clone sharing the registry with
// private counters, which each run's end folds into the shared telemetry
// by atomic addition — the same totals whichever environment ran what.
//
// Merging in config order makes the Results slice — and therefore
// FullReport and all six pcaps — byte-identical for every worker count.

// runConnectivity executes the Table 2 grid on a pool of min(Workers, 6)
// workers (at least one) and merges the outcomes in config order.
func (st *Study) runConnectivity(ctx context.Context) error {
	start := st.Clock.Now()
	type outcome struct {
		res     *RunResult
		elapsed time.Duration
	}
	outcomes := make([]outcome, len(Configs))
	// One environment per worker, reused across its jobs (and — via the
	// pool — across studies). beginRun's absolute clock and XID seeding is
	// what makes the reuse byte-invisible. Workers acquire concurrently;
	// every environment is released once the pool has drained.
	envs := make([]*Study, len(Configs))
	err := pool.Run(ctx, len(Configs), st.Workers, func(w int) *Study {
		envs[w] = st.acquireEnv(w, start)
		return envs[w]
	}, func(env *Study, i int) error {
		env.beginRun(start, Configs[:i])
		res, err := env.RunExperiment(Configs[i])
		if err != nil {
			return fmt.Errorf("experiment %s: %w", Configs[i].ID, err)
		}
		outcomes[i] = outcome{res: res, elapsed: env.Clock.Now().Sub(start)}
		return nil
	})
	for _, env := range envs {
		if env != nil {
			st.releaseEnv(env)
		}
	}
	// A cancelled or failed pool leaves the study with no partial results
	// appended.
	if err != nil {
		return err
	}
	var offset time.Duration
	for i := range Configs {
		out := outcomes[i]
		// Rebase this capture from the common base onto the study
		// timeline: everything experiments 0..i-1 consumed comes first.
		// Streaming runs have nothing to rebase — analysis never reads
		// record times, only pcap artifacts do, and those need a capture.
		if c := out.res.Capture; c != nil {
			recs := c.Records
			for j := range recs {
				recs[j].Time = recs[j].Time.Add(offset)
			}
		}
		offset += out.elapsed
		st.Results = append(st.Results, out.res)
	}
	// Leave the study clock and stacks past all six runs: the port scan
	// draws its timestamps and next DHCPv4 XID from them.
	st.Clock.Reset(start.Add(offset))
	st.seedDHCP4(Configs)
	return nil
}

// seedDHCP4 advances every stack's DHCPv4 transaction counter past the
// given configs, as if their Boots had already happened.
func (st *Study) seedDHCP4(prior []Config) {
	n := 0
	for _, cfg := range prior {
		if cfg.Mode != device.ModeV6Only {
			n++
		}
	}
	for _, s := range st.Stacks {
		s.SeedDHCP4Transactions(n)
	}
}
