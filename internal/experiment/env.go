package experiment

import (
	"sync"
	"time"

	"v6lab/internal/world"
)

// EnvPool recycles isolated Table 2 run environments — device stacks,
// switch, clock, cloud clone — across studies. Building one environment
// costs ~93 stacks plus a primed switch arena, so a warm pool turns the
// per-worker setup of every subsequent study over the same World into a
// handful of map clears.
//
// Environments are keyed by World identity (pointer equality): a pooled
// environment is only handed to a study whose World is the very object it
// was built from, so stacks, plans, and the cloud registry are guaranteed
// to match. Releasing and acquiring are concurrency-safe; the environments
// themselves are single-threaded.
type EnvPool struct {
	mu   sync.Mutex
	envs []*Study
}

// maxIdleEnvs bounds how many idle environments a pool retains; beyond it,
// released environments are dropped for the GC. Six covers the widest
// useful study fan-out (one per Table 2 config) with room for a second
// world's worth.
const maxIdleEnvs = 12

// NewEnvPool returns an empty environment pool.
func NewEnvPool() *EnvPool { return &EnvPool{} }

// get pops an idle environment built over exactly this world, or nil.
func (p *EnvPool) get(w *world.World) *Study {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.envs) - 1; i >= 0; i-- {
		if env := p.envs[i]; env.World == w {
			p.envs = append(p.envs[:i], p.envs[i+1:]...)
			return env
		}
	}
	return nil
}

// put returns an idle environment to the pool.
func (p *EnvPool) put(env *Study) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.envs) < maxIdleEnvs {
		p.envs = append(p.envs, env)
	}
}

// Idle reports how many environments are currently parked in the pool.
func (p *EnvPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.envs)
}

// acquireEnv returns worker w's environment. Without a pool, worker 0 runs
// on the study itself, so a one-worker study builds no second set of
// stacks or switch; every other worker takes a warm environment from the
// study's pool when one is parked there, or builds a fresh one over the
// same World. Either way the environment is adopted into this study —
// budget, capture policy, faults, telemetry wiring — but keeps its own
// stacks, clock, switch, and cloud clone.
func (st *Study) acquireEnv(w int, base time.Time) *Study {
	if st.pool == nil && w == 0 {
		return st
	}
	var env *Study
	if st.pool != nil {
		env = st.pool.get(st.World)
	}
	if env == nil {
		env = NewStudyWith(StudyOptions{World: st.World, Start: base})
	}
	env.MaxFramesPerRun = st.MaxFramesPerRun
	env.Capture = st.Capture
	env.Observe = st.Observe
	env.Faults = st.Faults
	// The environments share the study's instruments and sink: every
	// home's fold is an atomic addition, so it is order-independent.
	env.Progress = st.Progress
	env.tm = st.tm
	return env
}

// releaseEnv parks a worker's environment for reuse by later studies (or
// drops it when the study has no pool).
func (st *Study) releaseEnv(env *Study) {
	if st.pool != nil {
		st.pool.put(env)
	}
}

// beginRun readies a (possibly reused) environment for one experiment:
// rewind the private clock to the common base and seed the DHCPv4
// transaction counters with the prior configs' boot count. Both writes
// are absolute, which is what makes environment reuse invisible — a
// warm environment enters RunExperiment in the same state a fresh one
// would.
func (env *Study) beginRun(base time.Time, prior []Config) {
	env.Clock.Reset(base)
	env.seedDHCP4(prior)
}
