package experiment

import (
	"time"

	"v6lab/internal/device"
	"v6lab/internal/faults"
	"v6lab/internal/netsim"
	"v6lab/internal/router"
)

// The home lifecycle (§4.1). Every way a home comes up — a Table 2 run,
// the §4.3 port scan, each WAN firewall scan, every timeline home — is
// one sequence: network (a reset switch), attach, boot, optionally
// workload, and end, which folds the home's counters once. The callers
// differ only in what they plug in (taps, a firewall, the scanner) and
// what they do once the home is up.
//
// Only the Table 2 runs and timeline homes are impaired. The port scan
// and the firewall scans attach without a fault profile even in a
// faulted study: they measure exposure, not resilience, and boot on a
// clean network by design.

// network returns the study's recycled switch, reset onto the study
// clock and wired to the study's instruments (or to none), and zeroes the
// cloud's query counters, so they hold exactly what this home serves —
// even when an aborted home left counts behind in a pooled environment.
// Reusing one switch across consecutive runs (the six Table 2
// experiments, a fleet worker's homes) means it reaches a steady state
// where delivering a full run's traffic allocates nothing. The reset
// invalidates every frame the previous run's arena handed out — callers
// retain only capture copies and value types, which is the Reset contract
// that makes recycling safe.
func (st *Study) network() *netsim.Network {
	st.net.Reset(st.Clock)
	clear(st.Cloud.Queries)
	var m *netsim.Metrics
	if st.tm != nil {
		m = st.tm.net
	}
	st.net.SetMetrics(m)
	return st.net
}

// lanHost is anything that plugs into the home's switch.
type lanHost interface{ Attach(*netsim.Network) }

// attach plugs the home into net: the router first, then the extra LAN
// hosts in order, then every stack reset to cfg. Attach order is delivery
// order, so it must stay router → extras → stacks. A non-nil fp impairs
// the home: the link model, sub-seeded by linkKey so different runs see
// different (but reproducible) frame fates from one profile seed, goes on
// the switch and the service-fault schedule on the router.
func (st *Study) attach(net *netsim.Network, cfg Config, rt *router.Router, fp *faults.Profile, linkKey string, extra ...lanHost) {
	rt.Attach(net)
	if fp != nil {
		net.SetImpairment(faults.NewLink(*fp, faults.SubSeed(fp.Seed, linkKey)))
		rt.Faults = faults.NewServices(*fp, st.Clock)
	}
	for _, h := range extra {
		h.Attach(net)
	}
	for _, s := range st.Stacks {
		s.Attach(net)
		s.Reset(cfg.Mode, cfg.V6Seq)
	}
}

// boot reboots the attached home: the router advertises once (dnsmasq
// sends periodic RAs) while the devices boot and solicit, then DAD
// completes and the addresses are announced. Configuration retries run
// only on a home this lifecycle impaired (rt.Faults set by attach).
func (st *Study) boot(net *netsim.Network, rt *router.Router) error {
	rt.SendRouterAdvert()
	for _, s := range st.Stacks {
		s.Boot()
	}
	if _, err := net.Run(st.MaxFramesPerRun); err != nil {
		return err
	}
	if rt.Faults != nil {
		if err := st.retryRounds(net, (*device.Stack).RetryConfig); err != nil {
			return err
		}
	}
	for _, s := range st.Stacks {
		s.Announce()
	}
	_, err := net.Run(st.MaxFramesPerRun)
	return err
}

// workload lets every device talk to its destinations, retrying under
// impairment as boot does.
func (st *Study) workload(net *netsim.Network, rt *router.Router) error {
	for _, s := range st.Stacks {
		s.RunWorkload(st.Cloud)
	}
	if _, err := net.Run(st.MaxFramesPerRun); err != nil {
		return err
	}
	if rt.Faults != nil {
		return st.retryRounds(net, (*device.Stack).RetryWorkload)
	}
	return nil
}

// end closes a home that ran to completion: its router, firewall,
// conntrack, device-retry, and cloud-query counters fold into the study's
// telemetry, once. Every lifecycle caller ends its home here on success,
// so every engine counts the same layers.
func (st *Study) end(rt *router.Router) {
	if st.tm != nil {
		st.tm.fold(rt, st.Stacks, st.Cloud)
	}
}

// RunHome is the lifecycle for callers outside this package: it brings
// the study's home up under cfg with rt as its router — network, attach,
// and boot, impaired by the study's fault profile (its link sub-seeded by
// linkKey) — runs body on the booted home, and ends it. The timeline's
// event loop is such a body.
func (st *Study) RunHome(cfg Config, rt *router.Router, linkKey string, body func() error) error {
	net := st.network()
	st.attach(net, cfg, rt, st.Faults, linkKey)
	if err := st.boot(net, rt); err != nil {
		return err
	}
	if err := body(); err != nil {
		return err
	}
	st.end(rt)
	return nil
}

// retryRounds models client retransmit timers under impairment: advance
// the clock past a backoff interval, let every stack retransmit whatever
// went unanswered, and drain the network; repeat until a round sends
// nothing. The per-stack retry caps bound it, with 4 rounds (the ballpark
// of RFC 4861's MAX_RTR_SOLICITATIONS) as a backstop.
func (st *Study) retryRounds(net *netsim.Network, retry func(*device.Stack) int) error {
	backoff := 4 * time.Second
	for round := 0; round < 4; round++ {
		st.Clock.Advance(backoff)
		backoff *= 2
		sent := 0
		for _, s := range st.Stacks {
			sent += retry(s)
		}
		if sent == 0 {
			return nil
		}
		if st.tm != nil {
			st.tm.retryRounds.Inc()
		}
		if _, err := net.Run(st.MaxFramesPerRun); err != nil {
			return err
		}
	}
	return nil
}
