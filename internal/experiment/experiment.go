// Package experiment orchestrates the paper's methodology (§4): the six
// connectivity experiments of Table 2 over the simulated testbed, the
// functionality tests, and the two active experiments (DNS AAAA queries
// and port scans).
package experiment

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"v6lab/internal/cloud"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/faults"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
	"v6lab/internal/pcapio"
	"v6lab/internal/router"
	"v6lab/internal/telemetry"
	"v6lab/internal/world"
)

// Config is one connectivity experiment.
type Config struct {
	// ID is a short slug ("ipv6-only-stateful").
	ID string
	// Title is the paper's name for the run.
	Title string
	// Router selects the services dnsmasq would run (Table 2 columns).
	Router router.Config
	// Mode is the device-facing stack mode.
	Mode device.Mode
	// V6Seq numbers the v6-enabled experiments (for address rotation
	// scheduling); -1 when IPv6 is off.
	V6Seq int
}

// Configs lists the six experiments of Table 2, in execution order.
var Configs = []Config{
	{
		ID: "ipv4-only", Title: "IPv4-only",
		Router: router.Config{Name: "ipv4-only", IPv4: true},
		Mode:   device.ModeV4Only, V6Seq: -1,
	},
	{
		ID: "ipv6-only", Title: "IPv6-only",
		Router: router.Config{Name: "ipv6-only", IPv6: true, StatelessDHCPv6: true},
		Mode:   device.ModeV6Only, V6Seq: 0,
	},
	{
		ID: "ipv6-only-rdnss", Title: "IPv6-only (RDNSS-only)",
		Router: router.Config{Name: "ipv6-only-rdnss", IPv6: true},
		Mode:   device.ModeV6Only, V6Seq: 1,
	},
	{
		ID: "ipv6-only-stateful", Title: "IPv6-only (stateful)",
		Router: router.Config{Name: "ipv6-only-stateful", IPv6: true, StatelessDHCPv6: true, StatefulDHCPv6: true},
		Mode:   device.ModeV6Only, V6Seq: 2,
	},
	{
		ID: "dual-stack", Title: "Dual-stack",
		Router: router.Config{Name: "dual-stack", IPv4: true, IPv6: true, StatelessDHCPv6: true},
		Mode:   device.ModeDual, V6Seq: 3,
	},
	{
		ID: "dual-stack-stateful", Title: "Dual-stack (stateful)",
		Router: router.Config{Name: "dual-stack-stateful", IPv4: true, IPv6: true, StatelessDHCPv6: true, StatefulDHCPv6: true},
		Mode:   device.ModeDual, V6Seq: 4,
	},
}

// configIndex maps experiment IDs to their position in Configs, built once
// at init so ConfigByID is a map lookup instead of a linear scan.
var configIndex = func() map[string]int {
	m := make(map[string]int, len(Configs))
	for i, c := range Configs {
		m[c.ID] = i
	}
	return m
}()

// ConfigByID returns the Table 2 experiment config with the given ID.
func ConfigByID(id string) (Config, bool) {
	i, ok := configIndex[id]
	if !ok {
		return Config{}, false
	}
	return Configs[i], true
}

// CapturePolicy selects whether an experiment buffers its frames into a
// pcap Capture or streams them straight into an analysis observer.
type CapturePolicy int

const (
	// CaptureFull, the zero value, buffers every delivered frame into a
	// pcapio.Capture (the tcpdump-equivalent record pcap artifacts are
	// written from).
	CaptureFull CapturePolicy = iota
	// CaptureNone materializes no Capture at all: frames are parsed once
	// at delivery by the study's streaming Observer and the bytes are
	// never retained. Requires an ObserverFactory.
	CaptureNone
)

// Observer is the experiment-facing half of a streaming analysis sink: a
// delivery tap that also reports how many frames it consumed. The
// analysis package owns the concrete type (and its Finalize); experiment
// only wires it onto the switch, which keeps the import direction
// analysis → experiment.
type Observer interface {
	netsim.Tap
	Frames() int
}

// ObserverFactory builds one streaming Observer per experiment run.
// Factories must return observers that are independent across calls: each
// run gets its own (runs on different workers are concurrent).
type ObserverFactory func(cfg Config, st *Study) Observer

// RunResult captures everything one experiment produced.
type RunResult struct {
	Config Config
	// Capture is the tcpdump-equivalent record of every LAN frame; nil
	// when the study ran CaptureNone.
	Capture *pcapio.Capture
	// Observed is the streaming observer that consumed the run's frames
	// under CaptureNone (nil on the buffered path). It is an opaque
	// handle here; the analysis package finalizes it.
	Observed Observer
	// Functional maps device name to the outcome of its functionality
	// test in this experiment.
	Functional map[string]bool
	// FailureStages maps each non-functional device's name to the earliest
	// broken stage of its configuration→DNS→data funnel
	// (device.Stack.FailureStage), diagnosed at the end of the run.
	FailureStages map[string]string
	// Neighbors is the router's IPv6 neighbor table at the end of the run
	// (the port-scan address source, §4.3).
	Neighbors map[netip.Addr]packet.MAC
	// Leases4 maps device MACs to their DHCPv4 addresses.
	Leases4 map[packet.MAC]netip.Addr
	// FramesDelivered counts L2 deliveries (a capacity diagnostic).
	FramesDelivered int
	// FramesDropped counts frames the installed impairment swallowed
	// (always 0 on a clean network).
	FramesDropped int
	// Retransmits counts the retry transmissions devices made to recover
	// from impairment.
	Retransmits int
	// PTBSent counts ICMPv6 Packet-Too-Big errors the clamped tunnel
	// emitted.
	PTBSent int
	// ServiceDrops counts router service messages (RA / DHCPv6 / DNS
	// replies) the fault schedule suppressed.
	ServiceDrops int
}

// Frames reports how many frames the run recorded for analysis: the
// buffered capture's length, or the streaming observer's count, or (with
// neither attached) the raw delivery count.
func (r *RunResult) Frames() int {
	switch {
	case r.Capture != nil:
		return r.Capture.Len()
	case r.Observed != nil:
		return r.Observed.Frames()
	}
	return r.FramesDelivered
}

// AAAAResult records the active DNS experiment's verdict for one domain.
type AAAAResult struct {
	Name    string
	HasAAAA bool
	Party   cloud.Party
}

// Study holds the full reproduction state: devices, cloud, experiment
// results, and active-measurement outputs.
type Study struct {
	// World is the immutable half of the study: population, plans, primed
	// cloud registry, MAC index.
	World *world.World

	Stacks []*device.Stack
	Cloud  *cloud.Cloud
	Clock  *netsim.Clock

	// MACToDevice resolves capture frames back to device identities; it
	// aliases World.MACToDevice.
	MACToDevice map[packet.MAC]*device.Profile

	Results []*RunResult
	// ActiveDNS holds the §4.3 active AAAA query results per domain.
	ActiveDNS map[string]AAAAResult
	// Scan holds the port-scan findings.
	Scan *ScanReport

	// MaxFramesPerRun bounds each experiment's frame deliveries.
	MaxFramesPerRun int

	// Capture selects frame buffering per run. CaptureNone runs feed the
	// Observe factory's streaming sink instead — or, with no factory,
	// attach no analysis tap at all (aggregate-only runs).
	Capture CapturePolicy
	// Observe, when non-nil, builds the streaming analysis sink each
	// CaptureNone run feeds at delivery time. Ignored on buffered runs
	// (the capture is the analysis source there; attaching both would
	// parse every frame twice for nothing).
	Observe ObserverFactory

	// Workers bounds the worker pool the connectivity experiments (and the
	// analysis extraction) run on; values below 1 mean one worker. See
	// parallel.go for the byte-identity guarantee.
	Workers int

	// Faults, when non-nil, impairs every experiment: the link model is
	// installed on the switch and the service-fault schedule on the
	// router, and the retry passes run between phases. Nil (the default)
	// is the perfect network and leaves every run byte-identical to a
	// study built without fault support.
	Faults *faults.Profile

	// Progress, when non-nil, receives a completion event per experiment
	// (and per firewall policy). The event stream is completion-ordered —
	// a live view, deliberately outside the deterministic snapshot.
	Progress telemetry.Sink

	// tm caches the pre-resolved instruments of StudyOptions.Telemetry;
	// nil runs fully uninstrumented.
	tm *studyMetrics

	// net is the study's recycled L2 switch (see network); never nil
	// after construction.
	net *netsim.Network
	// pool, when non-nil, recycles whole isolated environments across
	// Table 2 runs and across studies over the same World.
	pool *EnvPool
}

// StudyOptions parameterizes testbed construction. World is required;
// every other zero field selects a default: the paper's capture start
// time, the default frame budget, buffered capture, one worker. Unless
// Pool or Network deliberately share state, every mutable piece the study
// touches is instantiated per call — two studies built from such options
// share no mutable state and may run on concurrent goroutines. (The World
// is read-only and therefore concurrency-safe; a shared Network is not.)
type StudyOptions struct {
	// World is the prebuilt immutable world the study runs over: its
	// population, workload plans (which scale with the population), and
	// primed cloud registry. It may be shared read-only with any number of
	// other studies; the study serves traffic through a Clone of its cloud
	// (private query counters), so sharing is race-free.
	World *world.World
	// Pool, when non-nil, recycles isolated Table 2 run environments
	// (stacks, switch, clock, cloud clone) across studies. Environments
	// are keyed by World identity, so a pool only pays off when studies
	// share a World; mismatched environments are simply not reused.
	Pool *EnvPool
	// Network, when non-nil, is the L2 switch (with its frame arena) the
	// study runs on; the study resets it before every run. Sharing one is
	// only legal across *sequential* studies — one fleet worker's homes,
	// never two concurrent ones. Nil means a private switch.
	Network *netsim.Network
	// Start is the simulated capture start time; the zero value means the
	// paper's 2024-04-05 09:00 UTC.
	Start time.Time
	// MaxFramesPerRun bounds each experiment's frame deliveries; 0 means
	// the default 3,000,000.
	MaxFramesPerRun int
	// Faults installs a deterministic impairment profile on every
	// experiment the study runs. Inactive profiles (see faults.Profile)
	// are ignored; nil means a perfect network.
	Faults *faults.Profile
	// Capture selects frame buffering per run; the zero value is
	// CaptureFull.
	Capture CapturePolicy
	// Observe builds the streaming analysis sink for CaptureNone runs;
	// see Study.Observe.
	Observe ObserverFactory
	// Workers bounds the pool the six connectivity experiments run on;
	// values below 1 mean one worker. Results are byte-identical for
	// every value (parallel.go).
	Workers int
	// Telemetry, when non-nil, instruments every subsystem the study
	// touches into the given registry. Studies sharing a registry (fleet
	// homes, resilience profiles) accumulate into the same counters.
	Telemetry *telemetry.Registry
	// Progress, when non-nil, receives per-unit completion events.
	Progress telemetry.Sink
}

// NewStudy builds the testbed: 93 device stacks, their workload plans, and
// a cloud primed with every planned destination domain.
func NewStudy() *Study {
	return NewStudyWith(StudyOptions{World: world.Build(nil)})
}

// NewStudyWith builds a testbed over opts.World; see StudyOptions for the
// defaults of every other field.
func NewStudyWith(opts StudyOptions) *Study {
	start := opts.Start
	if start.IsZero() {
		start = time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC)
	}
	maxFrames := opts.MaxFramesPerRun
	if maxFrames == 0 {
		maxFrames = 3_000_000
	}
	w := opts.World
	st := &Study{
		World: w,
		// Private query counters over the shared registry.
		Cloud:           w.Cloud.Clone(),
		Clock:           netsim.NewClock(start),
		MACToDevice:     w.MACToDevice,
		ActiveDNS:       map[string]AAAAResult{},
		MaxFramesPerRun: maxFrames,
		Capture:         opts.Capture,
		Observe:         opts.Observe,
		Workers:         opts.Workers,
		Progress:        opts.Progress,
		net:             opts.Network,
		pool:            opts.Pool,
	}
	if st.net == nil {
		st.net = netsim.NewNetwork(nil)
	}
	if opts.Telemetry != nil {
		st.tm = newStudyMetrics(opts.Telemetry)
	}
	if opts.Faults != nil && opts.Faults.Active() {
		fp := *opts.Faults
		if fp.Seed == 0 {
			fp.Seed = 1
		}
		st.Faults = &fp
	}
	for i, p := range w.Profiles {
		st.Stacks = append(st.Stacks, device.NewStack(p, w.Plans[i], i, w.Prefixes))
	}
	return st
}

// RunAll executes the six connectivity experiments on a pool of Workers
// environments, then the active DNS queries and the port scans. Results
// are byte-identical for every worker count.
func (st *Study) RunAll() error {
	return st.RunAllContext(context.Background())
}

// RunAllContext is RunAll with cancellation: ctx is checked between
// experiments (and before the active phases), so a cancelled study
// returns ctx.Err() promptly without appending partial results.
func (st *Study) RunAllContext(ctx context.Context) error {
	if err := st.runConnectivity(ctx); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st.RunActiveDNS()
	var err error
	st.Scan, err = st.RunPortScan()
	return err
}

// RunExperiment performs one Table 2 run: reboot everything, configure,
// let devices register with their clouds, run the workload, and apply the
// functionality test.
func (st *Study) RunExperiment(cfg Config) (*RunResult, error) {
	began := st.Clock.Now()
	net := st.network()
	// At most one analysis tap per run: the buffered capture (default) or
	// the streaming observer — never both, so every frame is recorded or
	// parsed for analysis exactly once. CaptureNone without an observer
	// attaches nothing: aggregate-only callers (the resilience grid, the
	// adversary campaign) read stack and router state, not frames, and
	// skip the per-frame tap cost entirely.
	var cap *pcapio.Capture
	var obs Observer
	if st.Capture == CaptureNone {
		if st.Observe != nil {
			obs = st.Observe(cfg, st)
			net.AddTap(obs)
		}
	} else {
		cap = &pcapio.Capture{}
		net.AddTap(cap)
	}

	// Reboot, configure, announce, then the devices talk to their
	// destinations. Each experiment's link faults are sub-seeded by its ID.
	rt := router.New(cfg.Router, st.Cloud)
	st.attach(net, cfg, rt, st.Faults, cfg.ID)
	if err := st.boot(net, rt); err != nil {
		return nil, err
	}
	if err := st.workload(net, rt); err != nil {
		return nil, err
	}

	// Functionality test (§4.1).
	res := &RunResult{
		Config:          cfg,
		Capture:         cap,
		Observed:        obs,
		Functional:      map[string]bool{},
		FailureStages:   map[string]string{},
		Neighbors:       rt.Neighbors,
		Leases4:         map[packet.MAC]netip.Addr{},
		FramesDelivered: net.Delivered(),
	}
	for _, s := range st.Stacks {
		ok := s.Functional()
		res.Functional[s.Prof.Name] = ok
		if !ok {
			res.FailureStages[s.Prof.Name] = s.FailureStage()
		}
		if lease, ok := rt.LeaseFor(s.MAC); ok {
			res.Leases4[s.MAC] = lease
		}
		res.Retransmits += s.Retransmits()
	}
	if st.Faults != nil {
		res.FramesDropped = net.Dropped()
		res.PTBSent = rt.PTBSent
		res.ServiceDrops = rt.Faults.RAsDropped + rt.Faults.DHCPv6Dropped + rt.Faults.AAAADropped
	}
	// Fold before the inter-experiment hour so elapsed reflects only
	// simulated time this run consumed, whichever environment ran it.
	elapsed := st.Clock.Now().Sub(began)
	st.end(rt)
	if st.tm != nil {
		st.tm.foldTest(cfg, st.Stacks, elapsed)
		// Capture-path accounting: atomic adds, so the fold is identical
		// across engines and worker counts.
		if cap != nil {
			st.tm.framesBuffered.Add(uint64(cap.Len()))
			st.tm.captureBytes.Add(int64(cap.Bytes()))
		}
		if obs != nil {
			st.tm.framesStreamed.Add(uint64(obs.Frames()))
		}
	}
	functional := 0
	for _, ok := range res.Functional {
		if ok {
			functional++
		}
	}
	telemetry.Emit(st.Progress, telemetry.Event{
		Scope:   "experiment",
		ID:      cfg.ID,
		Detail:  fmt.Sprintf("%d/%d devices functional, %d frames", functional, len(st.Stacks), res.Frames()),
		Elapsed: elapsed,
	})
	st.Clock.Advance(time.Hour)
	return res, nil
}

// RunActiveDNS performs the §4.3 active measurement: AAAA queries for
// every destination domain observed across the experiments. (The planner's
// spec list is exactly the set of names the captures contain.)
func (st *Study) RunActiveDNS() {
	for _, pl := range st.World.Plans {
		for _, sp := range pl.Specs {
			if _, done := st.ActiveDNS[sp.Name]; done {
				continue
			}
			answers, rcode := st.Cloud.Resolve(sp.Name, dnsmsg.TypeAAAA)
			st.ActiveDNS[sp.Name] = AAAAResult{
				Name:    sp.Name,
				HasAAAA: rcode == dnsmsg.RCodeSuccess && len(answers) > 0,
				Party:   sp.Party,
			}
		}
	}
}

// Result returns the RunResult for an experiment ID, or nil.
func (st *Study) Result(id string) *RunResult {
	for _, r := range st.Results {
		if r.Config.ID == id {
			return r
		}
	}
	return nil
}

// DeviceByName finds a profile.
func (st *Study) DeviceByName(name string) *device.Profile {
	return device.Find(st.World.Profiles, name)
}
