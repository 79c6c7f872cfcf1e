package main

import (
	"fmt"
	"io"
	"net/netip"
	"time"

	"v6lab"
	"v6lab/internal/analysis"
	"v6lab/internal/conntrack"
	"v6lab/internal/device"
	"v6lab/internal/dnsmsg"
	"v6lab/internal/experiment"
	"v6lab/internal/fleet"
	"v6lab/internal/netsim"
	"v6lab/internal/packet"
	"v6lab/internal/pcapio"
	"v6lab/internal/router"
	"v6lab/internal/telemetry"
	"v6lab/internal/tlssim"
	"v6lab/internal/world"
)

const (
	// corpusStride keeps every corpusStride-th delivered frame of the
	// probe study for the replays; corpusCap bounds each config's share.
	corpusStride = 4
	corpusCap    = 20000
	// probeUnit is the unit identifier of the probe's spans.
	probeUnit = -2
)

func configIDs() []string {
	ids := make([]string, len(experiment.Configs))
	for i, c := range experiment.Configs {
		ids[i] = c.ID
	}
	return ids
}

// measureLayers is the traced run: an untraced half and a traced half of
// the workload's loop, then the layer probe, then the per-layer metrics.
// Both halves count telemetry, so their throughput ratio is the cost of
// the spans alone.
func measureLayers(w io.Writer, wl workload, name string, d time.Duration, tr *tracer) result {
	untraced := runPhase(wl, d/2, nil, telemetry.NewRegistry())
	reg := telemetry.NewRegistry()
	traced := runPhase(wl, d/2, tr, reg)
	countSnapshot(traced.t, reg.Snapshot(time.Time{}))
	probe := newTally()
	runProbe(name, tr, probe)

	vals := layerValues(untraced, traced, probe)
	fmt.Fprintf(w, "unit=%s untraced: %g units in %.3f s; traced: %g units in %.3f s\n",
		wl.unit(), untraced.t.units, untraced.wall.Seconds(), traced.t.units, traced.wall.Seconds())
	for _, m := range perLayer {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.Name, vals[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "spans (self time = duration minus time covered by child spans):\n")
	for _, s := range summarize(tr.finished()) {
		fmt.Fprintf(w, "  span %-24s n=%-7d total=%-12v self=%v\n", s.Name, s.Count, s.Total.Round(time.Microsecond), s.Self.Round(time.Microsecond))
	}
	return finish(w, []*tally{untraced.t, traced.t, probe}, vals, perLayer)
}

// layerValues computes every perLayer metric. Counts per unit come from
// the traced half's telemetry; layer timings come from the traced half
// where the workload calls that layer itself, else from the probe.
func layerValues(untraced, traced phase, probe *tally) map[string]float64 {
	c := traced.t.counts
	units := max(traced.t.units, 1e-9)
	perUnit := func(names ...string) float64 {
		s := 0.0
		for _, n := range names {
			s += c["tm."+n]
		}
		return s / units
	}
	pick := func(name string) float64 {
		if xs := traced.t.samples[name]; len(xs) > 0 {
			return median(xs)
		}
		return median(probe.samples[name])
	}
	share := func(num, den float64) float64 { return ratio{Num: num, Den: den}.Value() }
	v := map[string]float64{
		"netsim.frames_per_unit":            perUnit("netsim_frames_switched_total"),
		"netsim.arena_bytes_per_frame":      share(c["tm.netsim_arena_bytes_total"], c["tm.netsim_frames_switched_total"]),
		"router.forwarded_per_unit":         perUnit("router_forwarded_v4_total", "router_forwarded_v6_total"),
		"router.nat44_per_unit":             perUnit("router_nat44_translations_total"),
		"conntrack.hit_ratio":               share(c["tm.conntrack_hits_total"], c["tm.conntrack_hits_total"]+c["tm.conntrack_misses_total"]),
		"firewall.dropped_in_per_unit":      perUnit("firewall_dropped_in_total"),
		"cloud.queries_per_unit":            perUnit("cloud_queries_total"),
		"analysis.frames_observed_per_unit": perUnit("analysis_frames_streamed_total", "analysis_frames_buffered_total"),
		"pcapio.bytes_retained_per_unit":    perUnit("pcapio_capture_bytes_retained"),
		"experiment.sim_s_per_unit":         perUnit("experiment_sim_elapsed_ms_total") / 1000,
		"runtime.gc_cpu_ratio":              share(untraced.gcCPU, untraced.totalCPU),
		"runtime.gc_cycles_per_unit":        float64(untraced.gcCycles) / max(untraced.t.units, 1e-9),
		"trace.overhead_ratio":              1 - traced.unitsPerS()/untraced.unitsPerS(),
	}
	for _, m := range perLayer {
		if _, ok := v[m.Name]; !ok {
			v[m.Name] = pick(m.Name)
		}
	}
	// Ratios over a layer the workload does not drive take the probe's
	// counts instead.
	counts := func(base string) map[string]float64 {
		if c[base] > 0 {
			return c
		}
		return probe.counts
	}
	dc := counts("device.tested")
	v["device.functional_ratio"] = share(dc["device.functional"], dc["device.tested"])
	sc := counts("server.jobs")
	v["server.cache_hit_ratio"] = share(sc["server.hits"], sc["server.jobs"])
	tc := counts("timeline.homedays")
	v["timeline.frames_per_homeday"] = share(tc["timeline.frames"], tc["timeline.homedays"])
	v["timeline.bursts_per_homeday"] = share(tc["timeline.bursts"], tc["timeline.homedays"])
	return v
}

// runProbe times each layer from outside: one serial study with spans
// around every Table 2 experiment (its frames recorded as the replay
// corpus), replays of those frames through each frame-level layer's
// entry point, world builds, and — for the layers the workload does not
// drive itself — a small fleet, a small timeline, and a few server jobs.
func runProbe(name string, tr *tracer, t *tally) {
	root := tr.begin("probe", 0, probeUnit)
	defer tr.end(root)

	w := probeWorldBuilds(tr, root, t)
	corpus := probeStudy(w, tr, root, t)
	replay(w, corpus, tr, root, t)
	if name != "fleet" {
		fw := newFleetWL(defaultSeed).(*fleetWL)
		fw.batch(0, t, tr, nil)
	}
	if name != "timeline" {
		tw := newTimelineWL(defaultSeed).(*timelineWL)
		tw.batch(0, t, tr, nil)
	}
	if name != "server" {
		probeServer(tr, t)
	}
}

// probeWorldBuilds times world.Build over the full registry and over
// fleet home populations, and returns a full-registry world.
func probeWorldBuilds(tr *tracer, parent int, t *tally) *world.World {
	var w *world.World
	for i := 0; i < 3; i++ {
		id := tr.begin("world.build", parent, probeUnit)
		start := time.Now()
		w = world.Build(nil)
		t.sample("world.build_ms", msSince(start))
		tr.end(id)
	}
	reg := device.Registry()
	cfg := fleet.Config{Seed: defaultSeed}
	for i := 0; i < 16; i++ {
		spec := cfg.SpecForIn(reg, i)
		profiles := make([]*device.Profile, len(spec.DeviceIndexes))
		for j, di := range spec.DeviceIndexes {
			profiles[j] = reg[di]
		}
		id := tr.begin("world.build_home", parent, probeUnit)
		start := time.Now()
		world.Build(profiles)
		t.sample("world.build_home_ms", msSince(start))
		tr.end(id)
	}
	return w
}

// timedObserver wraps the streaming analysis observer, timing each Add
// and keeping a strided sample of the frames for the replays.
type timedObserver struct {
	inner  *analysis.Observer
	addNS  time.Duration
	calls  int
	frames [][]byte
}

func (o *timedObserver) Add(ts time.Time, frame []byte) {
	start := time.Now()
	o.inner.Add(ts, frame)
	o.addNS += time.Since(start)
	if o.calls%corpusStride == 0 && len(o.frames) < corpusCap {
		o.frames = append(o.frames, append([]byte(nil), frame...))
	}
	o.calls++
}

func (o *timedObserver) Frames() int { return o.inner.Frames() }

// corpus is the probe study's recorded frames, per Table 2 config.
type corpus struct {
	cfgs   []experiment.Config
	frames [][][]byte
}

// probeStudy runs the full study serially through the streaming path,
// one span per Study.RunExperiment, and checks its report digest.
func probeStudy(w *world.World, tr *tracer, parent int, t *tally) *corpus {
	var obs []*timedObserver
	st := experiment.NewStudyWith(experiment.StudyOptions{
		World:   w,
		Capture: experiment.CaptureNone,
		Observe: func(cfg experiment.Config, st *experiment.Study) experiment.Observer {
			o := &timedObserver{inner: analysis.NewObserver(cfg.ID, cfg.Mode, st.MACToDevice)}
			obs = append(obs, o)
			return o
		},
	})
	c := &corpus{}
	var addNS time.Duration
	adds := 0
	funcs, devs := 0, 0
	for _, cfg := range experiment.Configs {
		id := tr.begin("experiment.run", parent, probeUnit)
		start := time.Now()
		res, err := st.RunExperiment(cfg)
		ms := msSince(start)
		tr.end(id)
		if err != nil {
			t.fail("probe study %s: %v", cfg.ID, err)
			return c
		}
		t.sample("experiment.run_ms", ms)
		t.sample("experiment.run_ms."+cfg.ID, ms)
		o := obs[len(obs)-1]
		id = tr.begin("analysis.finalize", parent, probeUnit)
		start = time.Now()
		o.inner.Finalize(res.Functional)
		t.sample("analysis.finalize_ms", msSince(start))
		tr.end(id)
		res.Observed = o.inner
		st.Results = append(st.Results, res)
		addNS += o.addNS
		adds += o.calls
		c.cfgs = append(c.cfgs, cfg)
		c.frames = append(c.frames, o.frames)
		for _, ok := range res.Functional {
			devs++
			if ok {
				funcs++
			}
		}
	}
	t.sample("analysis.observe_ns", float64(addNS)/float64(max(adds, 1)))
	t.count("device.functional", float64(funcs))
	t.count("device.tested", float64(devs))

	id := tr.begin("experiment.active_dns", parent, probeUnit)
	st.RunActiveDNS()
	tr.end(id)
	id = tr.begin("experiment.port_scan", parent, probeUnit)
	scan, err := st.RunPortScan()
	tr.end(id)
	if err != nil {
		t.fail("probe port scan: %v", err)
		return c
	}
	st.Scan = scan
	lab := v6lab.New()
	lab.Study = st
	id = tr.begin("analysis.from_study", parent, probeUnit)
	lab.Data = analysis.FromStudy(st)
	tr.end(id)
	start := time.Now()
	rep := renderFull(lab, tr, parent, probeUnit)
	t.sample("report.render_ms", msSince(start))
	if got := digest(rep); got != studyDigest {
		t.fail("probe study: fullreport sha256 %s, recorded %s", got, studyDigest)
		return c
	}
	t.done(1)
	return c
}

// replay times each frame-level layer's entry point over the corpus.
func replay(w *world.World, c *corpus, tr *tracer, parent int, t *tally) {
	var all [][]byte
	for _, fs := range c.frames {
		all = append(all, fs...)
	}
	if len(all) == 0 {
		t.fail("replay: empty corpus")
		return
	}
	// timeOps times fn, which makes n calls into layer name; a layer may
	// be timed over several batches, and its per-call figures are the
	// totals over all of them.
	timeOps := func(name string, n int, fn func()) {
		id := tr.begin("replay."+name, parent, probeUnit)
		a := allocObjects()
		start := time.Now()
		fn()
		el := time.Since(start)
		allocs := allocObjects() - a
		tr.endOps(id, n)
		t.count(name+".ns", float64(el))
		t.count(name+".allocs", float64(allocs))
		t.count(name+".ops", float64(n))
	}

	dec := packet.NewDecoder()
	timeOps("packet.parse", len(all), func() {
		for _, f := range all {
			dec.Parse(f)
		}
	})
	replaySerialize(all, timeOps, t)
	replayDeliver(w, all, timeOps, t)
	replayStacks(w, c, timeOps, t)
	replayWAN(w, all, timeOps)
	capt := &pcapio.Capture{}
	ts := time.Unix(0, 0)
	timeOps("pcapio.capture_add", len(all), func() {
		for _, f := range all {
			capt.Add(ts, f)
		}
	})

	perCall := func(name, what string) float64 {
		return ratio{Num: t.counts[name+"."+what], Den: t.counts[name+".ops"]}.Value()
	}
	for _, name := range []string{"packet.parse", "packet.serialize", "netsim.deliver", "device.handle",
		"router.handle", "conntrack.op", "cloud.handle", "dnsmsg.unpack", "tlssim.sni", "pcapio.capture_add"} {
		t.sample(name+"_ns", perCall(name, "ns"))
	}
	for _, name := range []string{"packet.parse", "device.handle", "router.handle"} {
		t.sample(name+"_allocs", perCall(name, "allocs"))
	}
}

type opTimer func(name string, n int, fn func())

// replaySerialize re-serializes each frame's parsed layers through one
// reused packet.Buffer, counting the calls whose backing array changed.
func replaySerialize(all [][]byte, timeOps opTimer, t *tally) {
	var stacks [][]packet.SerializableLayer
	for _, f := range all {
		if ls := serializable(packet.Parse(f)); ls != nil {
			stacks = append(stacks, ls)
		}
	}
	buf := packet.NewBuffer(128)
	reallocs, bytes, failed := 0, 0, 0
	var last *byte
	timeOps("packet.serialize", len(stacks), func() {
		for _, ls := range stacks {
			out, err := packet.SerializeInto(buf, ls...)
			if err != nil {
				failed++
				continue
			}
			bytes += len(out)
			full := out[:cap(out)]
			if end := &full[len(full)-1]; end != last {
				if last != nil {
					reallocs++
				}
				last = end
			}
		}
	})
	if failed > 0 {
		t.fail("packet.serialize: %d of %d frames failed to re-serialize", failed, len(stacks))
	}
	t.sample("packet.serialize_bytes", ratio{Num: float64(bytes), Den: float64(len(stacks))}.Value())
	t.sample("packet.serialize_realloc_ratio", ratio{Num: float64(reallocs), Den: float64(len(stacks))}.Value())
}

// serializable rebuilds a parsed frame's layer list for serialization,
// restoring the pseudo-header addresses decode leaves unset; nil when the
// frame did not decode cleanly.
func serializable(p *packet.Packet) []packet.SerializableLayer {
	if p.Err != nil || p.Ethernet == nil {
		return nil
	}
	src, dst := p.SrcIP(), p.DstIP()
	var ls []packet.SerializableLayer
	for _, l := range p.Layers {
		switch x := l.(type) {
		case *packet.UDP:
			x.Src, x.Dst = src, dst
		case *packet.TCP:
			x.Src, x.Dst = src, dst
		case *packet.ICMPv6:
			x.Src, x.Dst = src, dst
		}
		sl, ok := l.(packet.SerializableLayer)
		if !ok {
			return nil
		}
		ls = append(ls, sl)
	}
	if len(p.AppPayload) > 0 {
		ls = append(ls, packet.Raw(p.AppPayload))
	}
	return ls
}

// countingHost counts the frames the switch hands it.
type countingHost struct{ n *int }

func (h countingHost) HandleFrame([]byte) { *h.n++ }

// replayDeliver switches the corpus through a network with the study's
// receivers attached: every device MAC plus the router's.
func replayDeliver(w *world.World, all [][]byte, timeOps opTimer, t *tally) {
	clock := netsim.NewClock(time.Unix(0, 0))
	net := netsim.NewNetwork(clock)
	received := 0
	ports := map[packet.MAC]*netsim.Port{}
	for i, p := range w.Profiles {
		mac := device.MACFor(p, i)
		ports[mac] = net.Attach(countingHost{&received}, mac)
	}
	rport := net.Attach(countingHost{&received}, router.RouterMAC)
	const batch = 4096
	for lo := 0; lo < len(all); lo += batch {
		hi := min(lo+batch, len(all))
		for _, f := range all[lo:hi] {
			from := rport
			if len(f) >= 12 {
				if p := ports[packet.MAC(f[6:12])]; p != nil {
					from = p
				}
			}
			from.Send(f)
		}
		timeOps("netsim.deliver", hi-lo, func() {
			if _, err := net.Run(hi - lo); err != nil {
				t.fail("netsim replay: %v", err)
			}
		})
	}
	t.sample("netsim.fanout_per_frame", ratio{Num: float64(received), Den: float64(len(all))}.Value())
}

// replayStacks hands each config's frames to the device stacks and the
// router exactly as the switch would (unicast to the addressee, group
// frames to every receiver but the sender), with the stacks reset into
// that config's mode. Replies land in the network's queue, which is
// dropped every few frames without being delivered.
func replayStacks(w *world.World, c *corpus, timeOps opTimer, t *tally) {
	clock := netsim.NewClock(time.Date(2024, 4, 5, 9, 0, 0, 0, time.UTC))
	net := netsim.NewNetwork(clock)
	stacks := make([]*device.Stack, len(w.Profiles))
	byMAC := map[packet.MAC]*device.Stack{}
	for i, p := range w.Profiles {
		stacks[i] = device.NewStack(p, w.Plans[i], i, w.Prefixes)
		byMAC[stacks[i].MAC] = stacks[i]
	}
	calls, group := 0, 0
	for ci, cfg := range c.cfgs {
		rt := router.New(cfg.Router, w.Cloud.Clone())
		attach := func() {
			net.Reset(nil)
			for _, s := range stacks {
				s.Attach(net)
			}
			rt.Attach(net)
		}
		attach()
		for _, s := range stacks {
			s.Reset(cfg.Mode, cfg.V6Seq)
		}
		frames := c.frames[ci]
		const batch = 512
		for lo := 0; lo < len(frames); lo += batch {
			part := frames[lo:min(lo+batch, len(frames))]
			var n, rn int
			for _, f := range part {
				if isGroup(f) {
					n += len(stacks) - 1
				} else if byMAC[dstMAC(f)] != nil {
					n++
				}
				if toRouter(f) {
					rn++
				}
			}
			calls += n
			timeOps("device.handle", n, func() {
				for _, f := range part {
					if isGroup(f) {
						src := srcMAC(f)
						for _, s := range stacks {
							if s.MAC != src {
								s.HandleFrame(f)
							}
						}
						group += len(stacks) - 1
					} else if s := byMAC[dstMAC(f)]; s != nil {
						s.HandleFrame(f)
					}
				}
			})
			timeOps("router.handle", rn, func() {
				for _, f := range part {
					if toRouter(f) {
						rt.HandleFrame(f)
					}
				}
			})
			attach()
		}
	}
	t.sample("device.multicast_share", ratio{Num: float64(group), Den: float64(calls)}.Value())
}

func dstMAC(f []byte) packet.MAC {
	var m packet.MAC
	if len(f) >= 6 {
		copy(m[:], f[:6])
	}
	return m
}

func srcMAC(f []byte) packet.MAC {
	var m packet.MAC
	if len(f) >= 12 {
		copy(m[:], f[6:12])
	}
	return m
}

func isGroup(f []byte) bool {
	d := dstMAC(f)
	return d.IsMulticast() || d == packet.BroadcastMAC
}

// toRouter reports whether the switch hands f to the router: addressed
// to it, or a group frame the router did not send itself.
func toRouter(f []byte) bool {
	return dstMAC(f) == router.RouterMAC || isGroup(f) && srcMAC(f) != router.RouterMAC
}

// replayWAN replays the corpus's traffic toward the Internet: flow keys
// through a conntrack table, WAN-bound IP packets through the cloud, DNS
// payloads through dnsmsg.Unpack, and TLS ClientHellos through
// tlssim.SNI.
func replayWAN(w *world.World, all [][]byte, timeOps opTimer) {
	type flowOp struct {
		key   conntrack.FlowKey
		flags uint8
		out   bool
	}
	var flows []flowOp
	var wanIP, dns, hellos [][]byte
	for _, f := range all {
		p := packet.Parse(f)
		if p.Err != nil || p.Ethernet == nil {
			continue
		}
		outbound := p.Ethernet.Dst == router.RouterMAC
		if p.IPv6 != nil {
			if key, flags, ok := conntrack.KeyOfV6(p.IPv6, p.TCP, p.UDP, p.ICMPv6); ok && global(key.Src) && global(key.Dst) {
				flows = append(flows, flowOp{key, flags, outbound})
			}
		}
		if outbound && global(p.DstIP()) {
			wanIP = append(wanIP, p.Ethernet.PayloadData)
		}
		if p.UDP != nil && (p.UDP.DstPort == 53 || p.UDP.SrcPort == 53) && len(p.AppPayload) > 0 {
			dns = append(dns, p.AppPayload)
		}
		if p.TCP != nil && p.TCP.DstPort == 443 && len(p.AppPayload) > 5 && p.AppPayload[0] == 0x16 {
			hellos = append(hellos, p.AppPayload)
		}
	}
	clock := netsim.NewClock(time.Unix(0, 0))
	tbl := conntrack.New(clock, conntrack.DefaultConfig())
	timeOps("conntrack.op", len(flows), func() {
		for _, op := range flows {
			if op.out {
				tbl.Outbound(op.key, op.flags)
			} else {
				tbl.Inbound(op.key, op.flags)
			}
		}
	})
	cl := w.Cloud.Clone()
	timeOps("cloud.handle", len(wanIP), func() {
		for _, ip := range wanIP {
			cl.HandleIP(ip)
		}
	})
	timeOps("dnsmsg.unpack", len(dns), func() {
		for _, m := range dns {
			_, _ = dnsmsg.Unpack(m) // malformed payloads are part of the mix
		}
	})
	timeOps("tlssim.sni", len(hellos), func() {
		for _, h := range hellos {
			_, _ = tlssim.SNI(h) // only the parse cost is measured
		}
	})
}

// global reports whether a is a routable unicast address.
func global(a netip.Addr) bool {
	return a.IsValid() && a.IsGlobalUnicast() && !a.IsPrivate()
}

// probeServer starts a server and runs two cold jobs and two cache hits
// through it with spans, for the server layer's timings.
func probeServer(tr *tracer, t *tally) {
	sw := newServerWL(defaultSeed).(*serverWL)
	defer sw.close()
	if err := sw.setup(); err != nil {
		t.fail("probe server: %v", err)
		return
	}
	rng := splitmix64(0x9B0BE)
	for i := 0; i < 2; i++ {
		sw.job(sw.spec(1<<42+uint64(i), &rng), t, tr)
		sw.job(sw.hot[i], t, tr)
	}
}
