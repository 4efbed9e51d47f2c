package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/escort"
	"repro/internal/experiment"
	"repro/internal/iobuf"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/path"
	"repro/internal/policy"
	"repro/internal/proto/tcp"
	"repro/internal/proto/wire"
	"repro/internal/sim"

	ethmod "repro/internal/proto/eth"
)

// Layer drivers: each one times calls into one layer's public API, in
// isolation, shaped like the workload that exercises the layer (same
// server configuration, module graph and attributes). Everything they
// build is fixed; nothing depends on the workload seed.

// opCost is a driver's cost per operation: the median host ns over its
// timed batches, and heap allocations and bytes averaged over all of
// them.
type opCost struct{ ns, allocs, bytes float64 }

// layerBench runs the drivers and collects their per-layer metrics.
type layerBench struct {
	sp      *spanLog
	metrics map[string]float64
	cost    map[string]opCost
	err     error
}

// measure warms a driver with one batch, then times `batches` more.
// batch runs one batch and returns how many operations it did. Spans
// are recorded after the allocation counters are read, so they do not
// show up in the driver's allocs/op.
func (lb *layerBench) measure(name string, batches int, batch func() int) opCost {
	batch()
	starts := make([]time.Time, batches)
	durs := make([]time.Duration, batches)
	ops := make([]int, batches)
	perOp := make([]float64, batches)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range durs {
		starts[i] = time.Now()
		ops[i] = batch()
		durs[i] = time.Since(starts[i])
	}
	runtime.ReadMemStats(&ms1)
	total := 0
	for i := range durs {
		total += ops[i]
		perOp[i] = float64(durs[i].Nanoseconds()) / float64(max(ops[i], 1))
		if lb.sp != nil {
			lb.sp.spans = append(lb.sp.spans, span{cat: "layer", name: name,
				start: starts[i].Sub(lb.sp.origin), dur: durs[i], ops: ops[i]})
		}
	}
	n := float64(max(total, 1))
	c := opCost{ns: median(perOp), allocs: float64(ms1.Mallocs-ms0.Mallocs) / n,
		bytes: float64(ms1.TotalAlloc-ms0.TotalAlloc) / n}
	lb.cost[name] = c
	return c
}

// loop turns a single operation into a batch of n.
func loop(n int, op func()) func() int {
	return func() int {
		for i := 0; i < n; i++ {
			op()
		}
		return n
	}
}

func (lb *layerBench) fail(err error) {
	if lb.err == nil {
		lb.err = err
	}
}

// bareTestbed is a workload's server with no actors attached.
func bareTestbed(name string) (*experiment.Testbed, error) {
	m, _ := lookupMix(name)
	opts, err := m.options(defaultSeed)
	if err != nil {
		return nil, err
	}
	return experiment.NewTestbed(m.config, opts)
}

// settle runs the kernel until every thread a driver op spawned or
// killed has exited, so the next op starts from the same thread set.
func settle(k *kernel.Kernel, live int) error {
	for i := 0; k.LiveThreads() > live; i++ {
		if i == 1000 {
			return fmt.Errorf("kernel: %d threads still live, want %d", k.LiveThreads(), live)
		}
		k.RunFor(1)
	}
	return nil
}

// activeAttrs are the attributes the TCP passive stage hands to
// pathCreate for a new connection from a trusted client.
func activeAttrs(srv *escort.Server, remotePort int) lib.Attrs {
	return lib.Attrs{
		lib.AttrRemoteIP:   clientIP(0),
		lib.AttrRemotePort: remotePort,
		lib.AttrLocalPort:  80,
		ethmod.AttrPeerMAC: netsim.MAC(0x0200_0000_1000),
		tcp.AttrIRS:        uint32(1),
		tcp.AttrListener:   srv.Trusted,
	}
}

// run executes every driver; each closes the testbed it built.
func (lb *layerBench) run() {
	lb.sim()
	lb.churn()
	lb.bulk()
	lb.hostile()
}

// sim: one schedule+fire through the timer wheel.
func (lb *layerBench) sim() {
	e := sim.New()
	fn := func() {}
	c := lb.measure("sim.schedule_fire", 20, loop(50_000, func() {
		e.After(97, fn)
		e.Drain(e.Now() + 1000)
	}))
	lb.metrics["sim.schedule_fire_ns"] = c.ns
}

// churn: the connection-lifecycle layers fig8-churn leans on, on its
// Scout server.
func (lb *layerBench) churn() {
	tb, err := bareTestbed("fig8-churn")
	if err != nil {
		lb.fail(err)
		return
	}
	defer tb.Close()
	srv := tb.Escort
	k := srv.K
	live := k.LiveThreads()

	// path: pathCreate through the HTTP graph (scsi..eth), then an
	// orderly pathDestroy, then the kernel unwinds the path's worker.
	serial := 0
	c := lb.measure("path.create_destroy", 10, loop(500, func() {
		serial++
		port := 1024 + serial%60000
		p, err := srv.Paths.Create(nil, fmt.Sprintf("Active Path trusted:%d#%d", port, serial),
			"scsi", activeAttrs(srv, port))
		if err != nil {
			lb.fail(err)
			return
		}
		srv.Paths.Destroy(nil, p)
		if err := settle(k, live); err != nil {
			lb.fail(err)
		}
	}))
	lb.metrics["path.create_destroy_ns"] = c.ns
	lb.metrics["path.create_destroy_allocs"] = c.allocs
	lb.metrics["path.create_destroy_bytes"] = c.bytes

	// lib: one path input queue at the bound path.Manager gives it.
	var q *lib.Queue
	c = lb.measure("lib.queue_new", 10, loop(2000, func() { q = lib.NewQueue(128) }))
	_ = q
	lb.metrics["lib.queue_new_bytes"] = c.bytes

	// kernel: spawn a thread that exits at once, run it to exit.
	owner := k.NewOwner("hostbench spawn", core.PathOwner)
	c = lb.measure("kernel.spawn_exit", 10, loop(1000, func() {
		k.Spawn(owner, "hostbench:thread", func(*kernel.Ctx) {}, kernel.SpawnOpts{})
		if err := settle(k, live); err != nil {
			lb.fail(err)
		}
	}))
	lb.metrics["kernel.spawn_exit_ns"] = c.ns
	lb.metrics["kernel.spawn_exit_bytes"] = c.bytes

	// kernel: two threads ping-ponging a pair of semaphores; each round
	// is two thread switches.
	sa := k.NewSemaphore(owner, "hostbench:a", 0)
	sb := k.NewSemaphore(owner, "hostbench:b", 0)
	rounds := 0
	k.Spawn(owner, "hostbench:ping", func(ctx *kernel.Ctx) {
		for {
			sb.V(ctx)
			if sa.P(ctx) != nil {
				return
			}
			rounds++
		}
	}, kernel.SpawnOpts{})
	k.Spawn(owner, "hostbench:pong", func(ctx *kernel.Ctx) {
		for {
			if sb.P(ctx) != nil {
				return
			}
			sa.V(ctx)
		}
	}, kernel.SpawnOpts{})
	c = lb.measure("kernel.switch", 10, func() int {
		r := rounds
		k.RunFor(20 * sim.CyclesPerMillisecond)
		return 2 * (rounds - r)
	})
	lb.metrics["kernel.switch_ns"] = c.ns
}

// bulk: the data-path layers bulk-pd-10k leans on, on its
// per-module-protection-domain server.
func (lb *layerBench) bulk() {
	owner := core.NewOwner("hostbench msg", core.PathOwner)
	m := msg.New(owner, msg.DefaultHeadroom, wire.MSS)
	c := lb.measure("msg.push_pop", 10, loop(100_000, func() {
		m.Push(wire.TCPLen)
		m.Push(wire.IPv4Len)
		m.Push(wire.EthLen)
		m.Pop(wire.EthLen)
		m.Pop(wire.IPv4Len)
		m.Pop(wire.TCPLen)
	}))
	lb.metrics["msg.push_pop_ns"] = c.ns
	c = lb.measure("msg.new_free", 10, loop(20_000, func() {
		msg.New(owner, msg.DefaultHeadroom, wire.EthLen+wire.IPv4Len+wire.MSS).Free()
	}))
	lb.metrics["msg.new_free_ns"] = c.ns
	lb.metrics["msg.new_free_bytes"] = c.bytes

	lb.forward()

	tb, err := bareTestbed("bulk-pd-10k")
	if err != nil {
		lb.fail(err)
		return
	}
	defer tb.Close()
	k := tb.Escort.K

	// iobuf: the FS block cache stages a 10 KB document in a buffer
	// owned by the fs domain; every request associates it with the
	// connection's path and unlocks it after the copy.
	iom := iobuf.NewManager(k)
	fsDom, ok := k.Domains().ByName("fs")
	if !ok {
		lb.fail(fmt.Errorf("bulk-pd-10k: no fs protection domain"))
		return
	}
	spec := iobuf.MapSpec{Current: fsDom.ID()}
	pages := (experiment.Doc10K.Size + mem.PageSize - 1) / mem.PageSize
	c = lb.measure("iobuf.alloc_unlock", 10, loop(10_000, func() {
		h, err := iom.Alloc(nil, &fsDom.Owner, pages, spec)
		if err != nil {
			lb.fail(err)
			return
		}
		iom.Unlock(nil, h)
	}))
	lb.metrics["iobuf.alloc_unlock_ns"] = c.ns
	hits, misses := iom.CacheStats()
	lb.metrics["iobuf.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	hold, err := iom.Alloc(nil, &fsDom.Owner, pages, spec)
	if err != nil {
		lb.fail(err)
		return
	}
	reader := k.NewOwner("hostbench reader", core.PathOwner)
	c = lb.measure("iobuf.associate_unlock", 10, loop(10_000, func() {
		a, err := iom.Associate(nil, hold.Buffer(), reader, spec)
		if err != nil {
			lb.fail(err)
			return
		}
		iom.Unlock(nil, a)
	}))
	lb.metrics["iobuf.associate_unlock_ns"] = c.ns
	iom.Unlock(nil, hold)

	// kernel: a thread in the kernel domain calling into the tcp
	// domain and back; every crossing flushes the TLB twice.
	tcpDom, ok := k.Domains().ByName("tcp")
	if !ok {
		lb.fail(fmt.Errorf("bulk-pd-10k: no tcp protection domain"))
		return
	}
	crosser := k.NewOwner("hostbench cross", core.PathOwner)
	policy.LimitRuntime(crosser, 0)
	crossings := 0
	noop := func() {}
	k.Spawn(crosser, "hostbench:cross", func(ctx *kernel.Ctx) {
		for {
			for i := 0; i < 64; i++ {
				ctx.Cross(tcpDom.ID(), noop)
				crossings++
			}
			ctx.Yield()
		}
	}, kernel.SpawnOpts{})
	c = lb.measure("kernel.cross", 10, func() int {
		n := crossings
		k.RunFor(20 * sim.CyclesPerMillisecond)
		return crossings - n
	})
	lb.metrics["kernel.cross_ns"] = c.ns
}

// forward: one full-size frame from a client on the switch, over the
// bridge, to the server NIC on the hub (the Figure 7 topology).
func (lb *layerBench) forward() {
	eng := sim.New()
	hub := netsim.NewHub(eng, 100_000_000, 3000)
	sw := netsim.NewSwitch(eng, 100_000_000, 3000)
	netsim.NewBridge("uplink", hub, sw, netsim.MAC(0x0200_0000_00FE), netsim.MAC(0x0200_0000_00FF))
	src := netsim.NewNIC("client0", netsim.MAC(0x0200_0000_1000))
	src.Rx = func(netsim.Frame) {}
	sw.Attach(src)
	dst := netsim.NewNIC("server-eth0", escort.ServerMAC)
	got := 0
	dst.Rx = func(netsim.Frame) { got++ }
	hub.Attach(dst)
	f := netsim.Frame{Dst: dst.Mac, Src: src.Mac, Data: make([]byte, wire.EthLen+wire.IPv4Len+wire.TCPLen+wire.MSS)}
	sent := 0
	c := lb.measure("netsim.forward", 10, loop(10_000, func() {
		src.Send(f)
		sent++
		eng.Drain(eng.Now() + sim.CyclesPerMillisecond)
	}))
	if got != sent {
		lb.fail(fmt.Errorf("netsim: %d of %d frames reached the server NIC", got, sent))
	}
	lb.metrics["netsim.forward_ns"] = c.ns
}

// sizePoint is one size a scaling driver runs at: n ledger owners for
// the metrics sampler, n demand sources for the detector.
type sizePoint struct {
	driver, metric string
	n              float64
	ops            int // per timed batch
}

var (
	samplePoints = []sizePoint{
		{"obs.sample.1k", "obs.sample_ns.1k", 1_000, 200},
		{"obs.sample.10k", "obs.sample_ns.10k", 10_000, 20},
		{"obs.sample.100k", "obs.sample_ns.100k", 100_000, 2},
	}
	tickPoints = []sizePoint{
		{"policy.detector_tick.10", "policy.detector_tick_ns.10", 10, 2000},
		{"policy.detector_tick.1k", "policy.detector_tick_ns.1k", 1_000, 50},
		{"policy.detector_tick.100k", "policy.detector_tick_ns.100k", 100_000, 1},
	}
)

// hostile: the layers attack-soak leans on — per-tick metrics sampling
// over a growing ledger, the detector's per-source scan, and demux of
// hostile and legitimate segments on its Accounting server.
func (lb *layerBench) hostile() {
	for _, p := range samplePoints {
		var l core.Ledger
		for i := 0; i < int(p.n); i++ {
			l.Register(core.NewOwner(fmt.Sprintf("Active Path trusted:%d#%d", 1024+i%60000, i+1), core.PathOwner))
		}
		m := obs.NewSampler(0, nil)
		m.Bind(&l)
		var now sim.Cycles
		c := lb.measure(p.driver, 10, loop(p.ops, func() {
			now += obs.DefaultMetricsInterval
			m.Poll(now)
		}))
		lb.metrics[p.metric] = c.ns
	}
	for _, p := range tickPoints {
		lb.detectorTick(p)
	}

	tb, err := bareTestbed("attack-soak")
	if err != nil {
		lb.fail(err)
		return
	}
	defer tb.Close()
	srv := tb.Escort
	p, err := srv.Paths.Create(nil, "Active Path trusted:5000#1", "scsi", activeAttrs(srv, 5000))
	if err != nil {
		lb.fail(err)
		return
	}
	owner := srv.K.KernelOwner()
	for _, d := range []struct {
		name    string
		frame   []byte
		want    *path.Path // nil: rejected
		wantAny bool       // found, by a listener path
	}{
		{"path.demux_syn", tcpFrame(netsim.MAC(0x0200_0000_9999), synIP, 2000, 80, wire.FlagSYN), nil, true},
		{"path.demux_est", tcpFrame(netsim.MAC(0x0200_0000_1000), clientIP(0), 5000, 80, wire.FlagACK), p, false},
		{"path.demux_stray", tcpFrame(netsim.MAC(0x0200_0000_770a), floodIP, 3000, 80, wire.FlagACK|wire.FlagFIN), nil, false},
	} {
		m := msg.FromBytes(owner, d.frame)
		got, _ := srv.Paths.Demux("eth", m)
		if (d.wantAny && got == nil) || (!d.wantAny && got != d.want) {
			lb.fail(fmt.Errorf("%s: demux found %v", d.name, got))
		}
		c := lb.measure(d.name, 10, loop(20_000, func() { srv.Paths.Demux("eth", m) }))
		lb.metrics[d.name+"_ns"] = c.ns
		m.Free()
	}
}

// tcpFrame builds a header-only TCP segment to the server.
func tcpFrame(srcMAC netsim.MAC, srcIP uint32, srcPort, dstPort uint16, flags byte) []byte {
	b := make([]byte, wire.EthLen+wire.IPv4Len+wire.TCPLen)
	wire.PutEth(b, wire.Eth{Dst: escort.ServerMAC, Src: srcMAC, EtherType: wire.EtherTypeIPv4})
	wire.PutIPv4(b[wire.EthLen:], wire.IPv4{TotalLen: wire.IPv4Len + wire.TCPLen, TTL: 64,
		Proto: wire.ProtoTCP, Src: srcIP, Dst: escort.ServerIP})
	wire.PutTCP(b[wire.EthLen+wire.IPv4Len:], wire.TCP{SrcPort: srcPort, DstPort: dstPort,
		Seq: 1, Flags: flags, Window: 8192}, srcIP, escort.ServerIP, nil)
	return b
}

// fakeDemand reports n sources, each with one new SYN per tick.
type fakeDemand struct {
	n     int
	ticks uint64
}

func (f *fakeDemand) EachSrcDemand(fn func(uint32, tcp.SrcDemand)) {
	for i := 0; i < f.n; i++ {
		fn(lib.IPv4(172, 16, 0, 0)+uint32(i), tcp.SrcDemand{Syns: f.ticks})
	}
}

// noSessions is an empty connection table.
type noSessions struct{}

func (noSessions) EachConn(func(tcp.ConnStats)) {}

// detectorTick drives the adaptive detector's 10 ms tick through a
// sampler's Poll, with a fake per-source demand feed of the given
// size. The fake sources carry demand but no bytes, so after the
// detector's warm-up each one climbs the ladder once; the timed ticks
// are the steady state that follows, a scan over every source.
func (lb *layerBench) detectorTick(p sizePoint) {
	tb, err := bareTestbed("attack-soak")
	if err != nil {
		lb.fail(err)
		return
	}
	defer tb.Close()
	k := tb.Escort.K
	demand := &fakeDemand{n: int(p.n)}
	m := obs.NewSampler(0, nil)
	m.Bind(k.Ledger())
	policy.EnableDetector(k, tb.Escort.Paths, noSessions{}, demand, m, policy.DetectorConfig{})
	var now sim.Cycles
	tick := func() {
		now += obs.DefaultMetricsInterval
		demand.ticks++
		m.Poll(now)
	}
	for i := 0; i < 40; i++ {
		tick()
	}
	c := lb.measure(p.driver, 10, loop(p.ops, tick))
	lb.metrics[p.metric] = c.ns
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
