package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/escort"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// defaultSeed is the seed whose simulated outputs are pinned. At this
// seed every client gets the RNG seed experiment.Testbed.AddClients
// would give it, so fig8-churn is the Figure 8 Scout 1 B point.
const defaultSeed = 1

// actorSeedStride separates the actor seeds of consecutive benchmark
// seeds; it is prime and far above any per-actor offset used below.
const actorSeedStride = 1_000_003

const (
	// nClients is the closed-loop legitimate load: each client waits
	// for its reply plus experiment.ClientThink before the next request.
	nClients = 16
	// slice is the simulated time the measured window advances per
	// RunFor call; the traced run records one span per slice.
	slice = 100 * sim.CyclesPerMillisecond
)

// mix is one benchmark workload: a server configuration, a document,
// the legitimate clients and, for attack-soak, four open-loop
// attackers on the hub.
type mix struct {
	name    string
	config  experiment.Config
	doc     experiment.DocSpec
	faults  string // fault-spec entries after seed=; empty for none
	hostile bool
	warm    sim.Cycles
	window  sim.Cycles

	// pinCompleted is the number of client completions inside the
	// window at defaultSeed, taken from the seed commit.
	pinCompleted uint64
}

var mixes = []*mix{
	{
		name:         "fig8-churn",
		config:       experiment.ConfigScout,
		doc:          experiment.Doc1B,
		warm:         sim.CyclesPerSecond / 2,
		window:       4 * sim.CyclesPerSecond,
		pinCompleted: 3380,
	},
	{
		name:         "bulk-pd-10k",
		config:       experiment.ConfigAccountingPD,
		doc:          experiment.Doc10K,
		warm:         sim.CyclesPerSecond / 2,
		window:       10 * sim.CyclesPerSecond,
		pinCompleted: 922,
	},
	{
		name:         "attack-soak",
		config:       experiment.ConfigAccounting,
		doc:          experiment.Doc1K,
		faults:       "reaper=250ms,detector",
		hostile:      true,
		warm:         sim.CyclesPerSecond / 2,
		window:       20 * sim.CyclesPerSecond,
		pinCompleted: 11015,
	},
}

func lookupMix(name string) (*mix, bool) {
	for _, m := range mixes {
		if m.name == name {
			return m, true
		}
	}
	return nil, false
}

func actorSeed(seed, k uint64) uint64 { return (seed-defaultSeed)*actorSeedStride + k }

// clientIP mirrors experiment.Testbed.AddClients addressing: the
// trusted 10/8 subnet on the switch.
func clientIP(i int) uint32 { return lib.IPv4(10, 0, 1+byte(i/250), byte(i%250)+1) }

// Attacker addressing on the hub (the untrusted side of Figure 7), one
// address per attacker so the detector's decisions are attributable.
var (
	synIP   = lib.IPv4(192, 168, 9, 9)
	slowIP  = lib.IPv4(192, 168, 7, 7)
	scanIP  = lib.IPv4(192, 168, 7, 8)
	floodIP = lib.IPv4(192, 168, 7, 10)
)

// instance is one built testbed with its actors.
type instance struct {
	tb        *experiment.Testbed
	srv       *escort.Server
	clients   []*workload.Client
	attackers []workload.Attacker
}

// build constructs the testbed and attaches every actor; attackers are
// started only after the warm-up, so the detector learns its baseline
// from legitimate traffic.
func (m *mix) build(seed uint64) (*instance, error) {
	opts, err := m.options(seed)
	if err != nil {
		return nil, err
	}
	tb, err := experiment.NewTestbed(m.config, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: testbed: %w", m.name, err)
	}
	in := &instance{tb: tb, srv: tb.Escort}
	for i := 0; i < nClients; i++ {
		c := workload.NewClient(tb.Eng, tb.SwitchAttach(), fmt.Sprintf("client%d", i),
			clientIP(i), netsim.MAC(0x0200_0000_1000+uint64(i)), escort.ServerIP,
			m.doc.Name, actorSeed(seed, uint64(i)+1))
		c.Think = experiment.ClientThink
		c.Start()
		in.clients = append(in.clients, c)
	}
	if m.hostile {
		hub := tb.HubAttach()
		syn := workload.NewSynAttacker(tb.Eng, hub, "syn-attacker", synIP,
			netsim.MAC(0x0200_0000_9999), escort.ServerIP, 1000, actorSeed(seed, 4242))
		slow := workload.NewSlowAttacker(tb.Eng, hub, "slowloris", slowIP,
			netsim.MAC(0x0200_0000_7707), escort.ServerIP, 16, actorSeed(seed, 3101))
		flood := workload.NewAckFlooder(tb.Eng, hub, "ackfinflood", floodIP,
			netsim.MAC(0x0200_0000_770a), escort.ServerIP, 3000, actorSeed(seed, 3401))
		flood.WithFin = true
		scan := workload.NewPortScanner(tb.Eng, hub, "portscan", scanIP,
			netsim.MAC(0x0200_0000_7708), escort.ServerIP, 2000, actorSeed(seed, 3201))
		in.attackers = []workload.Attacker{syn, slow, flood, scan}
	}
	return in, nil
}

// options is the server side of the workload: attack-soak arms the
// session reaper and the adaptive detector, turns the penalty box on,
// and caps the untrusted listener's backlog as Figure 9 does.
func (m *mix) options(seed uint64) (experiment.Options, error) {
	var opts experiment.Options
	if m.faults != "" {
		sp, err := fault.ParseSpec(fmt.Sprintf("seed=%d,%s", seed, m.faults))
		if err != nil {
			return opts, fmt.Errorf("%s: fault spec: %w", m.name, err)
		}
		opts.Faults = sp
	}
	if m.hostile {
		opts.PenaltyBox = true
		opts.SynCapUntrusted = 64
	}
	return opts, nil
}

func (in *instance) requests() (completed, failed uint64) {
	for _, c := range in.clients {
		completed += c.Completed
		failed += c.Failed
	}
	return completed, failed
}

// counters is the public state of the server's layers read at one
// instant. Everything but the level fields (owners, pathsLive, sources)
// is cumulative; the window's share is a difference.
type counters struct {
	owners, pathOwners         uint64
	pathsLive                  uint64
	demuxRejects, pathKills    uint64
	rxFrames, txFrames, txDrop uint64
	established, retransmits   uint64
	strays, noListener, shed   uint64
	syns                       uint64
	httpRequests               uint64
	tlbFlushes, tlbMisses      uint64
	fsHits, fsMisses, assoc    uint64
	samples                    uint64
	sources, detectorTicks     uint64
	flagged, sheds, kills      uint64
}

func (in *instance) readCounters() counters {
	s := in.srv
	var c counters
	for _, o := range s.K.Ledger().Owners() {
		c.owners++
		if o.Type == core.PathOwner {
			c.pathOwners++
		}
	}
	c.pathsLive = uint64(s.Paths.Live())
	c.demuxRejects = s.Paths.DemuxRejects
	c.pathKills = s.Paths.Kills
	c.rxFrames, c.txFrames, c.txDrop = s.NIC.RxFrames, s.NIC.TxFrames, s.NIC.TxDropped
	c.established, c.retransmits = s.TCP.Established, s.TCP.Retransmits
	c.strays, c.noListener, c.shed = s.TCP.Strays, s.TCP.NoListener, s.TCP.ShedSrcCount
	s.TCP.EachSrcDemand(func(_ uint32, d tcp.SrcDemand) {
		c.sources++
		c.syns += d.Syns
	})
	c.httpRequests = s.HTTP.Requests
	c.tlbFlushes, c.tlbMisses = s.K.TLB().Stats()
	c.fsHits, c.fsMisses, c.assoc = s.FS.Hits, s.FS.Misses, s.FS.Associations
	c.samples = uint64(s.K.Metrics().Len())
	if d := s.Detector; d != nil {
		c.detectorTicks = c.samples
		c.flagged, c.sheds, c.kills = d.Flagged, d.Sheds, d.Kills
	}
	return c
}

// simOutputs are the simulated results of one run: they depend only on
// the workload and the seed, never on the host.
type simOutputs struct {
	Completed uint64   // client completions inside the window
	Failed    uint64   // client failures inside the window
	SimConnS  float64  // Completed per simulated second
	PerClient []uint64 // completions per client at the end of the window
	EndCycles sim.Cycles
	// LedgerHash is the FNV-64a hash of the window's Table 1 breakdown
	// (every owner's cycles); Unaccounted must be zero.
	LedgerHash  uint64
	Unaccounted int64
	Decisions   string // the detector's decision log, attack-soak only
}

func (o simOutputs) String() string {
	return fmt.Sprintf("completed=%d failed=%d sim_conn_s=%v per_client=%v end=%d ledger=%016x unaccounted=%d decisions=%d",
		o.Completed, o.Failed, o.SimConnS, o.PerClient, o.EndCycles, o.LedgerHash, o.Unaccounted, len(o.Decisions))
}

// repResult is one run of a workload: its simulated outputs, its host
// costs and the counters over its window.
type repResult struct {
	out        simOutputs
	window     time.Duration
	slices     []time.Duration
	allocBytes uint64
	allocs     uint64
	heapLive   uint64
	gcCount    uint64
	gcCPUFrac  float64
	before     counters
	after      counters
	err        error // the first failed correctness check
}

// conns is the window's completed legitimate connections (at least 1,
// so per-connection ratios stay finite on a broken run).
func (r *repResult) conns() float64 {
	if r.out.Completed == 0 {
		return 1
	}
	return float64(r.out.Completed)
}

func (r *repResult) hostNsPerConn() float64 { return float64(r.window.Nanoseconds()) / r.conns() }

// runOnce builds the workload at seed, warms it up, measures the window
// slice by slice, checks the simulated outputs and tears it down. sp,
// when non-nil, receives a span for every step.
func (m *mix) runOnce(seed uint64, sp *spanLog) (*repResult, error) {
	r := &repResult{}
	runtime.GC()
	t := sp.begin()
	in, err := m.build(seed)
	if err != nil {
		return nil, err
	}
	sp.end(t, m.name, "setup")

	t = sp.begin()
	in.tb.RunFor(m.warm)
	for _, a := range in.attackers {
		a.Start()
	}
	sp.end(t, m.name, "warmup")

	ledger := in.srv.K.Ledger()
	snap0 := ledger.Snapshot(in.tb.Eng.Now())
	r.before = in.readCounters()
	comp0, fail0 := in.requests()

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGCCPU()
	nSlices := int(m.window / slice)
	r.slices = make([]time.Duration, 0, nSlices)
	start := time.Now()
	for i := 0; i < nSlices; i++ {
		t := sp.begin()
		in.tb.RunFor(slice)
		r.slices = append(r.slices, sp.end(t, m.name, "slice"))
	}
	r.window = time.Since(start)
	runtime.ReadMemStats(&ms1)
	gc1 := readGCCPU()
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.gcCount = uint64(ms1.NumGC - ms0.NumGC)
	r.gcCPUFrac = gc1.frac(gc0)
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	r.heapLive = ms2.HeapAlloc

	r.after = in.readCounters()
	comp1, fail1 := in.requests()
	delta := ledger.Snapshot(in.tb.Eng.Now()).Diff(snap0)
	h := fnv.New64a()
	h.Write([]byte(delta.Format()))
	r.out = simOutputs{
		Completed:   comp1 - comp0,
		Failed:      fail1 - fail0,
		SimConnS:    float64(comp1-comp0) / m.window.Seconds(),
		EndCycles:   in.tb.Eng.Now(),
		LedgerHash:  h.Sum64(),
		Unaccounted: delta.Unaccounted(),
	}
	for _, c := range in.clients {
		r.out.PerClient = append(r.out.PerClient, c.Completed)
	}
	if d := in.srv.Detector; d != nil {
		r.out.Decisions = string(d.DecisionLog())
	}
	r.err = m.check(seed, in, r)

	t = sp.begin()
	for i, a := range in.attackers {
		a.Stop()
		if n := a.PendingEvents(); n != 0 && r.err == nil {
			r.err = fmt.Errorf("%s: attacker %d holds %d timers after Stop", m.name, i, n)
		}
	}
	for _, c := range in.clients {
		c.Stop()
	}
	in.tb.Close()
	sp.end(t, m.name, "teardown")
	return r, nil
}

// check applies the correctness checks to one run.
func (m *mix) check(seed uint64, in *instance, r *repResult) error {
	if r.out.Unaccounted != 0 {
		return fmt.Errorf("%s: Table 1 ledger unbalanced over the window: %d cycles unaccounted",
			m.name, r.out.Unaccounted)
	}
	if r.out.Completed == 0 {
		return fmt.Errorf("%s: no connection completed in the window", m.name)
	}
	if seed == defaultSeed && r.out.Completed != m.pinCompleted {
		return fmt.Errorf("%s: %d completions at seed %d, pinned %d (sim_conn_s %v, pinned %v)",
			m.name, r.out.Completed, seed, m.pinCompleted, r.out.SimConnS, m.pinSimConnS())
	}
	if m.hostile {
		return checkContainment(in, r.out.Decisions)
	}
	return nil
}

// pinSimConnS is the pinned simulated connection rate.
func (m *mix) pinSimConnS() float64 { return float64(m.pinCompleted) / m.window.Seconds() }

// checkContainment is attack-soak's check: the detector must have
// acted on every hostile source, and on no legitimate client beyond a
// demotion — no client may be shed, killed or penalty-boxed.
func checkContainment(in *instance, decisions string) error {
	acted := map[string]bool{}
	for _, row := range strings.Split(decisions, "\n")[1:] {
		f := strings.Split(row, ",")
		if len(f) < 3 {
			continue
		}
		acted[f[2]] = true
		for i := 0; i < nClients; i++ {
			if f[2] == lib.FormatIPv4(clientIP(i)) && f[1] != "demote" && f[1] != "forgive" {
				return fmt.Errorf("attack-soak: detector %s legitimate client %s", f[1], f[2])
			}
		}
	}
	for _, ip := range []uint32{synIP, slowIP, scanIP, floodIP} {
		if !acted[lib.FormatIPv4(ip)] {
			return fmt.Errorf("attack-soak: detector never acted on hostile source %s", lib.FormatIPv4(ip))
		}
	}
	if pb := in.srv.Penalty; pb != nil {
		for i := 0; i < nClients; i++ {
			if pb.Strikes(clientIP(i)) > 0 {
				return fmt.Errorf("attack-soak: legitimate client %s was penalty-boxed", lib.FormatIPv4(clientIP(i)))
			}
		}
	}
	return nil
}

// gcCPU is the runtime's cumulative GC and total CPU time.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// frac is the share of CPU time spent in GC since earlier.
func (g gcCPU) frac(earlier gcCPU) float64 {
	if d := g.total - earlier.total; d > 0 {
		return (g.gc - earlier.gc) / d
	}
	return 0
}
