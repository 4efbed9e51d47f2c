package path

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/sim"
)

// fakeMod is a test module: records deliveries, optionally consumes or
// replies, and chains to next.
type fakeMod struct {
	name      string
	next      string
	demuxNext string // demux continue target when it differs from next
	consume   bool   // stop forwarding at this stage
	reply     bool   // on Up delivery, send a reply back Down
	openErr   error

	delivered []string // "up:<payload>" etc, across all stages
	destroyed int
	reclaimed []string // owner liveness at each Reclaim: "live" or "dead"
}

type fakeStage struct {
	m *fakeMod
	h module.StageHandle
	o *core.Owner
}

func (f *fakeMod) Name() string               { return f.name }
func (f *fakeMod) Init(*module.InitCtx) error { return nil }

func (f *fakeMod) CreateStage(pb module.PathBuilder, attrs lib.Attrs) (module.Stage, string, error) {
	if f.openErr != nil {
		return nil, "", f.openErr
	}
	return &fakeStage{m: f, h: pb.Handle(), o: pb.PathOwner()}, f.next, nil
}

func (f *fakeMod) Demux(dc *module.DemuxCtx, m *msg.Msg) module.Verdict {
	next := f.next
	if f.demuxNext != "" {
		next = f.demuxNext
	}
	if next != "" {
		return module.Continue(next)
	}
	return module.Reject("end of chain")
}

func (s *fakeStage) Deliver(ctx *kernel.Ctx, dir module.Direction, m *msg.Msg) (bool, error) {
	ctx.Use(100)
	s.m.delivered = append(s.m.delivered, fmt.Sprintf("%s:%s", dir, m.Bytes()))
	if s.m.reply && dir == module.Up {
		reply := msg.FromBytes(s.o, []byte("reply"))
		if err := s.h.SendDown(ctx, reply); err != nil {
			return false, err
		}
	}
	return !s.m.consume, nil
}

func (s *fakeStage) Destroy(*kernel.Ctx) { s.m.destroyed++ }

func (s *fakeStage) Reclaim() {
	state := "live"
	if s.o.Dead() {
		state = "dead"
	}
	s.m.reclaimed = append(s.m.reclaimed, s.m.name+":"+state)
}

type env struct {
	k   *kernel.Kernel
	g   *module.Graph
	mgr *Manager
}

// buildEnv assembles a 3-module chain app-mid-dev, optionally one domain
// per module.
func buildEnv(t *testing.T, perModuleDomains bool, app, mid, dev *fakeMod) *env {
	t.Helper()
	k := kernel.New(sim.New(), cost.Default(), kernel.Config{Accounting: true})
	t.Cleanup(k.Stop)
	g := module.NewGraph(k)
	domFor := func(name string) string {
		if !perModuleDomains {
			return ""
		}
		k.Domains().Create(name)
		return name
	}
	g.Add("app", app, domFor("app"))
	g.Add("mid", mid, domFor("mid"))
	g.Add("dev", dev, domFor("dev"))
	g.Connect("app", "mid", module.AIO)
	g.Connect("mid", "dev", module.AIO)
	mgr := NewManager(g)
	if err := g.Init(mgr, mgr.DeliverInbound); err != nil {
		t.Fatal(err)
	}
	return &env{k: k, g: g, mgr: mgr}
}

func chain() (*fakeMod, *fakeMod, *fakeMod) {
	app := &fakeMod{name: "app", next: ""} // terminal
	mid := &fakeMod{name: "mid", next: "app"}
	dev := &fakeMod{name: "dev", next: "mid"}
	return app, mid, dev
}

// createPath builds app->mid->dev starting at app (stage 0 = app).
func createPath(t *testing.T, e *env) *Path {
	t.Helper()
	app := &fakeChainStart{}
	_ = app
	p, err := e.mgr.Create(nil, "p0", "app", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type fakeChainStart struct{}

func appFirst(app, mid, dev *fakeMod) {
	// path creation order: app -> mid -> dev
	app.next = "mid"
	mid.next = "dev"
	dev.next = ""
}

func TestCreateWalksOpenChain(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	if len(p.Stages()) != 3 {
		t.Fatalf("stages = %d", len(p.Stages()))
	}
	names := []string{"app", "mid", "dev"}
	for i, rec := range p.Stages() {
		if rec.Node.Name() != names[i] {
			t.Fatalf("stage %d = %q, want %q", i, rec.Node.Name(), names[i])
		}
	}
	if p.Owner.Counters.Kmem == 0 {
		t.Fatal("path kmem not charged")
	}
	if e.mgr.Live() != 1 {
		t.Fatal("manager does not track path")
	}
}

func TestCreateFailsOnMissingEdge(t *testing.T) {
	app, mid, dev := chain()
	app.next = "dev" // app-dev are NOT connected
	e := buildEnv(t, false, app, mid, dev)
	if _, err := e.mgr.Create(nil, "p", "app", lib.Attrs{}); !errors.Is(err, ErrNoEdge) {
		t.Fatalf("err = %v, want ErrNoEdge", err)
	}
	_ = mid
	_ = dev
}

func TestCreateUnwindsOnOpenError(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	dev.openErr = errors.New("device unavailable")
	e := buildEnv(t, false, app, mid, dev)
	free := e.k.Pages().FreePages()
	if _, err := e.mgr.Create(nil, "p", "app", lib.Attrs{}); err == nil {
		t.Fatal("create with failing open succeeded")
	}
	if e.k.Pages().FreePages() != free {
		t.Fatal("partial path leaked pages")
	}
	if e.mgr.Live() != 0 {
		t.Fatal("failed path left registered")
	}
	if e.k.LiveThreads() != 0 {
		t.Fatal("failed path left threads")
	}
}

func TestInboundDeliveryFlowsUp(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)

	m := msg.FromBytes(e.k.KernelOwner(), []byte("pkt"))
	if err := p.EnqueueIn(m); err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(10_000_000)

	for _, fm := range []*fakeMod{dev, mid, app} {
		if len(fm.delivered) != 1 || fm.delivered[0] != "up:pkt" {
			t.Fatalf("%s delivered %v", fm.name, fm.delivered)
		}
	}
	if p.Delivered != 1 {
		t.Fatalf("delivered count = %d", p.Delivered)
	}
}

func TestConsumeStopsForwarding(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	mid.consume = true
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("pkt")))
	e.k.RunFor(10_000_000)
	if len(mid.delivered) != 1 {
		t.Fatal("mid did not see message")
	}
	if len(app.delivered) != 0 {
		t.Fatal("consumed message still reached app")
	}
	_ = dev
}

func TestReplyFlowsDownThePath(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	app.reply = true
	e := buildEnv(t, true, app, mid, dev) // separate domains: exercises crossings
	p := createPath(t, e)
	_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("req")))
	e.k.RunFor(50_000_000)
	// dev must see the request (up) and the reply (down).
	if len(dev.delivered) != 2 || dev.delivered[0] != "up:req" || dev.delivered[1] != "down:reply" {
		t.Fatalf("dev delivered %v", dev.delivered)
	}
	if len(mid.delivered) != 2 {
		t.Fatalf("mid delivered %v", mid.delivered)
	}
}

func TestPerDomainCrossingsCostMore(t *testing.T) {
	run := func(perDomain bool) sim.Cycles {
		app, mid, dev := chain()
		appFirst(app, mid, dev)
		app.reply = true
		e := buildEnv(t, perDomain, app, mid, dev)
		p := createPath(t, e)
		start := p.Owner.Counters.Cycles
		for i := 0; i < 10; i++ {
			_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("req")))
		}
		e.k.RunFor(200_000_000)
		return p.Owner.Counters.Cycles - start
	}
	single := run(false)
	multi := run(true)
	if multi < single*2 {
		t.Fatalf("per-domain config cycles %d not substantially above single-domain %d", multi, single)
	}
}

func TestDemuxChainIdentifiesPath(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)

	// Make app's demux return the path.
	found := &demuxFoundMod{p: p}
	e.g.Add("classifier", found, "")
	e.g.Connect("app", "classifier", module.AIO)
	app.next = "" // irrelevant for demux

	// dev -> mid -> app chain then Found at classifier.
	dev.next = "mid"
	mid.next = "app"
	appDemuxNext(app, "classifier")

	m := msg.FromBytes(e.k.KernelOwner(), []byte("pkt"))
	got, v := e.mgr.Demux("dev", m)
	if got != p || v.Kind != module.VerdictFound {
		t.Fatalf("demux = %v %v", got, v)
	}
	if p.Owner.Counters.Cycles == 0 {
		t.Fatal("demux cost not charged to path")
	}
	m.Free()
}

// demuxFoundMod returns Found(p) at demux.
type demuxFoundMod struct {
	p *Path
}

func (d *demuxFoundMod) Name() string               { return "classifier" }
func (d *demuxFoundMod) Init(*module.InitCtx) error { return nil }
func (d *demuxFoundMod) CreateStage(module.PathBuilder, lib.Attrs) (module.Stage, string, error) {
	return nil, "", errors.New("not a path module")
}
func (d *demuxFoundMod) Demux(*module.DemuxCtx, *msg.Msg) module.Verdict {
	return module.Found(d.p.PathRef())
}

// appDemuxNext redirects app's demux Continue target.
func appDemuxNext(app *fakeMod, next string) { app.next = next }

func TestDemuxRejectChargesEntryDomain(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	app.next = "" // demux at app rejects
	dev.next = "mid"
	mid.next = "app"
	m := msg.FromBytes(e.k.KernelOwner(), []byte("junk"))
	p, v := e.mgr.Demux("dev", m)
	if p != nil || v.Kind != module.VerdictReject {
		t.Fatalf("demux = %v %v", p, v)
	}
	if e.mgr.DemuxRejects != 1 {
		t.Fatal("reject not counted")
	}
	m.Free()
}

func TestDestroyRunsDestructorsInInitOrder(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)

	var order []string
	app2 := p.Stages()[0].Stage.(*fakeStage)
	_ = app2
	// Track destroy order via the module counters plus a shared slice.
	for i, name := range []string{"app", "mid", "dev"} {
		rec := p.Stages()[i]
		fs := rec.Stage.(*fakeStage)
		orig := fs.m
		_ = orig
		_ = name
		_ = fs
	}
	e.mgr.Destroy(nil, p)
	if app.destroyed != 1 || mid.destroyed != 1 || dev.destroyed != 1 {
		t.Fatalf("destructors: app=%d mid=%d dev=%d", app.destroyed, mid.destroyed, dev.destroyed)
	}
	_ = order
	if p.Alive() {
		t.Fatal("path still alive")
	}
	e.k.RunFor(1_000_000)
	if e.k.LiveThreads() != 0 {
		t.Fatal("worker thread leaked")
	}
	if p.Owner.Counters.Kmem != 0 {
		t.Fatalf("kmem leaked: %d", p.Owner.Counters.Kmem)
	}
}

func TestKillSkipsDestructorsAndReclaims(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)
	p := createPath(t, e)
	// Give the path heap charges in a crossed domain.
	d, _ := e.k.Domains().ByName("mid")
	if _, err := d.Heap().Alloc(512, &p.Owner); err != nil {
		t.Fatal(err)
	}
	cycles := e.mgr.Kill(p)
	if cycles == 0 {
		t.Fatal("kill consumed no cycles")
	}
	if app.destroyed+mid.destroyed+dev.destroyed != 0 {
		t.Fatal("pathKill ran destructors")
	}
	if d.Heap().OwedBy(&p.Owner) != 0 {
		t.Fatal("domain heap charges not swept")
	}
	e.k.RunFor(1_000_000)
	if e.k.LiveThreads() != 0 {
		t.Fatal("worker thread leaked after kill")
	}
	if e.mgr.Kills != 1 {
		t.Fatal("kill not counted")
	}
}

func TestRefCountDelaysDestroyButNotKill(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	p.Ref()
	e.mgr.Destroy(nil, p)
	if !p.Alive() {
		t.Fatal("destroy proceeded despite reference")
	}
	p.Unref(nil)
	if p.Alive() {
		t.Fatal("pending destroy did not fire at last unref")
	}

	p2 := createPath(t, e)
	p2.Ref()
	e.mgr.Kill(p2)
	if p2.Alive() {
		// kill must ignore references
	} else if p2.RefCnt() != 1 {
		t.Fatal("kill changed refcount semantics")
	}
	if p2.Alive() {
		t.Fatal("pathKill was delayed by a reference")
	}
}

func TestDomainDestructionKillsCrossingPaths(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)
	p := createPath(t, e)
	d, _ := e.k.Domains().ByName("mid")
	e.k.Domains().Destroy(d)
	if p.Alive() {
		t.Fatal("path survived destruction of a domain it crosses")
	}
	e.k.RunFor(1_000_000)
	if e.k.LiveThreads() != 0 {
		t.Fatal("threads leaked")
	}
}

func TestQueueOverflowDropsAndCounts(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	// Without running the kernel, the worker never drains; fill the queue.
	overflow := 0
	for i := 0; i < inQueueCap+10; i++ {
		if err := p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("x"))); errors.Is(err, ErrQueueFull) {
			overflow++
		}
	}
	if overflow != 10 || p.Drops != 10 {
		t.Fatalf("overflow=%d drops=%d, want 10", overflow, p.Drops)
	}
}

// TestWorkQueueBoundAndKmem: the lazily grown work queue keeps the
// fixed bound (the 129th enqueue is dropped and counted), its storage
// is never charged (a path's kmem is pathKmem plus its crossings hash
// plus the kernel objects it spawns, however deep the queue), and
// pathKill frees every queued message.
func TestWorkQueueBoundAndKmem(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)

	// The kernel's charges for a worker thread and its semaphore, read
	// off a bare owner built the same way.
	probe := e.k.NewOwner("probe", core.PathOwner)
	e.k.NewSemaphore(probe, "probe:work", 0)
	e.k.Spawn(probe, "probe:worker", func(*kernel.Ctx) {}, kernel.SpawnOpts{})
	kernelKmem := probe.Counters.Kmem

	p := createPath(t, e)
	hash := uint64(p.route.allowed.MemSize())
	if hash == 0 {
		t.Fatal("per-module domains gave the path no crossings hash")
	}
	if p.staticKmem != pathKmem+hash {
		t.Fatalf("staticKmem = %d, want pathKmem %d + hash %d", p.staticKmem, pathKmem, hash)
	}
	want := pathKmem + hash + kernelKmem
	if got := p.Owner.Counters.Kmem; got != want {
		t.Fatalf("path kmem after create = %d, want %d", got, want)
	}

	src := e.k.KernelOwner()
	before := src.Counters.Kmem
	for i := 0; i < inQueueCap+1; i++ {
		err := p.EnqueueIn(msg.FromBytes(src, []byte("x")))
		if full := i == inQueueCap; full != errors.Is(err, ErrQueueFull) {
			t.Fatalf("enqueue %d: err = %v", i, err)
		}
	}
	if p.Drops != 1 || p.PendingWork() != inQueueCap {
		t.Fatalf("drops=%d pending=%d, want 1 and %d", p.Drops, p.PendingWork(), inQueueCap)
	}
	if got := p.Owner.Counters.Kmem; got != want {
		t.Fatalf("path kmem with a full queue = %d, want %d", got, want)
	}

	e.mgr.Kill(p)
	if p.PendingWork() != 0 {
		t.Fatalf("pending after kill = %d", p.PendingWork())
	}
	if src.Counters.Kmem != before {
		t.Fatalf("queued messages not freed on kill: kmem %d, want %d", src.Counters.Kmem, before)
	}
}

func TestEnqueueOnDeadPathFails(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	e.mgr.Kill(p)
	if err := p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("x"))); !errors.Is(err, ErrPathDead) {
		t.Fatalf("err = %v, want ErrPathDead", err)
	}
	if err := p.EnqueueControl(0, func(*kernel.Ctx, module.Stage) {}); !errors.Is(err, ErrPathDead) {
		t.Fatalf("control err = %v, want ErrPathDead", err)
	}
}

func TestControlItemRunsInStageDomain(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)
	p := createPath(t, e)
	var ranIn string
	err := p.EnqueueControl(1, func(ctx *kernel.Ctx, st module.Stage) {
		ranIn = e.k.Domains().Get(ctx.Thread().CurrentDomain()).Name()
	})
	if err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(50_000_000)
	if ranIn != "PD:mid" {
		t.Fatalf("control ran in %q, want PD:mid", ranIn)
	}
}

func TestFilterDropsNonMatchingTraffic(t *testing.T) {
	app, mid, dev := chain()
	// Creation order: app -> mid -> filter -> dev (filter interposed on
	// the mid/dev edge). Demux travels the other way: dev -> filter -> mid.
	app.next = "mid"
	mid.next = "filter"
	dev.next = ""
	dev.demuxNext = "filter"
	filter := module.NewFilter("filter", "dev", "mid", func(dir module.Direction, m *msg.Msg) bool {
		return len(m.Bytes()) > 0 && m.Bytes()[0] == 'A'
	})

	k := kernel.New(sim.New(), cost.Default(), kernel.Config{Accounting: true})
	t.Cleanup(k.Stop)
	g := module.NewGraph(k)
	g.Add("app", app, "")
	g.Add("mid", mid, "")
	g.Add("filter", filter, "")
	g.Add("dev", dev, "")
	g.Connect("app", "mid", module.AIO)
	g.Connect("mid", "filter", module.AIO)
	g.Connect("filter", "dev", module.AIO)
	mgr := NewManager(g)
	if err := g.Init(mgr, mgr.DeliverInbound); err != nil {
		t.Fatal(err)
	}
	// Path creation passes through the filter like any module.
	p, err := mgr.Create(nil, "p", "app", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages()) != 4 {
		t.Fatalf("stages = %d, want 4 (filter included)", len(p.Stages()))
	}
	_ = p.EnqueueIn(msg.FromBytes(k.KernelOwner(), []byte("Allowed")))
	_ = p.EnqueueIn(msg.FromBytes(k.KernelOwner(), []byte("blocked")))
	k.RunFor(50_000_000)
	if len(app.delivered) != 1 || app.delivered[0] != "up:Allowed" {
		t.Fatalf("app delivered %v", app.delivered)
	}
	if filter.Dropped != 1 {
		t.Fatalf("filter dropped %d", filter.Dropped)
	}
	// Filtered at demux time too.
	m := msg.FromBytes(k.KernelOwner(), []byte("bad"))
	if got, v := mgr.Demux("dev", m); got != nil || v.Kind != module.VerdictReject {
		t.Fatal("filter did not reject at demux")
	}
	m.Free()
}

func TestLedgerConservationThroughPathActivity(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	app.reply = true
	e := buildEnv(t, true, app, mid, dev)
	before := e.k.Ledger().Snapshot(e.k.Engine().Now())
	p := createPath(t, e)
	for i := 0; i < 20; i++ {
		_ = p.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("req")))
	}
	e.k.RunFor(100_000_000)
	e.mgr.Kill(p)
	after := e.k.Ledger().Snapshot(e.k.Engine().Now())
	if d := after.Diff(before); d.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d of %d", d.Unaccounted(), d.Measured)
	}
}

// TestDeadPathReleasesStageGraph: a dead path holds no stage graph, so
// every stage access on it panics instead of reaching torn-down module
// state; pathKill, unlike pathDestroy, calls each stage's Reclaim in
// stage order while the path's owner is still live.
func TestDeadPathReleasesStageGraph(t *testing.T) {
	for _, end := range []string{"Destroy", "Kill"} {
		t.Run(end, func(t *testing.T) {
			app, mid, dev := chain()
			appFirst(app, mid, dev)
			e := buildEnv(t, true, app, mid, dev)
			p := createPath(t, e)
			h := p.Handle(1)
			var want []string
			for _, rec := range p.Stages() {
				want = append(want, rec.Node.Name()+":live")
			}
			var mods []*fakeMod
			for _, rec := range p.Stages() {
				mods = append(mods, rec.Node.Mod().(*fakeMod))
			}
			if end == "Destroy" {
				e.mgr.Destroy(nil, p)
				want = nil
			} else {
				e.mgr.Kill(p)
			}
			var got []string
			for _, f := range mods {
				got = append(got, f.reclaimed...)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Reclaim calls %v, want %v", got, want)
			}
			if len(p.Stages()) != 0 || p.route != nil {
				t.Fatalf("dead path still holds stages=%v route=%v", p.Stages(), p.route)
			}
			for name, op := range map[string]func(){
				"StageAt":  func() { p.StageAt(0) },
				"Handle":   func() { p.Handle(0) },
				"Below":    func() { h.Below() },
				"Above":    func() { h.Above() },
				"SendDown": func() { _ = h.SendDown(nil, msg.FromBytes(e.k.KernelOwner(), []byte("late"))) },
				"SendUp":   func() { _ = h.SendUp(nil, msg.FromBytes(e.k.KernelOwner(), []byte("late"))) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s on a dead path did not panic", name)
						}
					}()
					op()
				}()
			}
		})
	}
}
