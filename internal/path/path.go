// Package path implements Scout's path abstraction (§2.2, §3.1) with
// Escort's extensions: the path is both the logical I/O channel through
// the module graph and the owner to which all of its resources are
// charged. A path is created incrementally (each module's open function
// names the next module), identified incrementally at demux time, and
// destroyed either orderly (pathDestroy: module destructors run, in
// initialization order) or summarily (pathKill: every resource across
// every protection domain is reclaimed without running destructors —
// the containment primitive measured in Table 2).
package path

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Path kernel-memory footprints.
const (
	pathKmem    = 1024
	inQueueCap  = 128 // bound on the path's work queue
	workerCount = 1
	maxPathLen  = 32 // bound on the incremental open walk
)

// Errors returned by path operations.
var (
	ErrPathDead  = errors.New("path: path destroyed")
	ErrQueueFull = errors.New("path: input queue full")
	ErrNoEdge    = errors.New("path: modules not connected in graph")
)

type workItem struct {
	m       *msg.Msg
	ctlIdx  int
	ctl     func(ctx *kernel.Ctx, st module.Stage)
	destroy bool
}

type domHook struct {
	d  *domain.Domain
	id int
}

// StageRec pairs a graph node with the stage the module contributed.
type StageRec struct {
	Node  *module.Node
	Stage module.Stage
}

// Path is the path object (Figure 6): the Owner structure is its first
// element, followed by the allowed protection-domain crossings (shared
// with every path over the same route), the stage list, the work queue,
// thread pool, and the reference count that delays pathDestroy (but
// never pathKill). Figure 6 draws four queues, input and output at each
// end; this simulator only ever queues inbound and control work at the
// network end, so a path carries that one.
//
// Once a dead path's owner retires from the ledger, the manager reuses
// the Path, its slices, its work ring and semaphore and its stages for
// a later path. Each use is one generation; anything that names a path
// beyond its death holds a Ref, which goes inert when the generation
// ends, never a bare *Path.
type Path struct {
	Owner core.Owner

	gen     uint64         // generation: bumped when the path retires
	ref     module.PathRef // Ref{p, gen}, boxed once per generation
	name    string
	mgr     *Manager
	route   *route // nil until the open walk completes, and again once dead
	stages  []StageRec
	handles []stageHandle
	b       builder
	work    lib.Ring[workItem] // inbound + control work, grown on demand
	workSem kernel.Semaphore
	refCnt  int

	alive          bool
	pendingDestroy bool
	staticKmem     uint64 // path struct + crossings hash charge
	domHooks       []domHook
	killFn         func()    // domain destroy hook, made once per Path
	workerFn       kernel.Fn // p.worker, bound once per Path
	nextFree       *Path     // manager free-list link

	// Drops counts inbound messages rejected because the input queue was
	// full — the flood backstop.
	Drops uint64

	// Delivered counts inbound messages processed by the thread pool.
	Delivered uint64
}

// PathName returns the path's name.
func (p *Path) PathName() string { return p.name }

// Alive reports whether the path has not been destroyed.
func (p *Path) Alive() bool { return p.alive }

// PathRef returns the reference modules and policies hold to this
// generation of the path.
func (p *Path) PathRef() module.PathRef { return p.ref }

// Ref names one generation of a Path and is the module.PathRef a path
// hands out. When the path retires and its storage serves a new path, a
// Ref to the old generation reports !Alive, refuses work with
// ErrPathDead, has no owner and finds no stage. Refs compare equal only
// within a generation, so state keyed by them (policy scan records)
// never carries over to the next path.
type Ref struct {
	p   *Path
	gen uint64
}

var _ module.PathRef = Ref{}

// current reports whether the referenced generation still occupies the
// Path (live, or dead and not yet retired).
func (r Ref) current() bool { return r.p.gen == r.gen }

// Of returns the live path ref names, or nil when ref is not a path's
// Ref or names a dead or retired generation. ref is usually a
// module.PathRef; the pattern classifier's targets arrive as any.
func Of(ref any) *Path {
	r, ok := ref.(Ref)
	if !ok || !r.Alive() {
		return nil
	}
	return r.p
}

// PathOwner implements module.PathRef; nil once the generation retired.
func (r Ref) PathOwner() *core.Owner {
	if !r.current() {
		return nil
	}
	return &r.p.Owner
}

// PathName implements module.PathRef; "" once the generation retired.
func (r Ref) PathName() string {
	if !r.current() {
		return ""
	}
	return r.p.name
}

// Alive implements module.PathRef.
func (r Ref) Alive() bool { return r.current() && r.p.alive }

// EnqueueIn implements module.PathRef.
func (r Ref) EnqueueIn(m *msg.Msg) error {
	if !r.current() {
		m.Free()
		return ErrPathDead
	}
	return r.p.EnqueueIn(m)
}

// EnqueueControl implements module.PathRef.
func (r Ref) EnqueueControl(idx int, fn func(ctx *kernel.Ctx, st module.Stage)) error {
	if !r.current() {
		return ErrPathDead
	}
	return r.p.EnqueueControl(idx, fn)
}

// FindStage implements module.PathRef.
func (r Ref) FindStage(name string) (int, bool) {
	if !r.current() {
		return 0, false
	}
	return r.p.FindStage(name)
}

// Spawn implements module.PathRef.
func (r Ref) Spawn(name string, fn func(ctx *kernel.Ctx)) {
	if r.current() {
		r.p.Spawn(name, fn)
	}
}

// RequestDestroy implements module.PathRef.
func (r Ref) RequestDestroy() {
	if r.current() {
		r.p.RequestDestroy()
	}
}

// Stages returns the path's stage records.
func (p *Path) Stages() []StageRec { return p.stages }

// StageAt returns the stage at index i.
func (p *Path) StageAt(i int) module.Stage { return p.stages[i].Stage }

// Handle returns the stage handle at index i.
func (p *Path) Handle(i int) module.StageHandle { return &p.handles[i] }

// graph returns the stage records of a live path. A dead path has none
// (see dropPath), so any stage access on it is a bug.
func (p *Path) graph() []StageRec {
	if len(p.stages) == 0 {
		panic("path: stage access on dead path " + p.name)
	}
	return p.stages
}

// FindStage returns the index of the first stage contributed by the
// named module.
func (p *Path) FindStage(name string) (int, bool) {
	for i, rec := range p.stages {
		if rec.Node.Name() == name {
			return i, true
		}
	}
	return 0, false
}

// Spawn starts a thread owned by the path with its allowed-crossings
// table (the CGI handler of §4.1.2 runs this way).
func (p *Path) Spawn(name string, fn func(ctx *kernel.Ctx)) {
	if !p.alive {
		return
	}
	p.mgr.k.Spawn(&p.Owner, name, fn, SpawnOptsForPath(p))
}

// PendingWork returns the depth of the path's inbound work queue: the
// messages and control items accepted but not yet processed. The
// watchdog uses it to distinguish a starved path (work pending, no
// progress) from an idle one.
func (p *Path) PendingWork() int { return p.work.Len() }

// RefCnt returns the current reference count.
func (p *Path) RefCnt() int { return p.refCnt }

// Ref takes a reference, delaying pathDestroy.
func (p *Path) Ref() { p.refCnt++ }

// Unref drops a reference; if a destroy was pending and this was the
// last reference, the orderly teardown proceeds now.
func (p *Path) Unref(ctx *kernel.Ctx) {
	if p.refCnt <= 0 {
		panic("path: Unref below zero")
	}
	p.refCnt--
	if p.refCnt == 0 && p.pendingDestroy && p.alive {
		p.mgr.Destroy(ctx, p)
	}
}

// Domains returns the distinct protection domains the path crosses, in
// stage order. The slice is shared by every path over the same route and
// must not be modified.
func (p *Path) Domains() []*domain.Domain {
	if p.route == nil {
		return nil
	}
	return p.route.domains
}

// EnqueueIn hands an inbound message to the path from interrupt
// context. The enqueue and wakeup costs are charged to the path — part
// of the per-datagram cost visible in the SYN-attack experiment.
func (p *Path) EnqueueIn(m *msg.Msg) error {
	if !p.alive {
		m.Free()
		return ErrPathDead
	}
	k := p.mgr.k
	k.Burn(&p.Owner, k.Model().QueueOp)
	if err := p.work.Enqueue(workItem{m: m}); err != nil {
		p.Drops++
		m.Free()
		return ErrQueueFull
	}
	p.workSem.Signal(&p.Owner)
	return nil
}

// EnqueueControl runs fn on the path's thread in the domain of stage
// idx. TCP timeout processing arrives this way, which is how its cycles
// land on the connection's path (Table 1).
func (p *Path) EnqueueControl(idx int, fn func(ctx *kernel.Ctx, st module.Stage)) error {
	if !p.alive {
		return ErrPathDead
	}
	if idx < 0 || idx >= len(p.stages) {
		panic(fmt.Sprintf("path: control stage index %d out of range", idx))
	}
	k := p.mgr.k
	k.Burn(&p.Owner, k.Model().QueueOp)
	if err := p.work.Enqueue(workItem{ctlIdx: idx, ctl: fn}); err != nil {
		p.Drops++
		return ErrQueueFull
	}
	p.workSem.Signal(&p.Owner)
	return nil
}

// RequestDestroy schedules an orderly pathDestroy from the path's own
// worker thread at top level (outside any domain crossing). Module code
// (TCP connection teardown) uses this because it runs nested inside
// crossings where a direct destroy would deadlock on itself.
func (p *Path) RequestDestroy() {
	if !p.alive {
		return
	}
	if err := p.work.Enqueue(workItem{destroy: true}); err != nil {
		return
	}
	p.workSem.Signal(&p.Owner)
}

// worker is the path thread-pool body: wait for work, process it moving
// messages through the stages.
func (p *Path) worker(ctx *kernel.Ctx) {
	for {
		if err := p.workSem.P(ctx); err != nil {
			return // semaphore destroyed with the path
		}
		item, ok := p.work.Dequeue()
		if !ok {
			continue
		}
		switch {
		case item.destroy:
			p.mgr.Destroy(ctx, p)
			return
		case item.m != nil:
			p.Delivered++
			_ = p.deliverFrom(ctx, len(p.stages)-1, module.Up, item.m)
			item.m.Free()
		case item.ctl != nil:
			rec, ctl := p.stages[item.ctlIdx], item.ctl
			ctx.Cross(rec.Node.Domain().ID(), func() {
				ctl(ctx, rec.Stage)
			})
		}
		// One work item per slice: a well-designed Escort thread yields
		// between units of work, so a backlog (a busy passive path under
		// heavy connection setup) never trips its own runaway limit.
		if p.work.Len() > 0 {
			ctx.Yield()
		}
	}
}

// deliverFrom moves m through the stages starting at idx in direction
// dir, crossing protection domains by nested kernel-mediated calls so a
// six-stage path in the worst-case configuration really performs the
// paper's per-boundary crossings.
func (p *Path) deliverFrom(ctx *kernel.Ctx, idx int, dir module.Direction, m *msg.Msg) error {
	stages := p.graph()
	if idx < 0 || idx >= len(stages) {
		return nil
	}
	rec := stages[idx]
	var err error
	ctx.Cross(rec.Node.Domain().ID(), func() {
		forward, derr := rec.Stage.Deliver(ctx, dir, m)
		if derr != nil || !forward {
			err = derr
			return
		}
		next := idx - 1
		if dir == module.Down {
			next = idx + 1
		}
		err = p.deliverFrom(ctx, next, dir, m)
	})
	return err
}

// stageHandle implements module.StageHandle. A path keeps its handles
// by value in one slice and hands out pointers into it; a handle never
// changes, so a pointer into a backing array the slice has outgrown
// stays correct.
type stageHandle struct {
	p   *Path
	idx int
}

func (h *stageHandle) Path() module.PathRef { return h.p.ref }
func (h *stageHandle) Index() int           { return h.idx }

// SendDown injects m below this stage and frees it when the chain ends.
func (h *stageHandle) SendDown(ctx *kernel.Ctx, m *msg.Msg) error {
	err := h.p.deliverFrom(ctx, h.idx+1, module.Down, m)
	m.Free()
	return err
}

// SendUp injects m above this stage and frees it when the chain ends.
func (h *stageHandle) SendUp(ctx *kernel.Ctx, m *msg.Msg) error {
	err := h.p.deliverFrom(ctx, h.idx-1, module.Up, m)
	m.Free()
	return err
}

func (h *stageHandle) Below() module.Stage {
	stages := h.p.graph()
	if h.idx+1 >= len(stages) {
		return nil
	}
	return stages[h.idx+1].Stage
}

func (h *stageHandle) Above() module.Stage {
	stages := h.p.graph()
	if h.idx == 0 {
		return nil
	}
	return stages[h.idx-1].Stage
}

// builder implements module.PathBuilder during incremental creation;
// one builder serves every stage of a create, pointing at the node being
// opened.
type builder struct {
	p    *Path
	node *module.Node
}

func (b *builder) Kernel() *kernel.Kernel     { return b.p.mgr.k }
func (b *builder) PathOwner() *core.Owner     { return &b.p.Owner }
func (b *builder) Node() *module.Node         { return b.node }
func (b *builder) Handle() module.StageHandle { return &b.p.handles[len(b.p.stages)] }

// Stages returns the stages opened so far in a scratch slice the
// manager reuses on the next call, so a module reads it during
// CreateStage and keeps none of it.
func (b *builder) Stages() []module.Stage {
	mgr := b.p.mgr
	mgr.stageBuf = mgr.stageBuf[:0]
	for _, rec := range b.p.stages {
		mgr.stageBuf = append(mgr.stageBuf, rec.Stage)
	}
	return mgr.stageBuf
}

func (b *builder) NodeAt(i int) *module.Node { return b.p.stages[i].Node }

// Reuse returns the stage the node being opened left at this position
// of the recycled path, if the path's storage is recycled and the node
// matches.
func (b *builder) Reuse() module.Stage {
	p := b.p
	i := len(p.stages)
	if i == cap(p.stages) {
		return nil
	}
	if old := p.stages[:i+1][i]; old.Node == b.node {
		return old.Stage
	}
	return nil
}

// Manager creates, identifies (demux), and destroys paths.
type Manager struct {
	k       *kernel.Kernel
	graph   *module.Graph
	dc      module.DemuxCtx // shared by every demux
	paths   map[*Path]struct{}
	order   []*Path // live paths in creation order (deterministic iteration)
	byOwner map[*core.Owner]*Path
	tracer  *obs.Tracer // resolved once from the kernel; nil when disabled

	failKmem *fault.Point // "kmem.alloc" failpoint, resolved once

	classifier FrameClassifier

	// routes caches every route built so far (see routeFor);
	// routeHint remembers the stage count of the last route opened from
	// each start module, to size the next path's stage slices.
	routes    map[string]*route
	routeHint map[string]int
	keyBuf    []byte         // routeFor's key scratch
	stageBuf  []module.Stage // builder.Stages' scratch

	// free is the LIFO of retired paths whose storage the next create
	// reuses, linked through Path.nextFree. It needs no bound: it never
	// holds more paths than were live at once. dying holds dead paths
	// whose owners have not retired yet.
	free  *Path
	dying []*Path

	// DemuxRejects counts messages dropped during demultiplexing.
	DemuxRejects uint64
	// PatternHits and PatternMisses count classifier outcomes when a
	// pattern demultiplexer is installed.
	PatternHits, PatternMisses uint64
	// Kills counts pathKill invocations.
	Kills uint64
}

// NewManager returns a path manager over the given graph.
func NewManager(g *module.Graph) *Manager {
	mgr := &Manager{
		k:         g.Kernel(),
		graph:     g,
		dc:        module.DemuxCtx{Graph: g},
		paths:     make(map[*Path]struct{}),
		byOwner:   make(map[*core.Owner]*Path),
		routes:    make(map[string]*route),
		routeHint: make(map[string]int),
		tracer:    g.Kernel().Tracer(),
		failKmem:  g.Kernel().FaultSet().Point("kmem.alloc"),
	}
	g.Kernel().Ledger().OnRetire(mgr.ownerRetired)
	return mgr
}

// ownerRetired moves a dying path to the free list once the ledger
// retires its owner: nothing can charge it any more, so its storage may
// serve the next path. The generation ends here, so every Ref to it
// goes inert before the storage is reused.
func (mgr *Manager) ownerRetired(_ int, o *core.Owner) {
	if o.Type != core.PathOwner {
		return
	}
	for i, p := range mgr.dying {
		if &p.Owner == o {
			last := len(mgr.dying) - 1
			mgr.dying[i] = mgr.dying[last]
			mgr.dying[last] = nil
			mgr.dying = mgr.dying[:last]
			p.gen++
			p.ref = nil
			p.nextFree, mgr.free = mgr.free, p
			return
		}
	}
}

// alloc returns a path ready for the open walk: the most recently
// retired one if any, else a new one. Its stage slices hold room for
// hint stages; a recycled path keeps its previous stages beyond the
// (empty) length for builder.Reuse.
func (mgr *Manager) alloc(name string, hint int) *Path {
	p := mgr.free
	if p != nil {
		mgr.free, p.nextFree = p.nextFree, nil
	} else {
		p = &Path{mgr: mgr, work: lib.MakeRing[workItem](inQueueCap)}
		p.workerFn = p.worker
		p.b.p = p
	}
	p.Owner.Reset(name, core.PathOwner)
	p.ref = Ref{p: p, gen: p.gen}
	p.name = name
	if cap(p.stages) < hint {
		p.stages = make([]StageRec, 0, hint)
		p.handles = make([]stageHandle, 0, hint)
	}
	p.refCnt, p.pendingDestroy, p.staticKmem = 0, false, 0
	p.Drops, p.Delivered = 0, 0
	return p
}

// Paths returns the live paths in creation order. The slice is a
// copy, so callers (the watchdog) may kill paths while iterating.
func (mgr *Manager) Paths() []*Path {
	return append([]*Path(nil), mgr.order...)
}

// dropPath removes p from the live-path bookkeeping and empties its
// stage graph, keeping the storage (and the stages, for builder.Reuse)
// until the path is recycled. Stage access on a dead path then fails
// loudly instead of reaching torn-down module state.
func (mgr *Manager) dropPath(p *Path) {
	mgr.bury(p)
	delete(mgr.paths, p)
	delete(mgr.byOwner, &p.Owner)
	for i, q := range mgr.order {
		if q == p {
			mgr.order = append(mgr.order[:i], mgr.order[i+1:]...)
			break
		}
	}
}

// PathByOwner returns the live path whose owner is o (the containment
// policy resolves a runaway thread's owner to its path this way).
func (mgr *Manager) PathByOwner(o *core.Owner) *Path {
	return mgr.byOwner[o]
}

// Kernel returns the kernel.
func (mgr *Manager) Kernel() *kernel.Kernel { return mgr.k }

// Graph returns the module graph.
func (mgr *Manager) Graph() *module.Graph { return mgr.graph }

// Live returns the number of live paths.
func (mgr *Manager) Live() int { return len(mgr.paths) }

var _ module.PathFactory = (*Manager)(nil)

// CreatePath implements module.PathFactory: the pathCreate kernel call.
// The topology is determined incrementally: the kernel invokes the open
// function (CreateStage) of the starting module, which names the next
// module, and so on. Creation cost is charged to the calling context
// (the passive path creating an active path pays for it, as Table 1's
// passive-path row shows); the new path's objects are charged to the
// new owner.
func (mgr *Manager) CreatePath(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (module.PathRef, error) {
	p, err := mgr.create(ctx, name, start, attrs)
	if err != nil {
		return nil, err
	}
	return p.ref, nil
}

// Create is CreatePath returning the concrete type.
func (mgr *Manager) Create(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (*Path, error) {
	return mgr.create(ctx, name, start, attrs)
}

func (mgr *Manager) create(ctx *kernel.Ctx, name, start string, attrs lib.Attrs) (*Path, error) {
	k := mgr.k
	model := k.Model()
	tr := mgr.tracer
	// The allocation failpoint fires before the path owner exists or
	// any charge lands, so a failed create needs no refunds.
	if mgr.failKmem.Fire() {
		if tr != nil {
			tr.Fault("failpoint", name, "kmem.alloc", k.Engine().Now())
		}
		k.FaultCounters().Inc(name)
		return nil, fmt.Errorf("path: create %q: %w", name, fault.ErrInjected)
	}
	var began sim.Cycles
	if tr != nil {
		began = k.Engine().Now()
	}

	hint := mgr.routeHint[start]
	p := mgr.alloc(name, hint)
	k.AdoptOwner(&p.Owner)
	p.Owner.ChargeKmem(pathKmem)
	p.staticKmem = pathKmem

	// Creation cost is charged to the path being created: Table 1 shows
	// the passive path's per-connection share staying small even though
	// it triggers active-path creation.
	charge := func(c sim.Cycles) {
		k.Burn(&p.Owner, c)
	}
	_ = ctx
	charge(model.PathCreate + k.AccountingTax())

	// Incremental open walk, bounded so a miswired graph (a cycle in the
	// open chain) fails loudly instead of building an endless path.
	cur := start
	b := &p.b
	for {
		if len(p.stages) >= maxPathLen {
			mgr.abortCreate(p)
			return nil, fmt.Errorf("path: open chain exceeded %d modules (cycle?)", maxPathLen)
		}
		node, ok := mgr.graph.Node(cur)
		if !ok {
			mgr.abortCreate(p)
			return nil, fmt.Errorf("path: unknown module %q", cur)
		}
		p.handles = append(p.handles, stageHandle{p: p, idx: len(p.stages)})
		b.node = node
		charge(model.PathOpenPerModule)
		st, next, err := node.Mod().CreateStage(b, attrs)
		if err != nil {
			mgr.abortCreate(p)
			return nil, fmt.Errorf("path: open %q: %w", cur, err)
		}
		p.stages = append(p.stages, StageRec{Node: node, Stage: st})
		if next == "" {
			break
		}
		if !node.ConnectedTo(next) {
			mgr.abortCreate(p)
			return nil, fmt.Errorf("%w: %q -> %q", ErrNoEdge, cur, next)
		}
		cur = next
	}

	// Stages an earlier generation left beyond this route's length are
	// not reusable at their positions here; let them go.
	clear(p.stages[len(p.stages):cap(p.stages)])
	if hint != len(p.stages) {
		mgr.routeHint[start] = len(p.stages)
	}
	p.route = mgr.routeFor(p.stages)
	// Every path pays for its crossings table as though it were its
	// own: the cache saves host work, not simulated memory.
	hashKmem := uint64(p.route.allowed.MemSize())
	p.Owner.ChargeKmem(hashKmem)
	p.staticKmem += hashKmem

	// The semaphore and worker names are suffixes of the path's name;
	// the kernel joins them only where a trace or diagnostic reads them.
	k.InitSemaphore(&p.workSem, &p.Owner, ":work", 0)
	for i := 0; i < workerCount; i++ {
		if _, err := k.SpawnChecked(&p.Owner, ":worker", p.workerFn, SpawnOptsForPath(p)); err != nil {
			// A path without its worker pool would hang on arrival;
			// abort and reclaim instead (abortCreate releases every
			// charge made so far).
			mgr.abortCreate(p)
			return nil, fmt.Errorf("path: create %q: %w", name, err)
		}
	}

	// A destroyed protection domain takes every path crossing it down
	// with it (§2.4). Hooks are deregistered when the path dies first.
	for _, d := range p.route.domains {
		if d.Privileged() {
			continue
		}
		if p.killFn == nil {
			p.killFn = func() {
				if p.alive {
					mgr.Kill(p)
				}
			}
		}
		id := d.AddDestroyHook(p.killFn)
		p.domHooks = append(p.domHooks, domHook{d: d, id: id})
	}

	p.alive = true
	mgr.paths[p] = struct{}{}
	mgr.order = append(mgr.order, p)
	mgr.byOwner[&p.Owner] = p
	if tr != nil {
		tr.PathCreate(name, len(p.stages), began, k.Engine().Now())
	}
	return p, nil
}

// SpawnOptsForPath builds the spawn options for a thread executing on
// behalf of path p (exported for the escort assembly's service threads).
func SpawnOptsForPath(p *Path) kernel.SpawnOpts {
	return kernel.SpawnOpts{Allowed: p.route.allowed}
}

// route is what every path over the same chain of graph nodes shares,
// built once and read-only after: the allowed protection-domain
// crossings and the distinct domains crossed.
type route struct {
	allowed *lib.Hash
	domains []*domain.Domain
}

// routeFor returns the cached route for the nodes of stages, building it
// on first use. The key is each node's name and domain ID, so a lookup
// of a route already built allocates nothing.
func (mgr *Manager) routeFor(stages []StageRec) *route {
	key := mgr.keyBuf[:0]
	for _, rec := range stages {
		key = append(key, rec.Node.Name()...)
		key = binary.LittleEndian.AppendUint32(append(key, 0), uint32(rec.Node.Domain().ID()))
	}
	mgr.keyBuf = key
	if r, ok := mgr.routes[string(key)]; ok {
		return r
	}
	// Allowed protection-domain crossings: adjacent stage pairs, both
	// directions (the ICMP example crosses the same domain twice).
	r := &route{allowed: lib.NewHash(8)}
	for i := 1; i < len(stages); i++ {
		a := stages[i-1].Node.Domain().ID()
		b := stages[i].Node.Domain().ID()
		if a != b {
			r.allowed.Put(lib.PairKey(uint32(a), uint32(b)), true)
			r.allowed.Put(lib.PairKey(uint32(b), uint32(a)), true)
		}
	}
	for _, rec := range stages {
		if d := rec.Node.Domain(); !slices.Contains(r.domains, d) {
			r.domains = append(r.domains, d)
		}
	}
	mgr.routes[string(key)] = r
	return r
}

func (mgr *Manager) abortCreate(p *Path) {
	// Partial path: reclaim what was built, without destructors. Stages
	// already opened reclaim their module state first, while the owner
	// is still live, so they can refund their charges (TCP's TCB is the
	// canonical case); then the manager's own static charges come back,
	// leaving the dead owner's books at zero.
	p.reclaimStages()
	p.Owner.RefundKmem(p.staticKmem)
	mgr.k.DestroyOwner(&p.Owner, true)
	mgr.bury(p)
}

// bury empties a dead path's stage graph and queues it to be recycled
// once its owner retires.
func (mgr *Manager) bury(p *Path) {
	p.stages, p.handles, p.route = p.stages[:0], p.handles[:0], nil
	mgr.dying = append(mgr.dying, p)
}

// reclaimStages calls Reclaim on every stage that implements
// module.Reclaimer, in stage order.
func (p *Path) reclaimStages() {
	for _, rec := range p.stages {
		if r, ok := rec.Stage.(module.Reclaimer); ok {
			r.Reclaim()
		}
	}
}

// Destroy is pathDestroy: run each module's destructor in the order the
// stages were initialized (crossing into each module's domain), release
// the path's heap charges in every crossed domain, then free all kernel
// resources. A referenced path destroys when the last reference drops.
func (mgr *Manager) Destroy(ctx *kernel.Ctx, p *Path) {
	if !p.alive {
		return
	}
	if p.refCnt > 0 {
		p.pendingDestroy = true
		return
	}
	p.alive = false
	tr := mgr.tracer
	var began sim.Cycles
	if tr != nil {
		began = mgr.k.Engine().Now()
	}
	model := mgr.k.Model()
	for _, rec := range p.stages {
		rec := rec
		charge := func(c sim.Cycles) {
			if ctx != nil {
				ctx.Use(c)
			} else {
				mgr.k.Burn(mgr.k.KernelOwner(), c)
			}
		}
		charge(model.PathDestroyPerStage)
		if ctx != nil {
			ctx.Cross(rec.Node.Domain().ID(), func() {
				rec.Stage.Destroy(ctx)
			})
		} else {
			rec.Stage.Destroy(nil)
		}
	}
	p.dropDomainHooks()
	p.work.Flush(freeWorkMsg)
	p.releaseDomainCharges(false)
	p.Owner.RefundKmem(p.staticKmem)
	mgr.k.DestroyOwner(&p.Owner, false)
	mgr.dropPath(p)
	if tr != nil {
		tr.PathDestroy(p.name, began, mgr.k.Engine().Now())
	}
}

// Kill is pathKill: reclaim every resource the path owns, in every
// protection domain it crosses — device buffers, IPC, IOBuffer locks,
// threads, heap memory — without invoking destructors and without
// spending the victim's budget (reclamation is charged to the kernel).
// It returns the cycles the teardown consumed: the Table 2 measurement.
func (mgr *Manager) Kill(p *Path) sim.Cycles {
	if !p.alive {
		return 0
	}
	start := mgr.k.Engine().Now()
	p.alive = false
	mgr.Kills++
	p.reclaimStages()
	p.dropDomainHooks()
	p.work.Flush(freeWorkMsg)
	p.releaseDomainCharges(true)
	p.Owner.RefundKmem(p.staticKmem)
	mgr.k.DestroyOwner(&p.Owner, true)
	mgr.dropPath(p)
	reclaimed := mgr.k.Engine().Now() - start
	if tr := mgr.tracer; tr != nil {
		tr.PathKill(p.name, reclaimed, start, mgr.k.Engine().Now())
	}
	return reclaimed
}

// dropDomainHooks deregisters the path's domain destroy hooks.
func (p *Path) dropDomainHooks() {
	for _, h := range p.domHooks {
		if !h.d.Destroyed() {
			h.d.RemoveDestroyHook(h.id)
		}
	}
	p.domHooks = p.domHooks[:0]
}

// freeWorkMsg frees a message still queued for a dying path.
func freeWorkMsg(item workItem) {
	if item.m != nil {
		item.m.Free()
	}
}

// releaseDomainCharges frees the path's heap objects in every crossed
// domain. Under pathKill the kernel does the sweep itself (and pays the
// per-domain visit the paper's Table 2 numbers reflect); under orderly
// destroy the module destructors have normally done it already and this
// is a backstop.
func (p *Path) releaseDomainCharges(kill bool) {
	k := p.mgr.k
	model := k.Model()
	for _, d := range p.Domains() {
		freed := d.Heap().ReleaseFor(&p.Owner)
		if kill && !d.Privileged() {
			k.Burn(k.KernelOwner(), model.PathKillPerDomain)
		}
		_ = freed
	}
}
