package path

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/msg"
	"repro/internal/sim"
)

// settle runs the kernel long enough for a destroyed path's worker to
// exit and for its owner to retire at a scheduler-loop boundary.
func settle(e *env) { e.k.RunFor(sim.CyclesPerMillisecond) }

func registered(e *env, p *Path) bool {
	return slices.Contains(e.k.Ledger().Owners(), &p.Owner)
}

// TestRetiredPathIsRecycled: once a destroyed path's owner retires from
// the ledger, the next create reuses its storage as a fresh path, with
// clean books and a new generation.
func TestRetiredPathIsRecycled(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, true, app, mid, dev)
	p := createPath(t, e)
	kmem := p.Owner.Counters.Kmem
	gen := p.gen
	e.mgr.Destroy(nil, p)
	if !registered(e, p) {
		t.Fatal("owner left the ledger before its worker exited")
	}
	settle(e)
	if registered(e, p) {
		t.Fatal("a dead owner with nothing left did not retire")
	}
	q, err := e.mgr.Create(nil, "p1", "app", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatal("the retired path's storage was not reused")
	}
	if q.gen != gen+1 || q.PathName() != "p1" || q.Owner.Name != "p1" || q.Owner.Dead() ||
		q.Owner.Counters.Kmem != kmem || len(q.Stages()) != 3 || !q.Alive() {
		t.Fatalf("recycled path: gen %d (was %d) name %q owner %v kmem %d (want %d) stages %d",
			q.gen, gen, q.PathName(), &q.Owner, q.Owner.Counters.Kmem, kmem, len(q.Stages()))
	}
	// The recycled path works end to end.
	if err := q.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("again"))); err != nil {
		t.Fatal(err)
	}
	settle(e)
	if q.Delivered != 1 {
		t.Fatalf("recycled path delivered %d messages, want 1", q.Delivered)
	}
}

// TestStaleRefAfterRecycle: a reference to a path that was destroyed and
// whose storage now serves a new path names nothing: it is not alive,
// refuses work with ErrPathDead, has no owner (in particular not the new
// path's) and finds no stage, and it never equals the new path's
// reference.
func TestStaleRefAfterRecycle(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	stale := p.PathRef()
	e.mgr.Destroy(nil, p)
	settle(e)
	q, err := e.mgr.Create(nil, "p1", "app", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatal("the retired path's storage was not reused")
	}
	fresh := q.PathRef()
	if stale.Alive() {
		t.Error("stale reference reports alive")
	}
	kmem := e.k.KernelOwner().Counters.Kmem
	if err := stale.EnqueueIn(msg.FromBytes(e.k.KernelOwner(), []byte("late"))); !errors.Is(err, ErrPathDead) {
		t.Errorf("EnqueueIn through a stale reference: %v, want ErrPathDead", err)
	}
	if got := e.k.KernelOwner().Counters.Kmem; got != kmem {
		t.Errorf("refused message not freed: kernel kmem %d, want %d", got, kmem)
	}
	if err := stale.EnqueueControl(0, func(*kernel.Ctx, module.Stage) {
		t.Error("control item ran through a stale reference")
	}); !errors.Is(err, ErrPathDead) {
		t.Errorf("EnqueueControl through a stale reference: %v, want ErrPathDead", err)
	}
	if o := stale.PathOwner(); o != nil {
		t.Errorf("stale reference owner %v (new path's owner is %p)", o, &q.Owner)
	}
	if _, ok := stale.FindStage("mid"); ok {
		t.Error("stale reference found a stage")
	}
	if stale.PathName() != "" {
		t.Errorf("stale reference name %q", stale.PathName())
	}
	stale.RequestDestroy()
	stale.Spawn("late", func(*kernel.Ctx) { t.Error("thread spawned through a stale reference") })
	settle(e)
	if !q.Alive() || q.work.Len() != 0 {
		t.Fatal("stale reference reached the new path")
	}
	if stale == fresh || Of(stale) != nil || Of(fresh) != q || !fresh.Alive() {
		t.Fatalf("references: stale==fresh %v, Of(stale) %v, Of(fresh)==q %v", stale == fresh, Of(stale), Of(fresh) == q)
	}
}

// TestLeakingPathNeverRecycled: a dead path whose owner still holds a
// charge never retires, so it stays in the ledger for leak checks to
// find, and its storage is never handed to a new path.
func TestLeakingPathNeverRecycled(t *testing.T) {
	app, mid, dev := chain()
	appFirst(app, mid, dev)
	e := buildEnv(t, false, app, mid, dev)
	p := createPath(t, e)
	p.Owner.ChargeKmem(64) // never refunded: a leak
	e.mgr.Kill(p)
	settle(e)
	if !registered(e, p) {
		t.Fatal("a leaking dead owner retired")
	}
	q, err := e.mgr.Create(nil, "p1", "app", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("a leaking path's storage was reused")
	}
}
