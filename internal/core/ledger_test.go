package core

import (
	"strings"
	"testing"

	"repro/internal/lib"
	"repro/internal/sim"
)

// Dead owners stay registered (their history remains visible), so a delta
// spanning an owner's death must still account its cycles — including a
// final teardown charge landing after MarkDead.
func TestDiffAccountsDeadOwners(t *testing.T) {
	var l Ledger
	path := NewOwner("Path A", PathOwner)
	kern := NewOwner("Kernel", KernelOwner)
	l.Register(path)
	l.Register(kern)

	before := l.Snapshot(0)
	path.ChargeCycles(700)
	kern.ChargeCycles(200)
	path.MarkDead()
	path.ChargeCycles(100) // teardown tail, after death
	after := l.Snapshot(1000)

	d := after.Diff(before)
	if got := d.ByOwner["Path A"]; got != 800 {
		t.Errorf("dead owner charged %d cycles, want 800", got)
	}
	if got := d.Accounted(); got != 1000 {
		t.Errorf("Accounted() = %d, want 1000", got)
	}
	if got := d.Unaccounted(); got != 0 {
		t.Errorf("Unaccounted() = %d, want 0", got)
	}
}

// An owner registered between the snapshots appears only in the later
// one; Diff must treat its earlier count as zero, not skip it.
func TestDiffOwnerOnlyInLaterSnapshot(t *testing.T) {
	var l Ledger
	kern := NewOwner("Kernel", KernelOwner)
	l.Register(kern)

	before := l.Snapshot(0)
	mid := NewOwner("Path B", PathOwner)
	l.Register(mid)
	mid.ChargeCycles(300)
	kern.ChargeCycles(50)
	after := l.Snapshot(350)

	d := after.Diff(before)
	if got := d.ByOwner["Path B"]; got != 300 {
		t.Errorf("new owner charged %d cycles, want 300", got)
	}
	if got := d.Unaccounted(); got != 0 {
		t.Errorf("Unaccounted() = %d, want 0", got)
	}
}

// Owners with no new charges contribute nothing: ByOwner holds only
// owners that burned cycles in the window, and Unaccounted can go
// negative only through a clock bug (it is signed so such a bug shows).
func TestDiffIdleOwnersOmitted(t *testing.T) {
	var l Ledger
	idle := NewOwner("Idle", IdleOwner)
	busy := NewOwner("Busy", PathOwner)
	l.Register(idle)
	l.Register(busy)
	idle.ChargeCycles(400) // pre-window history

	before := l.Snapshot(400)
	busy.ChargeCycles(100)
	after := l.Snapshot(500)

	d := after.Diff(before)
	if _, ok := d.ByOwner["Idle"]; ok {
		t.Errorf("idle owner present in ByOwner: %v", d.ByOwner)
	}
	if got := d.Accounted(); got != 100 {
		t.Errorf("Accounted() = %d, want 100", got)
	}
}

// Same-named owners (a path name reused across connections) are summed
// into one snapshot entry, dead or alive.
func TestSnapshotSumsSameNamedOwners(t *testing.T) {
	var l Ledger
	c1 := NewOwner("conn", PathOwner)
	c2 := NewOwner("conn", PathOwner)
	l.Register(c1)
	l.Register(c2)
	c1.ChargeCycles(10)
	c1.MarkDead()
	c2.ChargeCycles(20)

	s := l.Snapshot(sim.Cycles(30))
	if got := s.Cycles["conn"]; got != 30 {
		t.Errorf("summed cycles = %d, want 30", got)
	}
	if l.Find("conn") != c2 {
		t.Errorf("Find should skip the dead instance and return the live one")
	}
}

// Format always reports the measured total and the accounted percentage,
// even for an empty window (no division by zero).
func TestFormatEmptyDelta(t *testing.T) {
	d := Delta{Measured: 0, ByOwner: map[string]sim.Cycles{}}
	out := d.Format()
	if !strings.Contains(out, "Total Measured") || !strings.Contains(out, "Total Accounted") {
		t.Errorf("Format() missing totals:\n%s", out)
	}
}

// TestRetireFoldsCyclesIntoTombstone: a retired owner leaves the owner
// list, but snapshots keep counting its cycles under its name, so a
// delta across the retirement is what it would have been without it.
func TestRetireFoldsCyclesIntoTombstone(t *testing.T) {
	var l Ledger
	a := NewOwner("Active Path a", PathOwner)
	b := NewOwner("Active Path b", PathOwner)
	kern := NewOwner("Kernel", KernelOwner)
	l.Register(a)
	l.Register(b)
	l.Register(kern)
	var hooked []string
	l.OnRetire(func(i int, o *Owner) {
		if l.Owners()[i] != o {
			t.Errorf("hook index %d names %q, not %q", i, l.Owners()[i].Name, o.Name)
		}
		hooked = append(hooked, o.Name)
	})

	before := l.Snapshot(0)
	a.ChargeCycles(300)
	b.ChargeCycles(200)
	kern.ChargeCycles(500)
	a.MarkDead()
	a.ChargeCycles(10) // teardown tail, before retirement
	l.Retire(a)
	after := l.Snapshot(1010)

	if got := len(l.Owners()); got != 2 || l.Owners()[0] != b || l.Owners()[1] != kern {
		t.Fatalf("owners after retirement: %v", l.Owners())
	}
	if len(hooked) != 1 || hooked[0] != "Active Path a" {
		t.Fatalf("retire hook saw %v", hooked)
	}
	d := after.Diff(before)
	if d.ByOwner["Active Path a"] != 310 || d.Unaccounted() != 0 {
		t.Fatalf("delta across retirement: %v, unaccounted %d", d.ByOwner, d.Unaccounted())
	}
	// A later owner with the same name sums with the tombstone.
	a2 := NewOwner("Active Path a", PathOwner)
	l.Register(a2)
	a2.ChargeCycles(5)
	if got := l.Snapshot(1015).Cycles["Active Path a"]; got != 315 {
		t.Fatalf("name reused after retirement sums to %d, want 315", got)
	}
	if l.Find("Active Path a") != a2 {
		t.Fatal("Find does not return the live owner")
	}
}

// TestRetireRefusesOwnersThatHoldResources: only a dead owner with
// every counter and tracking list at zero and nothing pinned may retire.
func TestRetireRefusesOwnersThatHoldResources(t *testing.T) {
	for name, setup := range map[string]func(o *Owner){
		"live":    func(o *Owner) {},
		"kmem":    func(o *Owner) { o.ChargeKmem(8); o.MarkDead() },
		"pinned":  func(o *Owner) { o.Pin(); o.MarkDead() },
		"stacks":  func(o *Owner) { o.ChargeStacks(1); o.MarkDead() },
		"tracked": func(o *Owner) { o.Track(TrackEvents, &lib.Node{Value: nopTracked{}}); o.MarkDead() },
	} {
		t.Run(name, func(t *testing.T) {
			var l Ledger
			o := NewOwner("o", PathOwner)
			l.Register(o)
			setup(o)
			if o.Retirable() {
				t.Fatal("owner holding resources reports retirable")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("Retire accepted an owner holding resources")
				}
				if len(l.Owners()) != 1 {
					t.Fatal("refused owner left the ledger")
				}
			}()
			l.Retire(o)
		})
	}
	o := NewOwner("o", PathOwner)
	o.Pin()
	o.MarkDead()
	o.Unpin()
	if !o.Retirable() {
		t.Fatal("an unpinned dead owner with clean books is not retirable")
	}
}

type nopTracked struct{}

func (nopTracked) ReleaseOwned(bool) {}

// TestResetKeepsSchedulingState: a reused owner keeps its scheduling
// state's storage but starts from a fresh owner's values.
func TestResetKeepsSchedulingState(t *testing.T) {
	o := NewOwner("old", PathOwner)
	st := &fakeSched{dirty: true}
	o.Sched = st
	o.ChargeCycles(7)
	o.Limits.MaxKmem = 9
	o.MarkDead()
	o.Reset("new", DomainOwner)
	if o.Name != "new" || o.Type != DomainOwner || o.Dead() || o.Counters != (Counters{}) ||
		o.Limits != (Limits{}) || o.Sched != st || st.dirty {
		t.Fatalf("reset owner: %+v", o)
	}
}

type fakeSched struct{ dirty bool }

func (s *fakeSched) ResetSched() { s.dirty = false }
