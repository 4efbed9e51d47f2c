package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Ledger is the registry of all owners in a running system. It exists so
// experiments can take before/after snapshots and produce the paper's
// Table 1 breakdown, and so the invariant "Total Accounted == Total
// Measured" can be checked: every cycle the engine advances is charged to
// exactly one owner, so summing the ledger must reproduce the clock.
//
// The ledger bounds its own state: a dead owner that has given every
// resource back retires (see Retire), folding its cycles into a
// tombstone total for its name, so the owner list holds only live
// owners and dead ones still waiting to retire. The zero value is an
// empty ledger.
type Ledger struct {
	owners    []*Owner
	tombstone map[string]sim.Cycles // retired owners' cycles, by name
	onRetire  []func(i int, o *Owner)
}

// Register adds an owner to the ledger. An owner stays registered after
// death until it retires.
func (l *Ledger) Register(o *Owner) {
	l.owners = append(l.owners, o)
}

// Owners returns the live owners and the dead owners not yet retired, in
// registration order. The slice is the ledger's own; do not modify it.
func (l *Ledger) Owners() []*Owner { return l.owners }

// OnRetire registers fn to run as each owner retires, before its record
// leaves the owner list: i is its index in Owners() at that moment.
// Observers that keep state parallel to Owners() (the metrics sampler's
// group memo) and owners' containers (the path manager's free list)
// hook in here.
func (l *Ledger) OnRetire(fn func(i int, o *Owner)) {
	l.onRetire = append(l.onRetire, fn)
}

// Retire removes a retirable owner (see Owner.Retirable) from the owner
// list and folds its cycles into its name's tombstone, so snapshots
// keep counting them. It panics if o is not retirable or not
// registered: a retired owner's storage may be reused at once, so
// nothing may charge it again.
func (l *Ledger) Retire(o *Owner) {
	if !o.Retirable() {
		panic(fmt.Sprintf("core: retire of %q, which still holds resources", o.Name))
	}
	i := slices.Index(l.owners, o)
	if i < 0 {
		panic(fmt.Sprintf("core: retire of unregistered owner %q", o.Name))
	}
	for _, fn := range l.onRetire {
		fn(i, o)
	}
	if l.tombstone == nil {
		l.tombstone = make(map[string]sim.Cycles)
	}
	l.tombstone[o.Name] += o.Counters.Cycles
	l.owners = slices.Delete(l.owners, i, i+1)
}

// Find returns the first live owner with the given name.
func (l *Ledger) Find(name string) *Owner {
	for _, o := range l.owners {
		if o.Name == name && !o.Dead() {
			return o
		}
	}
	return nil
}

// Snapshot captures per-owner cycle counts at an instant.
type Snapshot struct {
	At     sim.Cycles
	Cycles map[string]sim.Cycles // owner name -> cumulative cycles
}

// Snapshot captures the current cycle counters. Owners sharing a name (a
// path name reused across connections) are summed, retired ones through
// their name's tombstone.
func (l *Ledger) Snapshot(now sim.Cycles) Snapshot {
	s := Snapshot{At: now, Cycles: make(map[string]sim.Cycles, len(l.owners)+len(l.tombstone))}
	for name, c := range l.tombstone {
		s.Cycles[name] = c
	}
	for _, o := range l.owners {
		s.Cycles[o.Name] += o.Counters.Cycles
	}
	return s
}

// Delta is the difference between two snapshots: the Table 1 measurement.
type Delta struct {
	Measured sim.Cycles            // wall-clock cycles between the snapshots
	ByOwner  map[string]sim.Cycles // cycles charged per owner name
}

// Diff subtracts an earlier snapshot from a later one.
func (later Snapshot) Diff(earlier Snapshot) Delta {
	d := Delta{
		Measured: later.At - earlier.At,
		ByOwner:  make(map[string]sim.Cycles),
	}
	names := make([]string, 0, len(later.Cycles))
	for name := range later.Cycles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := later.Cycles[name]
		prev := earlier.Cycles[name]
		if c > prev {
			d.ByOwner[name] = c - prev
		}
	}
	return d
}

// Accounted sums all per-owner charges in the delta.
func (d Delta) Accounted() sim.Cycles {
	var total sim.Cycles
	for _, c := range d.ByOwner {
		total += c
	}
	return total
}

// Unaccounted returns Measured minus Accounted. Zero means the accounting
// mechanism captured 100% of the cycles, the paper's headline claim.
func (d Delta) Unaccounted() int64 {
	return int64(d.Measured) - int64(d.Accounted())
}

// Format renders the delta in the style of Table 1: each owner's cycles
// and percentage of the measured total, sorted by descending share.
func (d Delta) Format() string {
	type row struct {
		name string
		c    sim.Cycles
	}
	rows := make([]row, 0, len(d.ByOwner))
	for name, c := range d.ByOwner {
		rows = append(rows, row{name, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].c != rows[j].c {
			return rows[i].c > rows[j].c
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14d\n", "Total Measured", d.Measured)
	for _, r := range rows {
		pct := 0.0
		if d.Measured > 0 {
			pct = 100 * float64(r.c) / float64(d.Measured)
		}
		fmt.Fprintf(&b, "%-28s %14d (%.0f%%)\n", r.name, r.c, pct)
	}
	fmt.Fprintf(&b, "%-28s %14d (%.0f%%)\n", "Total Accounted", d.Accounted(),
		100*float64(d.Accounted())/float64(maxCycles(d.Measured, 1)))
	return b.String()
}

func maxCycles(a, b sim.Cycles) sim.Cycles {
	if a > b {
		return a
	}
	return b
}
