package obs_test

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// naiveSample recomputes a sample's per-group totals the direct way:
// the group function applied to every ledger owner.
func naiveSample(owners []*core.Owner, group func(string) string) obs.Sample {
	s := obs.Sample{
		Cycles: map[string]sim.Cycles{},
		Kmem:   map[string]uint64{},
		Pages:  map[string]uint64{},
	}
	for _, o := range owners {
		g := group(o.Name)
		s.Cycles[g] += o.Counters.Cycles
		s.Kmem[g] += o.Counters.Kmem
		s.Pages[g] += o.Counters.Pages
	}
	return s
}

// TestSamplerMatchesNaiveGrouping: with owners registered between
// samples, counters moving, owners dying and a custom OwnerGroup, every
// memoized sample equals a per-owner recomputation over the ledger as
// it stood at that tick, and subscribers see it before OnSample.
func TestSamplerMatchesNaiveGrouping(t *testing.T) {
	group := func(name string) string {
		if i := strings.IndexByte(name, '/'); i >= 0 {
			return name[:i]
		}
		return name
	}
	calls := 0
	var l core.Ledger
	m := obs.NewSampler(0, func(name string) string {
		calls++
		return group(name)
	})
	m.Bind(&l)
	var order []string
	checked := 0
	m.Subscribe(func(s obs.Sample) {
		order = append(order, "subscriber")
		want := naiveSample(l.Owners(), group)
		if !maps.Equal(s.Cycles, want.Cycles) || !maps.Equal(s.Kmem, want.Kmem) || !maps.Equal(s.Pages, want.Pages) {
			t.Errorf("sample at %d:\n got %v %v %v\nwant %v %v %v", s.At,
				s.Cycles, s.Kmem, s.Pages, want.Cycles, want.Kmem, want.Pages)
		}
		checked++
	})
	m.OnSample = func(obs.Sample) { order = append(order, "OnSample") }

	var now sim.Cycles
	registered := 0
	for tick := 0; tick < 20; tick++ {
		// New owners, some in groups no earlier sample has seen.
		for i := 0; i < tick%4; i++ {
			o := core.NewOwner(fmt.Sprintf("class%d/conn%d", registered%5+tick/5, registered), core.PathOwner)
			l.Register(o)
			registered++
		}
		for i, o := range l.Owners() {
			if o.Dead() {
				continue
			}
			o.Counters.Cycles += sim.Cycles(i + tick)
			o.Counters.Kmem = uint64((i * tick) % 7)
			o.Counters.Pages = uint64(tick % 3)
			if (i+tick)%9 == 0 {
				o.MarkDead()
			}
		}
		now += obs.DefaultMetricsInterval
		m.Poll(now)
	}
	if checked != 20 {
		t.Fatalf("checked %d samples, want 20", checked)
	}
	if calls != registered {
		t.Fatalf("group function ran %d times for %d owners, want once per owner", calls, registered)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "subscriber" || order[i+1] != "OnSample" {
			t.Fatalf("callback order %v", order)
		}
	}
}

// TestSampleCostIndependentOfDeadOwners: a tick's allocations do not
// grow with the number of dead owners the ledger keeps, so a long or
// hostile run does not make sampling costlier in allocations.
func TestSampleCostIndependentOfDeadOwners(t *testing.T) {
	allocs := func(dead int) float64 {
		var l core.Ledger
		l.Register(core.NewOwner("Kernel", core.KernelOwner))
		for i := 0; i < dead; i++ {
			o := core.NewOwner(fmt.Sprintf("Active Path trusted:%d#%d", 1024+i, i+1), core.PathOwner)
			o.Counters.Cycles = sim.Cycles(i)
			o.MarkDead()
			l.Register(o)
		}
		m := obs.NewSampler(0, nil)
		m.Bind(&l)
		var now sim.Cycles
		tick := func() {
			now += obs.DefaultMetricsInterval
			m.Poll(now)
		}
		tick()
		return testing.AllocsPerRun(50, tick)
	}
	few, many := allocs(10), allocs(10_000)
	if many > few {
		t.Fatalf("one sample allocates %.0f times over 10k dead owners, %.0f over 10", many, few)
	}
}
