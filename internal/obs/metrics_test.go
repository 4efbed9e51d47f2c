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
// it stood at that tick, and subscribers see it in registration order.
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
	m.Subscribe(func(obs.Sample) { order = append(order, "second") })

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
		if order[i] != "subscriber" || order[i+1] != "second" {
			t.Fatalf("callback order %v", order)
		}
	}
}

// TestSampleCostIndependentOfDeadOwners: owners that died and retired
// from the ledger cost a sample nothing. With 10 or 10,000 retired
// connection owners behind it, one sample allocates the same, the
// group memo holds only the registered owners, and the group totals
// still include every retired owner's cycles.
func TestSampleCostIndependentOfDeadOwners(t *testing.T) {
	const live = 8
	measure := func(dead int) (allocs float64, memo int, s obs.Sample) {
		var l core.Ledger
		m := obs.NewSampler(0, nil)
		m.Bind(&l)
		for _, name := range []string{"Idle", "Softclock", "Passive SYN Path (trusted)"} {
			l.Register(core.NewOwner(name, core.KernelOwner))
		}
		var now sim.Cycles
		for i := 0; i < live; i++ {
			o := core.NewOwner(fmt.Sprintf("Active Path trusted:%d#%d", 2000+i, i), core.PathOwner)
			l.Register(o)
			o.ChargeCycles(1000)
		}
		for i := 0; i < dead; i++ {
			o := core.NewOwner(fmt.Sprintf("Active Path trusted:%d#%d", 3000+i%50000, live+i), core.PathOwner)
			l.Register(o)
			o.ChargeCycles(3)
			o.MarkDead()
			if i%7 == 0 { // some owners are sampled before they retire
				now += obs.DefaultMetricsInterval
				m.Poll(now)
			}
			l.Retire(o)
		}
		now += obs.DefaultMetricsInterval
		m.Poll(now)
		allocs = testing.AllocsPerRun(50, func() {
			now += obs.DefaultMetricsInterval
			m.Poll(now)
		})
		samples := m.Samples()
		return allocs, len(l.Owners()), samples[len(samples)-1]
	}
	a1, n1, s1 := measure(10)
	a2, n2, s2 := measure(10_000)
	if a1 != a2 {
		t.Errorf("a sample allocates %.0f times behind 10 retired owners, %.0f behind 10,000", a1, a2)
	}
	if n1 != 3+live || n2 != 3+live {
		t.Errorf("ledger holds %d and %d owners, want %d live ones", n1, n2, 3+live)
	}
	for dead, s := range map[int]obs.Sample{10: s1, 10_000: s2} {
		if got, want := s.Cycles["Active Paths (trusted)"], sim.Cycles(live*1000+3*dead); got != want {
			t.Errorf("%d retired owners: group cycles %d, want %d", dead, got, want)
		}
	}
}
