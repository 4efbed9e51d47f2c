package policy

import (
	"testing"

	"repro/internal/lib"
	"repro/internal/path"
	"repro/internal/sim"
)

// recycle destroys p, lets its owner retire, and creates the next path,
// which reuses p's storage.
func recycle(t *testing.T, mgr *path.Manager, p *path.Path, name string) *path.Path {
	t.Helper()
	mgr.Destroy(nil, p)
	mgr.Kernel().RunFor(sim.CyclesPerMillisecond / 4)
	q, err := mgr.Create(nil, name, "spin", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatal("the retired path's storage was not reused")
	}
	return q
}

// TestReaperDemotesRecycledPathFirst: the reaper demoted a trickling
// session, then the session ended and its path's storage now serves a
// new session that trickles too. The new session starts at the bottom
// of the ladder — demoted, not killed on the demotion its predecessor
// earned.
func TestReaperDemotesRecycledPathFirst(t *testing.T) {
	const (
		minAge   = 10 * sim.CyclesPerMillisecond
		interval = minAge / 4
	)
	k, mgr := newEnv(t)
	p, err := mgr.Create(nil, "held", "spin", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeConns{now: k.Engine().Now, age: 2 * minAge, path: p.PathRef()}
	r := EnableSessionReaper(k, mgr, src, minAge)
	k.RunFor(interval + interval/2) // first scan: demote
	if r.Demotions != 1 || r.Kills != 0 {
		t.Fatalf("after the first scan: demotions %d kills %d, want 1 and 0", r.Demotions, r.Kills)
	}
	q := recycle(t, mgr, p, "held again")
	src.path = q.PathRef()
	k.RunFor(interval) // second scan judges the new session
	if r.Kills != 0 || r.Demotions != 2 || !q.Alive() {
		t.Fatalf("recycled session: demotions %d kills %d alive %v; want it demoted, not killed",
			r.Demotions, r.Kills, q.Alive())
	}
}

// TestDetectorRecycledPathStartsFromZero: the detector's per-connection
// snapshot of a dead connection must not become the baseline of the new
// connection whose path reuses the storage: the new connection's first
// tick counts all of its cycles and bytes.
func TestDetectorRecycledPathStartsFromZero(t *testing.T) {
	r := newDetectorRig(t)
	ip := lib.IPv4(10, 0, 1, 7)
	p := r.table.open(t, r.mgr, ip)
	r.table.serve(ip, 50_000, 400)
	r.tick()

	r.table.conns = nil
	q := recycle(t, r.mgr, p, "conn again")
	r.table.conns = append(r.table.conns, tcpStats(q, ip))
	r.table.serve(ip, 3_000, 30)
	r.tick()
	st := r.det.srcs[ip]
	if want := int64(q.Owner.Counters.Cycles); st.f.cycles != want || st.f.bytes != 30 {
		t.Fatalf("first tick of the recycled connection: cycles %d bytes %d, want %d and 30",
			st.f.cycles, st.f.bytes, want)
	}
}
