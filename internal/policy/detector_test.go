package policy

import (
	"strings"
	"testing"

	"repro/internal/lib"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/path"
	"repro/internal/proto/tcp"
	"repro/internal/sim"
)

// fakeDemand is a DemandSource whose per-source SYN totals the test
// sets directly; sources report in insertion order.
type fakeDemand struct {
	ips  []uint32
	syns map[uint32]uint64
}

func (f *fakeDemand) add(ip uint32, n uint64) {
	if f.syns == nil {
		f.syns = make(map[uint32]uint64)
	}
	if _, ok := f.syns[ip]; !ok {
		f.ips = append(f.ips, ip)
	}
	f.syns[ip] += n
}

func (f *fakeDemand) EachSrcDemand(fn func(uint32, tcp.SrcDemand)) {
	for _, ip := range f.ips {
		fn(ip, tcp.SrcDemand{Syns: f.syns[ip]})
	}
}

// fakeTable is a SessionSource over real paths whose owner cycles and
// byte counts the test advances by hand between ticks.
type fakeTable struct{ conns []tcp.ConnStats }

func (f *fakeTable) EachConn(fn func(tcp.ConnStats)) {
	for _, cs := range f.conns {
		fn(cs)
	}
}

// open adds one established connection from ip on a fresh path.
func (f *fakeTable) open(t *testing.T, mgr *path.Manager, ip uint32) *path.Path {
	t.Helper()
	p, err := mgr.Create(nil, "conn "+lib.FormatIPv4(ip), "spin", lib.Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	f.conns = append(f.conns, tcp.ConnStats{Path: module.PathRef(p),
		State: tcp.StateEstablished, RemoteIP: ip})
	return p
}

// serve charges every connection from ip the given cycles and bytes.
func (f *fakeTable) serve(ip uint32, cycles sim.Cycles, bytes uint64) {
	for i := range f.conns {
		if cs := &f.conns[i]; cs.RemoteIP == ip {
			cs.Path.PathOwner().ChargeCycles(cycles)
			cs.BytesOut += bytes
		}
	}
}

// detectorRig drives a detector's 10 ms tick through a sampler's Poll,
// the way the kernel's scheduler loop does, with a one-tick warm-up:
// the first tick only learns, every later one judges.
type detectorRig struct {
	det   *Detector
	m     *obs.Metrics
	now   sim.Cycles
	table *fakeTable
	dem   *fakeDemand
	mgr   *path.Manager
}

func newDetectorRig(t *testing.T) *detectorRig {
	t.Helper()
	k, mgr := newEnv(t)
	r := &detectorRig{table: &fakeTable{}, dem: &fakeDemand{}, mgr: mgr}
	r.m = obs.NewSampler(0, nil)
	r.m.Bind(k.Ledger())
	r.det = EnableDetector(k, mgr, r.table, r.dem, r.m, DetectorConfig{Warmup: 1})
	return r
}

func (r *detectorRig) tick() {
	r.now += obs.DefaultMetricsInterval
	r.m.Poll(r.now)
}

// rows returns the decision log's action column, header excluded.
func (r *detectorRig) rows() []string {
	lines := strings.Split(strings.TrimSuffix(string(r.det.DecisionLog()), "\n"), "\n")
	var acts []string
	for _, l := range lines[1:] {
		acts = append(acts, strings.Split(l, ",")[1])
	}
	return acts
}

func count(acts []string, action string) int {
	n := 0
	for _, a := range acts {
		if a == action {
			n++
		}
	}
	return n
}

// TestEwmaAbove pins the baseline test's three gates: too few
// observations never fire, a deviation at or under the absolute floor
// never fires, and past the floor the variance test is strict.
func TestEwmaAbove(t *testing.T) {
	var e ewma
	for i := 0; i < ewmaMinObs-1; i++ {
		e.update(10)
	}
	if e.above(1_000_000, 1, 0) {
		t.Fatalf("fired after %d observations; the gate is %d", e.n, ewmaMinObs)
	}
	e.update(10)
	if !e.above(1_000_000, 1, 0) {
		t.Fatalf("did not fire after %d observations", e.n)
	}

	// Zero variance: only the floor stands between noise and a verdict.
	if e.above(10+5, 4, 5) {
		t.Fatal("deviation equal to the floor fired")
	}
	if !e.above(10+6, 4, 5) {
		t.Fatal("deviation one past the floor did not fire on zero variance")
	}

	// mean 100, variance 25, K 2: K²·var = 100, so a deviation of 10
	// (dev² = 100) sits exactly on the edge and must not fire.
	e = ewma{n: ewmaMinObs, mean: 100 << fpShift, vari: 25 << fpShift}
	if e.above(110, 2, 0) {
		t.Fatal("dev² == K²·var fired; the test is strict")
	}
	if !e.above(111, 2, 0) {
		t.Fatal("dev² > K²·var did not fire")
	}
	if e.above(90, 2, 0) {
		t.Fatal("a deviation below the mean fired")
	}
}

// TestDetectorForgiveness walks a demand-only source up the ladder,
// then lets it go quiet: detectorForgiveTicks clean ticks lift its
// shed and write exactly one forgive row.
func TestDetectorForgiveness(t *testing.T) {
	r := newDetectorRig(t)
	var boxed []uint32
	r.det.OnOffender = func(ip uint32) { boxed = append(boxed, ip) }
	src := lib.IPv4(192, 168, 1, 1)

	// Warm-up tick plus three judged ticks of a zero-byte flood:
	// demote, shed, box.
	for i := 0; i < 4; i++ {
		r.dem.add(src, asymMinArrivals)
		r.tick()
	}
	if got := r.rows(); strings.Join(got, " ") != "demote shed box" {
		t.Fatalf("ladder rows = %v, want demote shed box", got)
	}
	if len(boxed) != 1 || boxed[0] != src {
		t.Fatalf("boxed = %v", boxed)
	}

	// The flood stops. The source still reports (no new arrivals), so
	// every tick is clean; the shed holds until the last one.
	for i := 0; i < detectorForgiveTicks-1; i++ {
		r.tick()
	}
	if !r.det.SourceShed(src) {
		t.Fatalf("shed lifted after %d clean ticks; forgiveness takes %d",
			detectorForgiveTicks-1, detectorForgiveTicks)
	}
	r.tick()
	if r.det.SourceShed(src) {
		t.Fatalf("still shed after %d clean ticks", detectorForgiveTicks)
	}
	for i := 0; i < 2*detectorForgiveTicks; i++ {
		r.tick()
	}
	if n := count(r.rows(), "forgive"); n != 1 {
		t.Fatalf("forgive rows = %d, want 1:\n%s", n, r.det.DecisionLog())
	}
}

// TestDetectorKillNeedsAsymmetry turns a known client heavy in cycles
// and bytes alike: the z-test flags it, so it is demoted and shed, but
// its cost per byte stays sane and the kill rung never fires.
func TestDetectorKillNeedsAsymmetry(t *testing.T) {
	r := newDetectorRig(t)
	heavy := lib.IPv4(10, 0, 1, 1)
	hp := r.table.open(t, r.mgr, heavy)
	var legit []uint32
	for i := 0; i < 20; i++ {
		ip := lib.IPv4(10, 0, 2, byte(i+1))
		legit = append(legit, ip)
		r.table.open(t, r.mgr, ip)
	}
	serve := func(heavyCycles sim.Cycles, heavyBytes uint64) {
		r.table.serve(heavy, heavyCycles, heavyBytes)
		for _, ip := range legit {
			r.table.serve(ip, 10_000, 1000)
		}
		r.tick()
	}
	for i := 0; i < 2*ewmaMinObs; i++ {
		serve(10_000, 1000)
	}
	if r.det.Flagged != 0 {
		t.Fatalf("flagged %d sources on uniform traffic", r.det.Flagged)
	}

	// 100x the cycles and 10x the bytes: loud, but 100 cycles a byte.
	for i := 0; i < 100; i++ {
		serve(1_000_000, 10_000)
	}
	acts := r.rows()
	if count(acts, "demote") != 1 || count(acts, "shed") != 1 {
		t.Fatalf("heavy user not demoted and shed once: %v", acts)
	}
	if !r.det.SourceShed(heavy) {
		t.Fatal("heavy user not shed")
	}
	if n := count(acts, "kill") + count(acts, "box"); n != 0 || r.det.Kills != 0 || !hp.Alive() {
		t.Fatalf("heavy user killed without asymmetry: rows %v, kills %d", acts, r.det.Kills)
	}
	if r.det.Flagged != 1 {
		t.Fatalf("flagged = %d; only the heavy user deviates", r.det.Flagged)
	}
}

// TestDetectorEscalationsMatchActions is the accounting contract of
// the ladder: every counted escalation took an action and wrote a
// decision row. A demand-only source without a penalty box has nothing
// to kill, so its kill rung must not count — nor may the idle rung
// block a real kill once the source owns a live path.
func TestDetectorEscalationsMatchActions(t *testing.T) {
	r := newDetectorRig(t)
	src := lib.IPv4(192, 168, 1, 2)
	for i := 0; i < 6; i++ {
		r.dem.add(src, asymMinArrivals)
		r.tick()
	}
	acts := r.rows()
	if got := uint64(len(acts) - count(acts, "forgive")); r.det.Escalations != got {
		t.Fatalf("Escalations = %d, decision rows = %v", r.det.Escalations, acts)
	}

	p := r.table.open(t, r.mgr, src)
	r.dem.add(src, asymMinArrivals)
	r.tick()
	if p.Alive() || r.det.Kills != 1 {
		t.Fatalf("source with a live path not killed: kills %d, rows %v", r.det.Kills, r.rows())
	}
	acts = r.rows()
	if got := uint64(len(acts) - count(acts, "forgive")); r.det.Escalations != got {
		t.Fatalf("Escalations = %d, decision rows = %v", r.det.Escalations, acts)
	}
}
