package escort

import (
	"runtime/debug"
	"testing"

	"repro/internal/cost"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"

	ethmod "repro/internal/proto/eth"
	tcpmod "repro/internal/proto/tcp"
)

// activePathCycle returns one pathCreate of the active route a trusted
// connection opens (scsi down to eth), its orderly pathDestroy, and the
// kernel run that lets the path's worker exit. Each call takes the next
// remote port, as successive connections do.
func activePathCycle(tb testing.TB, srv *Server) func() {
	k := srv.K
	live := k.LiveThreads()
	attrs := lib.Attrs{
		lib.AttrRemoteIP:    lib.IPv4(10, 0, 1, 1),
		lib.AttrLocalPort:   80,
		ethmod.AttrPeerMAC:  netsim.MAC(0x0200_0000_1000),
		tcpmod.AttrIRS:      uint32(1),
		tcpmod.AttrListener: srv.Trusted,
	}
	port := 0
	return func() {
		port++
		attrs[lib.AttrRemotePort] = 1024 + port%60000
		p, err := srv.Paths.Create(nil, "Active Path trusted", "scsi", attrs)
		if err != nil {
			tb.Fatal(err)
		}
		srv.Paths.Destroy(nil, p)
		for k.LiveThreads() > live {
			k.RunFor(1)
		}
	}
}

// TestPathCreateDestroyAllocs pins the host allocations of one active
// path's create and destroy on every server kind. The count is exact:
// a change that adds an allocation to path set-up must update it here.
// The path, its stages and its semaphore are recycled once the owner
// retires (the cycle's kernel run retires the previous path), so what
// is left is the worker thread, the path's generation reference and
// the remote port this test boxes into its attributes.
func TestPathCreateDestroyAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, tc := range []struct {
		kind Kind
		want float64
	}{
		{KindScout, 3},
		{KindAccounting, 3},
		{KindAccountingPD, 3},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cycle := activePathCycle(t, newBed(t, tc.kind, Options{}).srv)
			for i := 0; i < 10; i++ {
				cycle() // build the route cache and grow the manager's tables
			}
			if got := testing.AllocsPerRun(100, cycle); got != tc.want {
				t.Fatalf("active path create+destroy allocates %.1f times, want %.0f", got, tc.want)
			}
		})
	}
}

// BenchmarkPathCreateDestroy prices one active path's create, orderly
// destroy and worker exit on the Scout server.
func BenchmarkPathCreateDestroy(b *testing.B) {
	eng := sim.New()
	srv, err := NewServer(eng, cost.Default(), netsim.NewHub(eng, mbps100, 3000),
		Options{Kind: KindScout, Docs: docs()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	cycle := activePathCycle(b, srv)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// raceEnabled reports whether the test binary runs under the race
// detector.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
