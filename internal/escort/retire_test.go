package escort

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestLedgerBoundedOverChurn: a soak of 20,000 sequential connections.
// Dead connection owners retire from the ledger, so at every check the
// owner list holds the boot-time owners, the live paths and a few dead
// owners waiting to retire — never one record per connection made —
// while the ledger still accounts every cycle.
func TestLedgerBoundedOverChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const (
		conns   = 20_000
		clients = 16
		pending = 2 * clients // dead owners still unwinding at a check
	)
	b := newBed(t, KindAccounting, Options{})
	l := b.srv.K.Ledger()
	boot := len(l.Owners()) - b.srv.Paths.Live()
	before := l.Snapshot(b.eng.Now())
	for i := 0; i < clients; i++ {
		b.client(i, "/doc1").Start()
	}
	maxOwners := 0
	for b.srv.TCP.Completed < conns {
		b.srv.Run(100 * sim.CyclesPerMillisecond)
		owners := l.Owners()
		dead := 0
		for _, o := range owners {
			if o.Dead() {
				dead++
			}
		}
		if dead > pending || len(owners) > boot+b.srv.Paths.Live()+pending {
			t.Fatalf("after %d connections the ledger holds %d owners (%d dead) for %d live paths over %d boot owners",
				b.srv.TCP.Completed, len(owners), dead, b.srv.Paths.Live(), boot)
		}
		maxOwners = max(maxOwners, len(owners))
	}
	if d := l.Snapshot(b.eng.Now()).Diff(before); d.Unaccounted() != 0 {
		t.Fatalf("ledger unaccounted %d cycles over the soak", d.Unaccounted())
	}
	var pathOwners int
	for _, o := range l.Owners() {
		if o.Type == core.PathOwner {
			pathOwners++
		}
	}
	t.Logf("%d connections: at most %d ledger owners, %d path owners at the end", b.srv.TCP.Completed, maxOwners, pathOwners)
}
