package linuxsim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	mbps100 = 100_000_000
)

var (
	serverIP  = lib.IPv4(10, 0, 0, 1)
	serverMAC = netsim.MAC(0x0200_0000_0001)
)

func newServer(eng *sim.Engine, hub *netsim.Hub) *Server {
	docs := map[string][]byte{
		"/doc1":   []byte("x"),
		"/doc10k": bytes.Repeat([]byte("x"), 10240),
	}
	return New(eng, cost.Default(), hub, serverIP, serverMAC, docs)
}

func client(eng *sim.Engine, hub *netsim.Hub, i int, doc string) *workload.Client {
	return workload.NewClient(eng, hub, "c", lib.IPv4(10, 0, 1, byte(i+1)),
		netsim.MAC(0x0200_0000_1000+uint64(i)), serverIP, doc, uint64(i+1))
}

func TestServesRequests(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	c := client(eng, hub, 0, "/doc1")
	c.Start()
	eng.Drain(2 * sim.CyclesPerSecond)
	if c.Completed == 0 {
		t.Fatalf("no completions (failed=%d, synSeen=%d)", c.Failed, srv.SynSeen)
	}
	if srv.Completed == 0 || srv.Forks == 0 {
		t.Fatalf("server: completed=%d forks=%d", srv.Completed, srv.Forks)
	}
	if srv.OpenConns() > 1 {
		t.Fatalf("connection leak: %d open", srv.OpenConns())
	}
}

func TestSaturatesNearCalibratedRate(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	for i := 0; i < 16; i++ {
		client(eng, hub, i, "/doc1").Start()
	}
	eng.Drain(1 * sim.CyclesPerSecond) // warm
	before := srv.Completed
	eng.Drain(4 * sim.CyclesPerSecond)
	rate := float64(srv.Completed-before) / 3.0
	// The paper's anchor: Apache on Linux near 400 conn/s, about half of
	// base Scout.
	if rate < 300 || rate > 520 {
		t.Fatalf("rate = %.0f conn/s, want ~400", rate)
	}
	if srv.BusyFraction() < 0.8 {
		t.Fatalf("server not CPU-saturated: %.2f busy", srv.BusyFraction())
	}
}

func TestTenKTransfers(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	c := client(eng, hub, 0, "/doc10k")
	var got int
	c.Start()
	eng.Drain(2 * sim.CyclesPerSecond)
	_ = got
	if c.Completed == 0 {
		t.Fatalf("no 10K completions (failed=%d)", c.Failed)
	}
	_ = srv
}

func TestNotFound(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	newServer(eng, hub)
	c := client(eng, hub, 0, "/missing")
	c.Start()
	eng.Drain(sim.CyclesPerSecond)
	// A 404 is still a completed connection.
	if c.Completed == 0 {
		t.Fatal("404 responses should still complete connections")
	}
}

func TestKillProcessCost(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	if got := srv.KillProcess(); got != cost.Default().LinuxKill {
		t.Fatalf("kill cost = %d, want the Table 2 constant %d", got, cost.Default().LinuxKill)
	}
}

// TestResponsesMatchApacheFormat: the cached responses carry the exact
// bytes the server always sent, for a document and for a missing one,
// and serving connections never writes into the shared bytes.
func TestResponsesMatchApacheFormat(t *testing.T) {
	eng := sim.New()
	hub := netsim.NewHub(eng, mbps100, 3000)
	srv := newServer(eng, hub)
	want := func(status string, body []byte) string {
		return fmt.Sprintf("HTTP/1.0 %s\r\nServer: Apache/1.2.6\r\nContent-Length: %d\r\n\r\n", status, len(body)) + string(body)
	}
	body, resp := srv.response("/doc10k")
	if got := string(resp); got != want("200 OK", srv.Docs["/doc10k"]) || !bytes.Equal(body, srv.Docs["/doc10k"]) {
		t.Fatalf("200 response %q", got[:min(len(got), 80)])
	}
	body, resp404 := srv.response("/missing")
	if got := string(resp404); got != want("404 Not Found", []byte("not found")) || string(body) != "not found" {
		t.Fatalf("404 response %q", got)
	}
	if _, again := srv.response("/other-missing"); &again[0] != &resp404[0] {
		t.Fatal("each missing target built its own 404 response")
	}
	if _, again := srv.response("/doc10k"); &again[0] != &resp[0] {
		t.Fatal("the document's response was built twice")
	}

	snap200, snap404 := bytes.Clone(resp), bytes.Clone(resp404)
	for i := 0; i < 4; i++ {
		client(eng, hub, i, "/doc10k").Start()
		client(eng, hub, 4+i, "/nope").Start()
	}
	eng.Drain(2 * sim.CyclesPerSecond)
	if srv.Completed == 0 {
		t.Fatal("no connection served")
	}
	if !bytes.Equal(resp, snap200) || !bytes.Equal(resp404, snap404) {
		t.Fatal("serving connections wrote into the shared response bytes")
	}
}
