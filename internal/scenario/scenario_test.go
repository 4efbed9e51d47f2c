package scenario

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/lib"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestScenarioMatrix runs every registered scenario end to end:
// baseline plus attacked run, containment invariants, detection and
// goodput acceptance.
func TestScenarioMatrix(t *testing.T) {
	for _, s := range All {
		t.Run(s.Name, func(t *testing.T) {
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: detected=%v ttd=%.0fms signal=%d goodput=%.2f (%d/%d) falseKills=%d pathKills=%d",
				res.Scenario, res.Detected, res.TimeToDetectMs, res.DetectSignal,
				res.GoodputRetained, res.AttackedCompleted, res.BaselineCompleted,
				res.FalseKills, res.PathKills)
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/compare.golden")

// goldenEntry renders one (scenario, policy) result for compare.golden:
// a header carrying the attacked run's metrics-CSV SHA-256, then the
// detector's decision log verbatim (empty under the static policy).
func goldenEntry(r *Result) string {
	return fmt.Sprintf("== %s %s csv-sha256=%x\n%s",
		r.Scenario, r.Policy, sha256.Sum256([]byte(r.CSV)), r.Decisions)
}

// parseGolden splits compare.golden into its entries, keyed by the
// "scenario policy" pair of each header.
func parseGolden(b []byte) map[string]string {
	entries := make(map[string]string)
	var key string
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			f := strings.Fields(rest)
			key = f[0] + " " + f[1]
		}
		entries[key] += line
	}
	return entries
}

// TestCompareMatrix runs every scenario under both policies and
// enforces the adaptive regression bounds: containment under both,
// adaptive time-to-detect no later than static, zero false kills. It
// also pins every run's decision log and metrics CSV against
// testdata/compare.golden, so a change that moves any simulated byte
// fails here. Regenerate with
// go test ./internal/scenario -run TestCompareMatrix -update.
func TestCompareMatrix(t *testing.T) {
	golden := filepath.Join("testdata", "compare.golden")
	var want map[string]string
	if !*update {
		b, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		want = parseGolden(b)
	}
	var got strings.Builder
	for _, s := range All {
		t.Run(s.Name, func(t *testing.T) {
			st, ad, err := Compare(s)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: static ttd=%.0fms goodput=%.2f | adaptive ttd=%.0fms goodput=%.2f falseKills=%d",
				s.Name, st.TimeToDetectMs, st.GoodputRetained,
				ad.TimeToDetectMs, ad.GoodputRetained, ad.FalseKills)
			for _, r := range []*Result{st, ad} {
				e := goldenEntry(r)
				got.WriteString(e)
				if w := want[r.Scenario+" "+r.Policy]; !*update && e != w {
					t.Errorf("%s/%s diverges from %s (rerun with -update if the change is intended):\n--- got ---\n%s--- want ---\n%s",
						r.Scenario, r.Policy, golden, e, w)
				}
			}
		})
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != 2*len(All) {
		t.Errorf("%s holds %d entries, want %d (rerun with -update)", golden, len(want), 2*len(All))
	}
}

// TestScenarioDeterminism reruns each scenario's attacked leg and
// requires byte-identical metrics CSV and equal outcomes — the seeded
// attack workloads must not perturb the simulation's determinism.
func TestScenarioDeterminism(t *testing.T) {
	for _, s := range All {
		t.Run(s.Name, func(t *testing.T) {
			a, err := runOnce(s, true, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runOnce(s, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				ac, bc := a, b
				ac.csv, bc.csv = "", ""
				t.Fatalf("outcomes diverged:\n a=%+v\n b=%+v (csv equal: %v)",
					ac, bc, a.csv == b.csv)
			}
			if a.csv != b.csv {
				t.Fatal("metrics CSV bytes diverged between identically-seeded runs")
			}
			if a.csv == "" {
				t.Fatal("no metrics CSV captured")
			}
		})
	}
}

// TestDetectorDecisionDeterminism is the adaptive policy's
// byte-determinism witness: the detector's decision log (every
// demote/shed/kill/box/forgive row, with cycle timestamps and feature
// values) must be byte-identical across repeated same-seed runs, and a
// sweep running all scenarios concurrently must reproduce the serial
// logs exactly — the detector may not leak goroutine scheduling into
// its decisions.
func TestDetectorDecisionDeterminism(t *testing.T) {
	serial := make(map[string]string, len(All))
	for _, s := range All {
		a, err := runOnce(s, true, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOnce(s, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.decisions == "" {
			t.Fatalf("%s: empty decision log from an attacked adaptive run", s.Name)
		}
		if a.decisions != b.decisions {
			t.Fatalf("%s: decision log diverged between identically-seeded runs:\n--- a ---\n%s--- b ---\n%s",
				s.Name, a.decisions, b.decisions)
		}
		serial[s.Name] = a.decisions
	}

	var wg sync.WaitGroup
	logs := make([]string, len(All))
	errs := make([]error, len(All))
	for i, s := range All {
		wg.Add(1)
		go func(i int, s *Scenario) {
			defer wg.Done()
			out, err := runOnce(s, true, true)
			if err != nil {
				errs[i] = err
				return
			}
			logs[i] = out.decisions
		}(i, s)
	}
	wg.Wait()
	for i, s := range All {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if logs[i] != serial[s.Name] {
			t.Errorf("%s: parallel-sweep decision log differs from the serial run", s.Name)
		}
	}
}

// TestScenariosSmoke is the CI soak target (make scenarios-smoke): the
// attacked leg of every class under -race, under both policies,
// detection asserted.
func TestScenariosSmoke(t *testing.T) {
	for _, s := range All {
		for _, mode := range []struct {
			name     string
			adaptive bool
		}{{"static", false}, {"adaptive", true}} {
			t.Run(s.Class+"/"+mode.name, func(t *testing.T) {
				out, err := runOnce(s, true, mode.adaptive)
				if err != nil {
					t.Fatal(err)
				}
				if !out.detected {
					t.Fatalf("attack not detected (signal %d, threshold %d)",
						out.signal, s.DetectThreshold)
				}
			})
		}
	}
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("registry lists %q but Lookup misses it", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}

// TestPuzzleGateUnderShed forces shed pressure and checks the
// client-puzzle fast-reject: stations that solve (legitimate clients)
// get through, a SYN flood that refuses to pay is rejected on the
// passive path at one hash of cost per segment.
func TestPuzzleGateUnderShed(t *testing.T) {
	sp, err := fault.ParseSpec("seed=41,puzzle=12")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting,
		experiment.Options{Faults: sp})
	if err != nil {
		t.Fatal(err)
	}
	// Force permanent shed pressure so the gate is active from the
	// first SYN (the page-pool mark would need a real memory storm).
	tb.Escort.TCP.Shed = func() bool { return true }
	tb.AddClients(4, "/doc1k")
	for _, c := range tb.Clients {
		c.PuzzleBits = sp.PuzzleBits
	}
	syn := workload.NewSynAttacker(tb.Eng, tb.HubAttach(), "syn",
		lib.IPv4(192, 168, 9, 9), netsim.MAC(0x0200_0000_9999),
		0x0a000001, 1000, 4242)
	syn.Start()

	tb.RunFor(2 * sim.CyclesPerSecond)
	syn.Stop()

	g := tb.Escort.TCP.Puzzle
	if g == nil {
		t.Fatal("puzzle gate not armed by the fault spec")
	}
	if g.Passed == 0 {
		t.Fatal("no solved SYN admitted: legitimate clients locked out")
	}
	if g.Rejected < 1000 {
		t.Fatalf("rejected = %d; the unsolved flood should fail the gate", g.Rejected)
	}
	if got := tb.TotalCompleted(); got == 0 {
		t.Fatal("no legitimate request completed through the gate")
	}
	// The flood must not complete handshakes.
	if tb.Escort.TCP.Completed != tb.TotalCompleted() {
		t.Fatalf("server completed %d conns, clients account for %d",
			tb.Escort.TCP.Completed, tb.TotalCompleted())
	}
	tb.Close()
}

// TestWatchdogShedInteraction overlaps the watchdog with alternating
// shed pressure: the ledger must stay balanced (no double charge
// between the two mechanisms) and penalty-box strikes recorded before
// a shed window must survive it.
func TestWatchdogShedInteraction(t *testing.T) {
	sp, err := fault.ParseSpec("seed=42,watchdog=40ms")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := experiment.NewTestbed(experiment.ConfigAccounting,
		experiment.Options{Faults: sp, PenaltyBox: true})
	if err != nil {
		t.Fatal(err)
	}
	// Shed pressure alternates in 250 ms windows, overlapping watchdog
	// scans and CGI containment kills.
	eng := tb.Eng
	tb.Escort.TCP.Shed = func() bool {
		return (eng.Now()/(250*sim.CyclesPerMillisecond))%2 == 1
	}
	tb.AddClients(4, "/doc1k")
	tb.AddCGIAttackers(2)

	before := tb.Escort.K.Ledger().Snapshot(eng.Now())
	tb.RunFor(sim.CyclesPerSecond)

	// Strikes recorded by the first kills...
	cgiIP := lib.IPv4(10, 0, 200, 1)
	mid := tb.Escort.Penalty.Strikes(cgiIP)
	if mid == 0 {
		t.Fatal("no penalty-box strike recorded before the overlap window")
	}
	tb.RunFor(2 * sim.CyclesPerSecond)
	after := tb.Escort.K.Ledger().Snapshot(eng.Now())

	// ...survive the shed windows: the box must never lose state while
	// shedding refuses new connections.
	if end := tb.Escort.Penalty.Strikes(cgiIP); end < mid {
		t.Fatalf("strikes went backwards across shed overlap: %d -> %d", mid, end)
	}
	if tb.Escort.TCP.ShedCount == 0 {
		t.Fatal("shed never fired; the overlap was not exercised")
	}
	if tb.Escort.Paths.Kills == 0 {
		t.Fatal("no path killed; the overlap was not exercised")
	}
	// No double charge: every cycle accounted exactly once even with
	// watchdog scans, containment kills and shed rejections interleaved.
	if d := after.Diff(before); d.Unaccounted() != 0 {
		t.Fatalf("unaccounted = %d of %d measured cycles", d.Unaccounted(), d.Measured)
	}
	tb.Close()
}
