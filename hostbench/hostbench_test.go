package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestPinnedOutputs: at the default seed every workload reproduces the
// simulated completions (and so sim_conn_s) pinned from the seed commit
// and passes every correctness check.
func TestPinnedOutputs(t *testing.T) {
	for _, m := range mixes {
		r, err := m.runOnce(defaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.err != nil {
			t.Errorf("%s: %v", m.name, r.err)
			continue
		}
		if r.out.Completed != m.pinCompleted || r.out.SimConnS != m.pinSimConnS() {
			t.Errorf("%s: completed %d, sim_conn_s %v; pinned %d, %v",
				m.name, r.out.Completed, r.out.SimConnS, m.pinCompleted, m.pinSimConnS())
		}
	}
}

// TestLedgerBalancesAtOtherSeeds: away from the pinned seed the outputs
// differ, but the Table 1 ledger still balances over the window and
// attack-soak's containment check still holds.
func TestLedgerBalancesAtOtherSeeds(t *testing.T) {
	for _, m := range mixes {
		for _, seed := range []uint64{2, 9} {
			r, err := m.runOnce(seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.out.Unaccounted != 0 || r.err != nil {
				t.Errorf("%s seed %d: unaccounted %d, check: %v", m.name, seed, r.out.Unaccounted, r.err)
			}
		}
	}
}

// TestSameSeedSameOutputs: two runs at one seed give identical
// simulated outputs — completions per client, the window's ledger, the
// virtual clock and the detector's decision log, byte for byte — and a
// traced run gives the same outputs as an untraced one.
func TestSameSeedSameOutputs(t *testing.T) {
	for _, m := range mixes {
		a, err := m.runOnce(7, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.runOnce(7, newSpanLog())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.out, b.out) {
			t.Errorf("%s: outputs differ at one seed:\n  %v\n  %v", m.name, a.out, b.out)
		}
		c, err := m.runOnce(8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.out, c.out) {
			t.Errorf("%s: seeds 7 and 8 gave identical outputs; the seed does not reach the actors", m.name)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestReportMatchesBenchmarkJSON: an end-to-end run prints exactly the
// end-to-end metrics BENCHMARK.json declares, a traced run exactly the
// per-layer ones, each with its declared unit, and the traced run's
// span file is a trace_event document.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupMix(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(spec.Workloads) != len(mixes) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(mixes))
	}
	m, _ := lookupMix("fig8-churn")
	check := func(what string, got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(want))
		}
		for _, w := range want {
			g, ok := got[w.Name]
			if !ok {
				t.Errorf("%s: declared metric %s not reported", what, w.Name)
			} else if g.Unit != w.Unit {
				t.Errorf("%s: %s unit %q, declared %q", what, w.Name, g.Unit, w.Unit)
			}
		}
	}
	res, err := endToEnd(m, defaultSeed, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	check("end-to-end", res.Metrics, spec.EndToEnd)

	dir := t.TempDir()
	res, err = traced(m, defaultSeed, dir)
	if err != nil {
		t.Fatal(err)
	}
	check("per-layer", res.Metrics, spec.PerLayer)
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("span files: %v", files)
	}
	raw, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Dur      float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if want := int(res.Metrics["trace.spans"].Value); spans != want {
		t.Errorf("span file holds %d spans, trace.spans reports %d", spans, want)
	}
}
