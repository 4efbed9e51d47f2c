// Command hostbench is the repository's benchmark: the host cost of
// producing the simulated results (conn/s, the cycle ledger), end to end
// and layer by layer. Each run builds one workload on the Figure 7
// testbed, one simulation at a time, checks its simulated outputs and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run instead records host-clock spans around every call into a layer,
// runs the per-layer drivers, and reports the per-layer metrics and the
// tracing overhead. Usage (from the repository root, see run.sh):
//
//	bash hostbench/run.sh --workload fig8-churn --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: fig8-churn, bulk-pd-10k or attack-soak")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the pinned outputs are checked at the default")
	seconds := flag.Int("seconds", 10, "host seconds to measure for (-trace 0)")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its span file to")
	flag.Parse()
	m, ok := lookupMix(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hostbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(m, *seed, time.Duration(*seconds)*time.Second)
	} else {
		res, err = traced(m, *seed, *out)
	}
	if err != nil && res == nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: correctness check failed: %v\n", err)
		res.Correct = false
		res.Failed = res.Attempted
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

const (
	// setupsPerRep set-ups (build, then tear down without simulating)
	// are timed before every measured repetition, after setupWarm
	// untimed ones, so the set-up median samples the whole run rather
	// than its first fraction of a second. One takes about 0.1 ms.
	setupWarm, setupsPerRep = 30, 20
	// minReps is the fewest measured repetitions a run makes, however
	// short -seconds is.
	minReps = 3
)

// endToEnd repeats the workload at one seed while another repetition
// fits in the measuring time, and reports the medians over repetitions.
// Every repetition must produce the same simulated outputs.
func endToEnd(m *mix, seed uint64, budget time.Duration) (*result, error) {
	start := time.Now()
	for i := 0; i < setupWarm; i++ {
		if _, err := m.setupOnly(seed); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var reps []*repResult
	var last time.Duration // one repetition with its set-ups
	for len(reps) < minReps || time.Since(start)+last <= budget {
		t := time.Now()
		for i := 0; i < setupsPerRep; i++ {
			d, err := m.setupOnly(seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		r, err := m.runOnce(seed, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		last = time.Since(t)
		if r.err == nil && !reflect.DeepEqual(r.out, reps[0].out) {
			r.err = fmt.Errorf("%s: repetition %d diverged from the first at seed %d:\n  %v\n  %v",
				m.name, len(reps), seed, reps[0].out, r.out)
		}
		if r.err != nil {
			break
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var firstErr error
	for _, r := range reps {
		res.Attempted += r.out.Completed + r.out.Failed
		res.Failed += r.out.Failed
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	res.Metrics["sim_conns_per_host_s"] = metric{medianOf(reps, func(r *repResult) float64 { return r.conns() / r.window.Seconds() }), "1/s"}
	res.Metrics["alloc_bytes_per_conn"] = metric{medianOf(reps, func(r *repResult) float64 { return float64(r.allocBytes) / r.conns() }), "B"}
	res.Metrics["allocs_per_conn"] = metric{medianOf(reps, func(r *repResult) float64 { return float64(r.allocs) / r.conns() }), "count"}
	res.Metrics["heap_live_mb"] = metric{medianOf(reps, func(r *repResult) float64 { return float64(r.heapLive) / 1e6 }), "MB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["completed_frac"] = metric{medianOf(reps, func(r *repResult) float64 {
		return float64(r.out.Completed) / math.Max(float64(r.out.Completed+r.out.Failed), 1)
	}), "frac"}
	fmt.Printf("%s seed %d: %d repetitions, %d set-ups, %v\n", m.name, seed, len(reps), len(setups), reps[0].out)
	return res, firstErr
}

// setupOnly times building the workload and attaching every actor,
// then tears it down without simulating.
func (m *mix) setupOnly(seed uint64) (time.Duration, error) {
	runtime.GC()
	t := time.Now()
	in, err := m.build(seed)
	if err != nil {
		return 0, err
	}
	d := time.Since(t)
	in.tb.Close()
	return d, nil
}

// tracedPairs is how many untraced and traced repetitions the traced
// run alternates; the overhead is the difference of their medians.
const tracedPairs = 3

// traced runs the workload with and without spans, then every layer
// driver, and reports the per-layer metrics. The spans are written to
// out as Chrome trace_event JSON.
func traced(m *mix, seed uint64, out string) (*result, error) {
	sp := newSpanLog()
	var plain, withSpans []*repResult
	for i := 0; i < tracedPairs; i++ {
		r, err := m.runOnce(seed, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r)
		if r, err = m.runOnce(seed, sp); err != nil {
			return nil, err
		}
		withSpans = append(withSpans, r)
	}
	lb := &layerBench{sp: sp, metrics: map[string]float64{}, cost: map[string]opCost{}}
	lb.run()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var firstErr error
	for _, r := range append(plain, withSpans...) {
		res.Attempted += r.out.Completed + r.out.Failed
		res.Failed += r.out.Failed
		if r.err == nil && !reflect.DeepEqual(r.out, plain[0].out) {
			r.err = fmt.Errorf("%s: traced repetition diverged at seed %d", m.name, seed)
		}
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	if firstErr == nil {
		firstErr = lb.err
	}
	layerMetrics(res.Metrics, lb, plain, withSpans)
	file := filepath.Join(out, fmt.Sprintf("hostbench-trace-%s-seed%d.json", m.name, seed))
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := sp.writeTrace(file); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	fmt.Printf("%s seed %d: %d spans written to %s\n", m.name, seed, len(sp.spans), file)
	return res, firstErr
}
