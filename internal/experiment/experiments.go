package experiment

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/experiment/runner"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Scale sets the durations and sweep sizes of the experiments. The
// paper measured ten-second averages after one minute of load; in a
// deterministic simulation steady state arrives as soon as the block
// cache is warm, so the default warm-up is shorter (recorded in
// EXPERIMENTS.md).
type Scale struct {
	Warm    sim.Cycles
	Window  sim.Cycles
	Clients []int
	CGICnts []int

	// Workers is the number of concurrent OS-level workers the figure
	// sweeps fan their points out across; 0 or 1 runs serially. Every
	// sweep point is an independent simulation with its own engine and
	// seeded RNGs, so results are identical at any setting (the parallel
	// determinism test asserts this byte-for-byte).
	Workers int

	// Obs, when non-nil, is asked for an observability config for each
	// figure run; the label encodes figure, document, configuration and
	// sweep point (e.g. "fig8-doc1-Accounting-c8"). Table runs stay
	// unobserved: their measurement is the ledger itself. With
	// Workers > 1 the factory is called from multiple goroutines and
	// must be safe for concurrent use.
	Obs ObsFactory

	// Faults, when non-nil, applies the same fault spec to every figure
	// run (each testbed derives its own injector from the spec's seed,
	// so points stay independent and deterministic under Workers > 1).
	// Table runs stay fault-free: they measure the intrinsic costs.
	Faults *fault.Spec
}

// obsFor resolves the per-run observability config, nil when no
// factory is installed.
func (sc Scale) obsFor(label string) *obs.Config {
	if sc.Obs == nil {
		return nil
	}
	return sc.Obs(label)
}

// PaperScale approximates the paper's sweep.
func PaperScale() Scale {
	return Scale{
		Warm:    3 * sim.CyclesPerSecond,
		Window:  10 * sim.CyclesPerSecond,
		Clients: []int{1, 2, 4, 8, 16, 32, 48, 64},
		CGICnts: []int{0, 1, 10, 25, 50},
	}
}

// QuickScale runs reduced sweeps for tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		Warm:    sim.CyclesPerSecond / 2,
		Window:  2 * sim.CyclesPerSecond,
		Clients: []int{1, 4, 16},
		CGICnts: []int{0, 10},
	}
}

// Fig8Row is one point of Figure 8: connection rate by configuration,
// document size and client count.
type Fig8Row struct {
	Config  Config
	Doc     DocSpec
	Clients int
	ConnPS  float64
}

// Fig8 reproduces Figure 8: the basic performance of the four
// configurations in connections/second for 1 B, 1 KB and 10 KB
// documents across the client sweep. Points run on sc.Workers workers;
// each builds its own testbed, so the rows are identical at any setting.
func Fig8(sc Scale, docs []DocSpec, configs []Config) ([]Fig8Row, error) {
	type point struct {
		doc DocSpec
		cfg Config
		n   int
	}
	var pts []point
	for _, doc := range docs {
		for _, cfg := range configs {
			for _, n := range sc.Clients {
				pts = append(pts, point{doc, cfg, n})
			}
		}
	}
	return runner.MapErr(len(pts), sc.Workers, func(i int) (Fig8Row, error) {
		p := pts[i]
		label := fmt.Sprintf("fig8-%s-%s-c%d", strings.TrimPrefix(p.doc.Name, "/"), p.cfg, p.n)
		tb, err := NewTestbed(p.cfg, Options{Obs: sc.obsFor(label), Faults: sc.Faults})
		if err != nil {
			return Fig8Row{}, err
		}
		tb.AddClients(p.n, p.doc.Name)
		rate := tb.MeasureRate(sc.Warm, sc.Window)
		tb.Close()
		return Fig8Row{Config: p.cfg, Doc: p.doc, Clients: p.n, ConnPS: rate}, nil
	})
}

// FormatFig8 renders the rows as one table per document.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	byDoc := map[string][]Fig8Row{}
	var docOrder []string
	for _, r := range rows {
		if _, ok := byDoc[r.Doc.Label]; !ok {
			docOrder = append(docOrder, r.Doc.Label)
		}
		byDoc[r.Doc.Label] = append(byDoc[r.Doc.Label], r)
	}
	for _, doc := range docOrder {
		fmt.Fprintf(&b, "Figure 8: connections/second, %s document\n", doc)
		sub := byDoc[doc]
		configs := distinct(sub, func(r Fig8Row) Config { return r.Config })
		clients := distinctSorted(sub, func(r Fig8Row) int { return r.Clients })
		fmt.Fprintf(&b, "%8s", "#clients")
		for _, c := range configs {
			fmt.Fprintf(&b, " %14s", c)
		}
		b.WriteByte('\n')
		for _, n := range clients {
			fmt.Fprintf(&b, "%8d", n)
			for _, c := range configs {
				fmt.Fprintf(&b, " %14.1f", lookupFig8(sub, c, n))
			}
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// distinct returns the distinct keys of rows in first-seen order.
func distinct[R any, K comparable](rows []R, key func(R) K) []K {
	seen := map[K]bool{}
	var out []K
	for _, r := range rows {
		if k := key(r); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// distinctSorted returns the distinct keys of rows in ascending order.
func distinctSorted[R any, K cmp.Ordered](rows []R, key func(R) K) []K {
	out := distinct(rows, key)
	slices.Sort(out)
	return out
}

func lookupFig8(rows []Fig8Row, cfg Config, clients int) float64 {
	for _, r := range rows {
		if r.Config == cfg && r.Clients == clients {
			return r.ConnPS
		}
	}
	return 0
}

// Table1 is the accounting-accuracy breakdown (§4.3.1): average cycles
// per serial one-byte request, attributed per owner.
type Table1 struct {
	Config        Config
	Requests      uint64
	TotalMeasured sim.Cycles
	Rows          []Table1Row
	Accounted     sim.Cycles
}

// Table1Row is one owner row.
type Table1Row struct {
	Owner  string
	Cycles sim.Cycles // per request
}

// RunTable1 reproduces Table 1 for one configuration: n serial requests
// for a one-byte document from a single client, every cycle attributed.
func RunTable1(cfg Config, n uint64) (*Table1, error) {
	tb, err := NewTestbed(cfg, Options{})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tb.AddClients(1, Doc1B.Name)
	client := tb.Clients[0]
	client.MaxRequests = 1 + n // one warm-up request, then the measured n
	// The paper's Table 1 measurement window runs from SYN accept to the
	// final FIN acknowledgment, excluding client turnaround, so the
	// serial client here runs back-to-back.
	client.Think = 0

	// Warm up: first request loads the block cache and the ARP tables.
	for i := 0; i < 1000 && client.Completed < 1; i++ {
		tb.RunFor(10 * sim.CyclesPerMillisecond)
	}
	if client.Completed < 1 {
		return nil, fmt.Errorf("table1: warm-up request never completed")
	}
	before := tb.Escort.K.Ledger().Snapshot(tb.Eng.Now())
	for i := 0; i < 100_000 && client.Completed < 1+n; i++ {
		tb.RunFor(10 * sim.CyclesPerMillisecond)
	}
	if client.Completed < 1+n {
		return nil, fmt.Errorf("table1: only %d of %d requests completed", client.Completed-1, n)
	}
	after := tb.Escort.K.Ledger().Snapshot(tb.Eng.Now())
	d := after.Diff(before)

	// Group owners into the paper's rows.
	groups := map[string]sim.Cycles{}
	for name, cyc := range d.ByOwner {
		groups[table1Group(name)] += cyc
	}
	t := &Table1{Config: cfg, Requests: n, TotalMeasured: d.Measured / sim.Cycles(n)}
	order := []string{"Idle", "Passive SYN Path", "Main Active Path", "TCP Master Event", "Softclock", "Other"}
	for _, g := range order {
		cyc, ok := groups[g]
		if !ok {
			continue
		}
		t.Rows = append(t.Rows, Table1Row{Owner: g, Cycles: cyc / sim.Cycles(n)})
		t.Accounted += cyc / sim.Cycles(n)
	}
	return t, nil
}

func table1Group(owner string) string {
	switch {
	case owner == "Idle":
		return "Idle"
	case owner == "Softclock":
		return "Softclock"
	case owner == "TCP Master Event":
		return "TCP Master Event"
	case strings.HasPrefix(owner, "Passive SYN Path"):
		return "Passive SYN Path"
	case strings.HasPrefix(owner, "Active Path"):
		return "Main Active Path"
	default:
		return "Other"
	}
}

// Format renders the table in the paper's layout.
func (t *Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 (%s): average cycles per serial 1-byte request (n=%d)\n", t.Config, t.Requests)
	fmt.Fprintf(&b, "  %-22s %12d\n", "Total Measured", t.TotalMeasured)
	for _, r := range t.Rows {
		pct := 100 * float64(r.Cycles) / float64(t.TotalMeasured)
		fmt.Fprintf(&b, "  %-22s %12d (%2.0f%%)\n", r.Owner, r.Cycles, pct)
	}
	pct := 100 * float64(t.Accounted) / float64(t.TotalMeasured)
	fmt.Fprintf(&b, "  %-22s %12d (%2.0f%%)\n", "Total Accounted", t.Accounted, pct)
	return b.String()
}

// Table2Row is one configuration's cost to destroy a non-cooperative
// path (§4.3.2).
type Table2Row struct {
	Config Config
	Cycles sim.Cycles
}

// RunTable2 reproduces Table 2: a client requests a runaway CGI
// document; the policy detects it after 2 ms and pathKill reclaims
// everything; the reclamation cycles are the measurement. The Linux row
// is the kill/waitpid cost model, reported — as in the paper — only as
// a general point of reference.
func RunTable2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, cfg := range []Config{ConfigAccounting, ConfigAccountingPD} {
		tb, err := NewTestbed(cfg, Options{})
		if err != nil {
			return nil, err
		}
		tb.AddCGIAttackers(1)
		for i := 0; i < 10_000 && tb.Escort.Contain.Kills == 0; i++ {
			tb.RunFor(10 * sim.CyclesPerMillisecond)
		}
		if tb.Escort.Contain.Kills == 0 {
			tb.Close()
			return nil, fmt.Errorf("table2: %s never contained the runaway", cfg)
		}
		rows = append(rows, Table2Row{Config: cfg, Cycles: tb.Escort.Contain.LastKillCycles})
		tb.Close()
	}
	lb, err := NewTestbed(ConfigLinux, Options{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table2Row{Config: ConfigLinux, Cycles: lb.Linux.KillProcess()})
	return rows, nil
}

// FormatTable2 renders the rows.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: cycles needed to destroy a non-cooperative path\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %12d\n", r.Config, r.Cycles)
	}
	return b.String()
}

// Fig9Row is one point of Figure 9: client rate with and without the
// SYN attack.
type Fig9Row struct {
	Config   Config
	Doc      DocSpec
	Clients  int
	Attack   bool
	ConnPS   float64
	SynDrops uint64
}

// Fig9 reproduces Figure 9: best-effort performance under a 1000 SYN/s
// attack from the untrusted subnet, with the §4.4.1 policy (separate
// passive paths; drop over-budget SYNs at demux). Points fan out across
// sc.Workers workers.
func Fig9(sc Scale, docs []DocSpec) ([]Fig9Row, error) {
	type point struct {
		doc    DocSpec
		cfg    Config
		attack bool
		n      int
	}
	var pts []point
	for _, doc := range docs {
		for _, cfg := range []Config{ConfigAccounting, ConfigAccountingPD} {
			for _, attack := range []bool{false, true} {
				for _, n := range sc.Clients {
					pts = append(pts, point{doc, cfg, attack, n})
				}
			}
		}
	}
	return runner.MapErr(len(pts), sc.Workers, func(i int) (Fig9Row, error) {
		p := pts[i]
		label := fmt.Sprintf("fig9-%s-%s-c%d-attack%v", strings.TrimPrefix(p.doc.Name, "/"), p.cfg, p.n, p.attack)
		tb, err := NewTestbed(p.cfg, Options{SynCapUntrusted: 64, Obs: sc.obsFor(label), Faults: sc.Faults})
		if err != nil {
			return Fig9Row{}, err
		}
		tb.AddClients(p.n, p.doc.Name)
		if p.attack {
			tb.AddSynAttacker(1000)
		}
		rate := tb.MeasureRate(sc.Warm, sc.Window)
		var drops uint64
		if tb.Escort.Untrusted != nil {
			drops = tb.Escort.Untrusted.DroppedSyn
		}
		tb.Close()
		return Fig9Row{Config: p.cfg, Doc: p.doc, Clients: p.n,
			Attack: p.attack, ConnPS: rate, SynDrops: drops}, nil
	})
}

// FormatFig9 renders the figure as tables with slowdown columns.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	for _, doc := range []DocSpec{Doc1B, Doc1K, Doc10K} {
		if !slices.ContainsFunc(rows, func(r Fig9Row) bool { return r.Doc.Name == doc.Name }) {
			continue
		}
		fmt.Fprintf(&b, "Figure 9: %s document, 1000 SYN/s untrusted attack\n", doc.Label)
		fmt.Fprintf(&b, "%8s %16s %16s %9s %16s %16s %9s\n", "#clients",
			"Acct", "Acct+SYN", "slow%", "Acct_PD", "Acct_PD+SYN", "slow%")
		for _, n := range distinctSorted(rows, func(r Fig9Row) int { return r.Clients }) {
			a := fig9Rate(rows, ConfigAccounting, doc, n, false)
			aa := fig9Rate(rows, ConfigAccounting, doc, n, true)
			p := fig9Rate(rows, ConfigAccountingPD, doc, n, false)
			pa := fig9Rate(rows, ConfigAccountingPD, doc, n, true)
			fmt.Fprintf(&b, "%8d %16.1f %16.1f %8.1f%% %16.1f %16.1f %8.1f%%\n",
				n, a, aa, slowdown(a, aa), p, pa, slowdown(p, pa))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fig9Rate(rows []Fig9Row, cfg Config, doc DocSpec, n int, attack bool) float64 {
	for _, r := range rows {
		if r.Config == cfg && r.Doc.Name == doc.Name && r.Clients == n && r.Attack == attack {
			return r.ConnPS
		}
	}
	return 0
}

func slowdown(base, loaded float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (base - loaded) / base
}

// Fig10Row is one point of Figure 10: best-effort rate with and without
// the 1 MBps QoS stream, plus the stream's achieved rate.
type Fig10Row struct {
	Config   Config
	Doc      DocSpec
	Clients  int
	Stream   bool
	ConnPS   float64
	QoSRate  float64 // bytes/second delivered to the receiver
	QoSError float64 // fractional deviation from the 1 MBps target
}

// QoSTarget is the paper's guaranteed stream rate: 1 MByte/second.
const QoSTarget = 1 << 20

// Fig10 reproduces Figure 10: the impact of one guaranteed 1 MBps
// stream on best-effort traffic, and the stream's own fidelity (the
// paper: always within 1% of target).
func Fig10(sc Scale, docs []DocSpec) ([]Fig10Row, error) {
	type point struct {
		doc    DocSpec
		cfg    Config
		stream bool
		n      int
	}
	var pts []point
	for _, doc := range docs {
		for _, cfg := range []Config{ConfigAccounting, ConfigAccountingPD} {
			for _, stream := range []bool{false, true} {
				for _, n := range sc.Clients {
					pts = append(pts, point{doc, cfg, stream, n})
				}
			}
		}
	}
	return runner.MapErr(len(pts), sc.Workers, func(i int) (Fig10Row, error) {
		p := pts[i]
		label := fmt.Sprintf("fig10-%s-%s-c%d-stream%v", strings.TrimPrefix(p.doc.Name, "/"), p.cfg, p.n, p.stream)
		tb, err := NewTestbed(p.cfg, Options{QoSRateBps: QoSTarget, Obs: sc.obsFor(label), Faults: sc.Faults})
		if err != nil {
			return Fig10Row{}, err
		}
		tb.AddClients(p.n, p.doc.Name)
		if p.stream {
			tb.AddQoSReceiver()
		}
		rate := tb.MeasureRate(sc.Warm, sc.Window)
		row := Fig10Row{Config: p.cfg, Doc: p.doc, Clients: p.n, Stream: p.stream, ConnPS: rate}
		if p.stream {
			row.QoSRate = tb.QoS.RateBps(sc.Window)
			row.QoSError = (row.QoSRate - QoSTarget) / QoSTarget
		}
		tb.Close()
		return row, nil
	})
}

// FormatFig10 renders the figure.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	for _, doc := range []DocSpec{Doc1B, Doc1K, Doc10K} {
		if !slices.ContainsFunc(rows, func(r Fig10Row) bool { return r.Doc.Name == doc.Name }) {
			continue
		}
		fmt.Fprintf(&b, "Figure 10: %s document, 1 MBps QoS stream\n", doc.Label)
		fmt.Fprintf(&b, "%8s %14s %14s %9s %14s %14s %9s %10s\n", "#clients",
			"Acct", "Acct+QoS", "slow%", "Acct_PD", "Acct_PD+QoS", "slow%", "QoS err%")
		for _, n := range distinctSorted(rows, func(r Fig10Row) int { return r.Clients }) {
			a := fig10Rate(rows, ConfigAccounting, doc, n, false)
			aq := fig10Rate(rows, ConfigAccounting, doc, n, true)
			p := fig10Rate(rows, ConfigAccountingPD, doc, n, false)
			pq := fig10Rate(rows, ConfigAccountingPD, doc, n, true)
			worstErr := 0.0
			for _, r := range rows {
				if r.Doc.Name == doc.Name && r.Clients == n && r.Stream {
					worstErr = max(worstErr, math.Abs(r.QoSError))
				}
			}
			fmt.Fprintf(&b, "%8d %14.1f %14.1f %8.1f%% %14.1f %14.1f %8.1f%% %9.2f%%\n",
				n, a, aq, slowdown(a, aq), p, pq, slowdown(p, pq), 100*worstErr)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fig10Rate(rows []Fig10Row, cfg Config, doc DocSpec, n int, stream bool) float64 {
	for _, r := range rows {
		if r.Config == cfg && r.Doc.Name == doc.Name && r.Clients == n && r.Stream == stream {
			return r.ConnPS
		}
	}
	return 0
}

// Fig11Row is one point of Figure 11: best-effort rate under CGI
// attackers, with the QoS stream held.
type Fig11Row struct {
	Config    Config
	Doc       DocSpec
	Attackers int
	ConnPS    float64
	QoSRate   float64
	Kills     uint64
}

// Fig11 reproduces Figure 11: 64 clients, the 1 MBps stream, and 1-50
// CGI attackers launching one runaway per second. Each runaway burns
// 2 ms of CPU before detection; pathKill then reclaims everything. The
// QoS stream must stay within 1% throughout.
func Fig11(sc Scale, docs []DocSpec, clients int) ([]Fig11Row, error) {
	type point struct {
		doc DocSpec
		cfg Config
		atk int
	}
	var pts []point
	for _, doc := range docs {
		for _, cfg := range []Config{ConfigAccounting, ConfigAccountingPD} {
			for _, atk := range sc.CGICnts {
				pts = append(pts, point{doc, cfg, atk})
			}
		}
	}
	return runner.MapErr(len(pts), sc.Workers, func(i int) (Fig11Row, error) {
		p := pts[i]
		label := fmt.Sprintf("fig11-%s-%s-cgi%d", strings.TrimPrefix(p.doc.Name, "/"), p.cfg, p.atk)
		tb, err := NewTestbed(p.cfg, Options{QoSRateBps: QoSTarget, Obs: sc.obsFor(label), Faults: sc.Faults})
		if err != nil {
			return Fig11Row{}, err
		}
		tb.AddClients(clients, p.doc.Name)
		tb.AddQoSReceiver()
		tb.AddCGIAttackers(p.atk)
		rate := tb.MeasureRate(sc.Warm, sc.Window)
		row := Fig11Row{
			Config:    p.cfg,
			Doc:       p.doc,
			Attackers: p.atk,
			ConnPS:    rate,
			QoSRate:   tb.QoS.RateBps(sc.Window),
			Kills:     tb.Escort.Contain.Kills,
		}
		tb.Close()
		return row, nil
	})
}

// FormatFig11 renders the figure.
func FormatFig11(rows []Fig11Row, clients int) string {
	var b strings.Builder
	for _, doc := range []DocSpec{Doc1B, Doc1K, Doc10K} {
		if !slices.ContainsFunc(rows, func(r Fig11Row) bool { return r.Doc.Name == doc.Name }) {
			continue
		}
		fmt.Fprintf(&b, "Figure 11: %s document, %d clients, 1 MBps stream, CGI attackers\n", doc.Label, clients)
		fmt.Fprintf(&b, "%10s %14s %10s %10s %14s %10s %10s\n", "#attackers",
			"Acct c/s", "QoS err%", "kills", "Acct_PD c/s", "QoS err%", "kills")
		for _, atk := range distinctSorted(rows, func(r Fig11Row) int { return r.Attackers }) {
			a := fig11Row(rows, ConfigAccounting, doc, atk)
			p := fig11Row(rows, ConfigAccountingPD, doc, atk)
			fmt.Fprintf(&b, "%10d %14.1f %9.2f%% %10d %14.1f %9.2f%% %10d\n",
				atk, a.ConnPS, qosErrPct(a.QoSRate), a.Kills,
				p.ConnPS, qosErrPct(p.QoSRate), p.Kills)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func qosErrPct(rate float64) float64 {
	if rate == 0 {
		return 0
	}
	return math.Abs((rate - QoSTarget) / QoSTarget * 100)
}

func fig11Row(rows []Fig11Row, cfg Config, doc DocSpec, atk int) Fig11Row {
	for _, r := range rows {
		if r.Config == cfg && r.Doc.Name == doc.Name && r.Attackers == atk {
			return r
		}
	}
	return Fig11Row{}
}
