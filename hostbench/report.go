package main

import (
	"math"
	"strings"
)

// layerMetrics fills dst with the per-layer metrics of a traced run:
// the drivers' costs, the workload's layer counters per completed
// connection, the runtime's GC load, the estimated layer shares of
// host time per connection, and the tracing overhead.
func layerMetrics(dst map[string]metric, lb *layerBench, plain, traced []*repResult) {
	for name, v := range lb.metrics {
		dst[name] = metric{v, driverUnit(name)}
	}

	r := traced[0]
	b, a := r.before, r.after
	conns := r.conns()
	perConn := func(before, after uint64) float64 { return float64(after-before) / conns }
	set := func(name, unit string, v float64) { dst[name] = metric{v, unit} }

	set("core.owners_end", "count", float64(a.owners))
	set("core.owners_per_established", "ratio", float64(a.owners)/math.Max(float64(a.established), 1))
	set("path.live_end", "count", float64(a.pathsLive))
	set("path.creates_per_conn", "1/conn", perConn(b.pathOwners, a.pathOwners))
	set("path.demux_rejects_per_conn", "1/conn", perConn(b.demuxRejects, a.demuxRejects))
	set("path.kills", "count", float64(a.pathKills-b.pathKills))
	set("netsim.server_rx_frames_per_conn", "1/conn", perConn(b.rxFrames, a.rxFrames))
	set("netsim.server_tx_frames_per_conn", "1/conn", perConn(b.txFrames, a.txFrames))
	set("netsim.server_tx_dropped_per_conn", "1/conn", perConn(b.txDrop, a.txDrop))
	set("tcp.established_per_conn", "1/conn", perConn(b.established, a.established))
	set("tcp.retransmits_per_conn", "1/conn", perConn(b.retransmits, a.retransmits))
	set("tcp.syns_per_conn", "1/conn", perConn(b.syns, a.syns))
	set("tcp.strays_per_conn", "1/conn", perConn(b.strays, a.strays))
	set("tcp.no_listener_per_conn", "1/conn", perConn(b.noListener, a.noListener))
	set("tcp.shed_src_count", "count", float64(a.shed-b.shed))
	set("http.requests_per_conn", "1/conn", perConn(b.httpRequests, a.httpRequests))
	set("domain.tlb_flushes_per_conn", "1/conn", perConn(b.tlbFlushes, a.tlbFlushes))
	set("domain.tlb_misses_per_conn", "1/conn", perConn(b.tlbMisses, a.tlbMisses))
	lookups := float64(a.fsHits + a.fsMisses - b.fsHits - b.fsMisses)
	set("fs.cache_hit_ratio", "ratio", float64(a.fsHits-b.fsHits)/math.Max(lookups, 1))
	set("iobuf.associations_per_conn", "1/conn", perConn(b.assoc, a.assoc))
	set("obs.samples_end", "count", float64(a.samples))
	set("policy.flagged", "count", float64(a.flagged))
	set("policy.sheds", "count", float64(a.sheds))
	set("policy.kills", "count", float64(a.kills))

	set("runtime.gc_count", "count", medianOf(plain, func(r *repResult) float64 { return float64(r.gcCount) }))
	set("runtime.gc_cpu_frac", "frac", medianOf(plain, func(r *repResult) float64 { return r.gcCPUFrac }))
	base := medianOf(plain, (*repResult).hostNsPerConn)
	set("run.host_ns_per_conn", "ns", base)
	set("run.growth_q4_q1", "ratio", medianOf(plain, growth))
	tracedNs := medianOf(traced, (*repResult).hostNsPerConn)
	set("trace.overhead_frac", "frac", (tracedNs-base)/base)
	set("trace.spans", "count", float64(len(lb.sp.spans)))

	// Estimated layer shares: the window's calls into a layer per
	// connection, priced at that layer's driver cost, over the measured
	// host ns per connection. Work no driver prices (the engine's event
	// loop, thread switches, TCP and HTTP stage code, the clients) is
	// what stays unattributed.
	ns := func(name string) float64 { return lb.cost[name].ns }
	frames := perConn(b.rxFrames+b.txFrames, a.rxFrames+a.txFrames)
	syns := perConn(b.syns, a.syns)
	strays := perConn(b.strays, a.strays)
	est := math.Max(perConn(b.rxFrames, a.rxFrames)-syns-strays, 0)
	ownersMid := float64(a.owners+b.owners) / 2
	shares := map[string]float64{
		"path":   perConn(b.pathOwners, a.pathOwners) * ns("path.create_destroy"),
		"demux":  syns*ns("path.demux_syn") + strays*ns("path.demux_stray") + est*ns("path.demux_est"),
		"msg":    frames * (ns("msg.new_free") + ns("msg.push_pop")/2),
		"netsim": frames * ns("netsim.forward"),
		"iobuf":  perConn(b.assoc, a.assoc) * ns("iobuf.associate_unlock"),
		"kernel": perConn(b.tlbFlushes, a.tlbFlushes) / 2 * ns("kernel.cross"),
		"obs":    perConn(b.samples, a.samples) * scaledNs(lb, samplePoints, ownersMid),
	}
	shares["policy"] = perConn(b.detectorTicks, a.detectorTicks) * scaledNs(lb, tickPoints, float64(a.sources))
	rest := 1.0
	for layer, v := range shares {
		s := v / base
		set("share."+layer, "frac", s)
		rest -= s
	}
	set("share.unattributed", "frac", rest)
}

// medianOf is the median of f over the repetitions.
func medianOf(rs []*repResult, f func(*repResult) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

// scaledNs prices one pass over n items (ledger owners, detector
// sources) from the driver point nearest n on a log scale, scaled
// linearly: a metrics sample walks every owner, a detector tick every
// source.
func scaledNs(lb *layerBench, points []sizePoint, n float64) float64 {
	best := points[0]
	for _, p := range points[1:] {
		if math.Abs(math.Log(n/p.n)) < math.Abs(math.Log(n/best.n)) {
			best = p
		}
	}
	return lb.cost[best.driver].ns * n / best.n
}

// growth is the host time of the window's last quarter over its first:
// above 1 when per-slice cost grows with simulated history.
func growth(r *repResult) float64 {
	q := len(r.slices) / 4
	var first, last float64
	for i := 0; i < q; i++ {
		first += r.slices[i].Seconds()
		last += r.slices[len(r.slices)-1-i].Seconds()
	}
	return last / math.Max(first, 1e-9)
}

func driverUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_allocs"):
		return "allocs/op"
	case strings.HasSuffix(name, "_bytes"):
		return "B/op"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	default:
		return "ns/op"
	}
}
