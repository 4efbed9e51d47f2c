package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// span is one host-clock interval around a benchmark call into a layer.
type span struct {
	cat, name  string // track (workload or layer) and step
	start, dur time.Duration
	ops        int // operations inside a layer-driver batch; 0 otherwise
}

// spanLog keeps the traced run's spans in memory until writeTrace. A nil
// *spanLog records nothing, which is how the untraced runs use the same
// code paths.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin() time.Time { return time.Now() }

// end closes the interval opened at t and returns its length.
func (l *spanLog) end(t time.Time, cat, name string) time.Duration {
	d := time.Since(t)
	if l != nil {
		l.spans = append(l.spans, span{cat: cat, name: name, start: t.Sub(l.origin), dur: d})
	}
	return d
}

// writeTrace writes the spans as a Chrome trace_event JSON document,
// the format the obs package emits for the simulated clock, so Perfetto
// opens both. Here timestamps are host microseconds and each category
// (a workload or a layer) is one thread track of a single process.
func (l *spanLog) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	w.WriteString(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"hostbench"}}`)
	tids := map[string]int{}
	var buf []byte
	for _, s := range l.spans {
		tid, ok := tids[s.cat]
		if !ok {
			tid = len(tids) + 1
			tids[s.cat] = tid
			buf = append(buf[:0], ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"...)
			buf = strconv.AppendInt(buf, int64(tid), 10)
			buf = append(buf, `,"args":{"name":`...)
			buf = strconv.AppendQuote(buf, s.cat)
			buf = append(buf, "}}"...)
			w.Write(buf)
		}
		buf = append(buf[:0], ",\n{\"name\":"...)
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, `,"cat":`...)
		buf = strconv.AppendQuote(buf, s.cat)
		buf = append(buf, `,"ph":"X","ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start.Nanoseconds())/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.dur.Nanoseconds())/1e3, 'f', 3, 64)
		buf = append(buf, `,"pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		if s.ops > 0 {
			buf = append(buf, `,"args":{"ops":`...)
			buf = strconv.AppendInt(buf, int64(s.ops), 10)
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
