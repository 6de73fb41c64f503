package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It sorts a copy; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle sample (mean of the two middle ones for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp divides a count by an op count, reading 0 when nothing ran.
func perOp(n uint64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// heapMB is the live Go heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupTimes runs a workload's set-up setupReps times, closing every
// instance but the last, and returns the last with the median wall time.
func setupTimes[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(st)
		}
		start := time.Now()
		var err error
		st, err = build()
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return st, median(secs), nil
}

// latencies collects per-op latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// addEndToEnd appends the latency/throughput metrics of an untraced
// phase.
func addEndToEnd(rep *report, lat latencies, elapsed time.Duration) {
	rep.notes = append(rep.notes, fmt.Sprintf("samples %d ops in %.1f s", len(lat), elapsed.Seconds()))
	rep.add("p50_ms", percentile(lat, 50), "ms")
	rep.add("p99_ms", percentile(lat, 99), "ms")
	rep.add("ops_per_s", float64(len(lat))/elapsed.Seconds(), "1/s")
}

// phases splits the measured seconds: all of them for an untraced run;
// an untraced first half and a traced second half for a traced run.
func phases(cfg config) (untraced, traced time.Duration) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return total, 0
	}
	return total / 2, total - total/2
}

// ---------------------------------------------------------------------------
// Spans

// span is one timed call into a layer. Times are nanoseconds since the
// log's origin; parent is an index into the same log (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
}

// spanLog keeps spans in memory for one goroutine; logs of concurrent
// clients are merged at the end. A nil *spanLog records nothing, so
// untraced code paths call it unconditionally.
type spanLog struct {
	origin time.Time
	spans  []span
	open   int32 // innermost open span, -1 when none
	op     int32
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin, open: -1} }

// begin opens a span under the innermost open one and returns its index.
func (l *spanLog) begin(name string) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: int64(time.Since(l.origin)), parent: l.open, op: l.op})
	l.open = int32(len(l.spans) - 1)
	return l.open
}

// end closes span i.
func (l *spanLog) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	s := &l.spans[i]
	s.end = int64(time.Since(l.origin))
	l.open = s.parent
}

// nextOp starts a new op id for the spans that follow.
func (l *spanLog) nextOp() {
	if l != nil {
		l.op++
	}
}

// merge appends other's spans, re-basing their parent indexes and op ids.
func (l *spanLog) merge(other *spanLog) {
	base := int32(len(l.spans))
	opBase := l.op + 1
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		s.op += opBase
		l.spans = append(l.spans, s)
	}
	l.op = opBase + other.op
}

// selfTimes returns, per span, its duration minus its children's.
func (l *spanLog) selfTimes() []time.Duration {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		self[i] += time.Duration(s.end - s.start)
		if s.parent >= 0 {
			self[s.parent] -= time.Duration(s.end - s.start)
		}
	}
	return self
}

// layerSelf sums self time per layer, the span-name prefix before the
// first dot.
func (l *spanLog) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range l.selfTimes() {
		out[layerOf(l.spans[i].name)] += d
	}
	return out
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfNotes renders each layer's self time as a share of all span time.
func (l *spanLog) selfNotes() []string {
	self := l.layerSelf()
	var total time.Duration
	var names []string
	for n, d := range self {
		total += d
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("layer %-8s self %10.3f ms  share %.4f", n, ms(self[n]), float64(self[n])/float64(max(total, 1))))
	}
	return out
}

// write stores the spans as CSV (name,start_ns,end_ns,parent,op) under a
// header of '#'-prefixed stamp lines.
func (l *spanLog) write(path string, header []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, h := range header {
		fmt.Fprintf(w, "# %s\n", h)
	}
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,op")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
