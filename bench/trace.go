package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. A traced run records a span around every call the benchmark
// makes into a layer: name, layer, start, end, the span that caused it,
// and the round (or served session) it belongs to. Spans stay in memory
// and are written at exit as Chrome trace_event JSON. They are
// wall-clock data and live only here: nothing of them reaches the
// simulation, its events or its digest.

// span is one timed call into a layer.
type span struct {
	id, parent uint64
	group      uint64 // round id; 0 for set-up
	tid        int    // track (client) the call ran for
	layer      string // "bench" marks the benchmark's own grouping spans
	name       string
	n          int64 // work in the call (steps, bytes), for rates
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer collects spans from every track, and from the serve handler
// wrapper on the server's goroutines.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	groups atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// track is one sequential caller: the main loop, or one serve client.
// Its spans nest through parent.
type track struct {
	r      *run
	tid    int
	traced bool   // the current round records spans
	group  uint64 // the current round's id
	parent uint64 // innermost open span
	// splits is set on the main track, whose ops may end a segment: no
	// other track runs beside it.
	splits bool
}

// do runs fn as a call into layer; in a traced round it records a span
// with work count n.
func (t *track) do(layer, name string, n int64, fn func()) {
	if !t.traced {
		fn()
		return
	}
	t.doN(layer, name, func() int64 { fn(); return n })
}

// doN is do for a call whose work count is known only afterwards: fn
// returns it.
func (t *track) doN(layer, name string, fn func() int64) {
	if !t.traced {
		fn()
		return
	}
	tr := t.r.tr
	s := span{id: tr.ids.Add(1), parent: t.parent, group: t.group, tid: t.tid, layer: layer, name: name}
	t.parent = s.id
	s.start = time.Since(tr.t0)
	s.n = fn()
	s.end = time.Since(tr.t0)
	t.parent = s.parent
	tr.add(s)
}

// op is do for the workload's primary call: its latency always counts
// toward op_p50_ms and op_p99_ms. On the main track, outside any span,
// an op that ends a segment longer than segmentMax calibrates there, so
// long rounds are scaled piece by piece.
func (t *track) op(layer, name string, n int64, fn func()) {
	start := time.Now()
	t.do(layer, name, n, fn)
	t.r.addOp(time.Since(start))
	if t.splits && t.parent == 0 && time.Since(t.r.seg.start) >= segmentMax {
		t.r.split()
	}
}

// check counts one output check; a false ok is a failure.
func (t *track) check(ok bool, format string, args ...any) {
	t.r.tally(ok, format, args...)
}

// spanHeader carries the client span's id, round and track to the
// server-side handler wrapper, so handler spans nest under the round
// trip that caused them.
const spanHeader = "X-Bench-Span"

func (t *track) header() string {
	return fmt.Sprintf("%d/%d/%d", t.parent, t.group, t.tid)
}

// wrap times the serve handler for requests carrying spanHeader. The
// untraced run never installs it.
func (tr *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		f := strings.Split(req.Header.Get(spanHeader), "/")
		if len(f) != 3 {
			h.ServeHTTP(w, req)
			return
		}
		parent, err1 := strconv.ParseUint(f[0], 10, 64)
		group, err2 := strconv.ParseUint(f[1], 10, 64)
		tid, err3 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			h.ServeHTTP(w, req)
			return
		}
		s := span{id: tr.ids.Add(1), parent: parent, group: group, tid: serverTid + tid,
			layer: "serve", name: routeOf(req.Method, req.URL.Path)}
		s.start = time.Since(tr.t0)
		h.ServeHTTP(w, req)
		s.end = time.Since(tr.t0)
		tr.add(s)
	})
}

// serverTid offsets the handler spans' trace thread from the clients'.
const serverTid = 100

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON (Perfetto
// loads it): one complete event per span, microsecond timestamps.
func (tr *tracer) writeChrome(path string) error {
	events := make([]traceEvent, 0, len(tr.spans))
	for _, s := range tr.spans {
		events = append(events, traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "round": s.group, "n": s.n},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats indexes the round spans (set-up excluded unless asked for)
// for the per-layer metrics.
type spanStats struct {
	byName map[string][]span // "layer/name" → spans
	self   map[string]time.Duration
}

func newSpanStats(spans []span) *spanStats {
	st := &spanStats{byName: map[string][]span{}, self: map[string]time.Duration{}}
	child := map[uint64]time.Duration{}
	for _, s := range spans {
		child[s.parent] += s.dur()
		st.byName[s.layer+"/"+s.name] = append(st.byName[s.layer+"/"+s.name], s)
	}
	for _, s := range spans {
		if s.group == 0 {
			continue
		}
		if self := s.dur() - child[s.id]; self > 0 {
			st.self[s.layer] += self
		}
	}
	return st
}

// durs returns the durations in unit of the spans named key (set-up
// spans included when setup is true).
func (st *spanStats) durs(key string, unit time.Duration, setup bool) []float64 {
	var out []float64
	for _, s := range st.byName[key] {
		if s.group != 0 || setup {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// p returns the q-quantile of the round spans named key, in unit.
func (st *spanStats) p(key string, q float64, unit time.Duration) float64 {
	return quantile(st.durs(key, unit, false), q)
}

// perN returns total duration over total work of the round spans named
// key, in unit per work item.
func (st *spanStats) perN(key string, unit time.Duration) float64 {
	n := st.work(key)
	if n == 0 {
		return 0
	}
	return float64(st.total(key)) / float64(unit) / n
}

// work returns the summed work count of the round spans named key.
func (st *spanStats) work(key string) float64 {
	var n int64
	for _, s := range st.byName[key] {
		if s.group != 0 {
			n += s.n
		}
	}
	return float64(n)
}

// groupSum returns the median over rounds of the summed duration of the
// spans named key in each round, in unit.
func (st *spanStats) groupSum(key string, unit time.Duration) float64 {
	sums := map[uint64]time.Duration{}
	for _, s := range st.byName[key] {
		if s.group != 0 {
			sums[s.group] += s.dur()
		}
	}
	var xs []float64
	for _, d := range sums {
		xs = append(xs, float64(d)/float64(unit))
	}
	return quantile(xs, 0.5)
}

// total returns the summed duration of the round spans named key.
func (st *spanStats) total(key string) time.Duration {
	var d time.Duration
	for _, s := range st.byName[key] {
		if s.group != 0 {
			d += s.dur()
		}
	}
	return d
}
