package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEventJSONFieldPresence(t *testing.T) {
	e := Ev(42, TypeNMI)
	if got := string(e.AppendJSON(nil)); got != `{"step":42,"type":"nmi"}` {
		t.Fatalf("plain event JSON: %s", got)
	}
	e = Event{Step: 7, Type: TypeVoteTally, Replica: 0, Epoch: 3, Code: 9, Arg: 5, Note: `legal`}
	want := `{"step":7,"type":"vote-tally","replica":0,"epoch":3,"code":9,"arg":5,"note":"legal"}`
	if got := string(e.AppendJSON(nil)); got != want {
		t.Fatalf("full event JSON:\n got %s\nwant %s", got, want)
	}
}

func TestCollectorScopingAndJSONL(t *testing.T) {
	c := NewCollector()
	c.Replica = 2
	c.Epoch = 1
	c.Emit(Ev(10, TypeNMI))
	c.Emit(Event{Step: 11, Type: TypeReplicaEvicted, Replica: 4, Epoch: -1, Note: "divergent"})
	evs := c.Events()
	if evs[0].Replica != 2 || evs[0].Epoch != 1 {
		t.Fatalf("unscoped event not tagged: %+v", evs[0])
	}
	if evs[1].Replica != 4 {
		t.Fatalf("pre-scoped replica overwritten: %+v", evs[1])
	}
	var b bytes.Buffer
	if err := c.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"note":"divergent"`) {
		t.Fatalf("JSONL: %q", b.String())
	}
}

func TestCollectorMetricsFold(t *testing.T) {
	c := NewCollector()
	c.Emit(Ev(1, TypeNMI))
	c.Emit(Ev(2, TypeNMI))
	c.Emit(Ev(3, TypeFaultInjected))
	c.Emit(Event{Step: 4, Type: TypePredicateRepaired, Replica: -1, Epoch: -1, Code: 0xE001})
	c.Emit(Ev(5, TypeReinstallCompleted))
	c.Emit(Event{Step: 9, Type: TypeLegalityRegained, Replica: -1, Epoch: -1, Code: 123})
	m := c.Metrics
	if m.Counter("machine.nmis") != 2 || m.Counter("faults.injected") != 1 ||
		m.Counter("stabilizer.repairs") != 1 || m.Counter("stabilizer.reinstalls") != 1 {
		t.Fatalf("counters: %+v", m.counters)
	}
	if s := m.Samples("stabilization.steps_to_legal"); len(s) != 1 || s[0] != 123 {
		t.Fatalf("steps_to_legal samples: %v", s)
	}
}

func TestMetricsSnapshotMergeDeterministic(t *testing.T) {
	a := NewMetrics()
	a.Inc("x")
	a.Observe("h", 10)
	b := a.Snapshot()
	b.Inc("x")
	b.Observe("h", 20)
	if a.Counter("x") != 1 || len(a.Samples("h")) != 1 {
		t.Fatal("snapshot not deep")
	}
	a.Merge(b)
	if a.Counter("x") != 3 || len(a.Samples("h")) != 3 {
		t.Fatalf("merge: x=%d h=%v", a.Counter("x"), a.Samples("h"))
	}

	j1, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := a.MarshalJSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("metrics JSON not stable")
	}
}

func TestMetricsDerivedRatios(t *testing.T) {
	m := NewMetrics()
	m.Add("stabilizer.repairs", 6)
	m.Add("stabilizer.reinstalls", 2)
	m.Add("cluster.epochs", 10)
	m.Add("cluster.legal_epochs", 9)
	j, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(j)
	if !strings.Contains(s, `"stabilizer.repair_vs_reinstall": 3`) {
		t.Fatalf("repair ratio missing:\n%s", s)
	}
	if !strings.Contains(s, `"cluster.availability": 0.9`) {
		t.Fatalf("availability missing:\n%s", s)
	}
}

func TestHistSummary(t *testing.T) {
	m := NewMetrics()
	for _, v := range []uint64{5, 1, 9, 3, 7} {
		m.Observe("h", v)
	}
	h := summarizeHist(m.Samples("h"))
	if h.Count != 5 || h.Min != 1 || h.Max != 9 || h.P50 != 5 {
		t.Fatalf("summary: %+v", h)
	}
	if h.Mean != 5 {
		t.Fatalf("mean: %v", h.Mean)
	}
	if (summarizeHist(nil) != HistSummary{}) {
		t.Fatal("empty summary")
	}
}

func TestLegalityTrackerRegain(t *testing.T) {
	sink := NewCollector()
	tr := &LegalityTracker{BeatStream: BeatStream{Rule: BeatRule{Start: 1, MaxGap: 100}}, PredicateTracker: PredicateTracker{Confirm: 3, Sink: sink}}
	tr.OnBeat(10, 1)
	tr.OnBeat(20, 2)
	tr.OnFault(25)
	tr.OnBeat(30, 0x7777) // corrupted beat
	tr.OnBeat(40, 0x7778) // legal successor of garbage: run starts here
	tr.OnBeat(50, 0x7779)
	tr.OnBeat(60, 0x777a) // third consecutive legal beat: regained
	evs := sink.Events()
	if len(evs) != 1 || evs[0].Type != TypeLegalityRegained {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].Step != 60 || evs[0].Arg != 40 || evs[0].Code != 40-25 {
		t.Fatalf("regain payload: %+v", evs[0])
	}
	// Clean after recovery: no further emission.
	tr.OnBeat(70, 0x777b)
	if len(sink.Events()) != 1 {
		t.Fatal("emitted while clean")
	}
}

func TestLegalityTrackerUndisturbedFault(t *testing.T) {
	sink := NewCollector()
	tr := &LegalityTracker{BeatStream: BeatStream{Rule: BeatRule{Start: 1, MaxGap: 100}}, PredicateTracker: PredicateTracker{Confirm: 2, Sink: sink}}
	tr.OnBeat(10, 1)
	tr.OnFault(15) // fault that does not disturb the stream
	tr.OnBeat(20, 2)
	tr.OnBeat(30, 3)
	evs := sink.Events()
	if len(evs) != 1 || evs[0].Arg != 20 || evs[0].Code != 5 {
		t.Fatalf("undisturbed regain: %+v", evs)
	}
}

func TestLegalityTrackerRestartRules(t *testing.T) {
	// Strict spec: a restart to Start is NOT legal.
	sink := NewCollector()
	strict := &LegalityTracker{BeatStream: BeatStream{Rule: BeatRule{Start: 1, MaxGap: 100}}, PredicateTracker: PredicateTracker{Confirm: 2, Sink: sink}}
	strict.OnFault(5)
	strict.OnBeat(10, 5)
	strict.OnBeat(20, 1) // restart — illegal under strict
	strict.OnBeat(30, 2)
	strict.OnBeat(40, 3)
	if evs := sink.Events(); len(evs) != 1 || evs[0].Arg != 30 {
		t.Fatalf("strict restart handling: %+v", evs)
	}

	// Weak spec: the restart transition is legal, so the run extends
	// back to the first post-fault beat (matching LegalSuffixStart,
	// which judges transitions, not absolute values).
	sink2 := NewCollector()
	weak := &LegalityTracker{BeatStream: BeatStream{Rule: BeatRule{Start: 1, MaxGap: 100, AllowRestart: true}}, PredicateTracker: PredicateTracker{Confirm: 2, Sink: sink2}}
	weak.OnFault(5)
	weak.OnBeat(10, 5)
	weak.OnBeat(20, 1)
	if evs := sink2.Events(); len(evs) != 1 || evs[0].Arg != 10 || evs[0].Code != 5 {
		t.Fatalf("weak restart handling: %+v", evs)
	}
}

func TestLegalityTrackerGapViolation(t *testing.T) {
	sink := NewCollector()
	tr := &LegalityTracker{BeatStream: BeatStream{Rule: BeatRule{Start: 1, MaxGap: 50}}, PredicateTracker: PredicateTracker{Confirm: 2, Sink: sink}}
	tr.OnFault(5)
	tr.OnBeat(10, 1)
	tr.OnBeat(100, 2) // gap 90 > 50: illegal despite succession
	tr.OnBeat(110, 3)
	tr.OnBeat(120, 4)
	if evs := sink.Events(); len(evs) != 1 || evs[0].Arg != 110 {
		t.Fatalf("gap handling: %+v", evs)
	}
}

func TestDrainKeepsMetrics(t *testing.T) {
	c := NewCollector()
	c.Emit(Ev(1, TypeNMI))
	if got := c.Drain(); len(got) != 1 {
		t.Fatalf("drain: %v", got)
	}
	if len(c.Events()) != 0 {
		t.Fatal("buffer not cleared")
	}
	if c.Metrics.Counter("machine.nmis") != 1 {
		t.Fatal("metrics lost on drain")
	}
}

// TestCollectorConcurrentAccess hammers one collector from emitters,
// drainers and readers at once. It asserts nothing beyond conservation
// of events (every emitted event is seen exactly once across drains and
// the final buffer) — its real teeth are `go test -race`, which fails
// the build on any unsynchronized access. This is the contract the
// serve layer's streaming path depends on.
func TestCollectorConcurrentAccess(t *testing.T) {
	c := NewCollector()
	const emitters = 4
	const perEmitter = 500
	const emitted = emitters * perEmitter
	var emitWg, bgWg sync.WaitGroup
	var drained atomic.Int64
	stop := make(chan struct{})

	for e := 0; e < emitters; e++ {
		emitWg.Add(1)
		go func(e int) {
			defer emitWg.Done()
			for i := 0; i < perEmitter; i++ {
				c.Emit(Ev(uint64(e*perEmitter+i), TypeNMI))
			}
		}(e)
	}
	bgWg.Add(1)
	go func() { // drainer
		defer bgWg.Done()
		for {
			drained.Add(int64(len(c.Drain())))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	bgWg.Add(1)
	go func() { // readers: snapshots, cursors, JSONL render, metrics
		defer bgWg.Done()
		for {
			_ = c.Events()
			_ = c.EventsSince(c.Len() / 2)
			_ = c.WriteJSONL(io.Discard)
			_ = c.MetricsSnapshot().Counter("machine.nmis")
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	emitWg.Wait()
	close(stop)
	bgWg.Wait()

	total := drained.Add(int64(len(c.Drain())))
	if total != emitted {
		t.Fatalf("event conservation: drained %d, emitted %d", total, emitted)
	}
	if got := c.MetricsSnapshot().Counter("machine.nmis"); got != emitted {
		t.Fatalf("metrics: %d NMIs folded, want %d", got, emitted)
	}
}

// TestCollectorHookSeesEveryEventWithItsCursor pins the Hook contract:
// called once per event, Emit and Append alike, with the event's buffer
// index — the cursor EventsSince would need to start at that event.
func TestCollectorHookSeesEveryEventWithItsCursor(t *testing.T) {
	c := NewCollector()
	var idxs []int
	var steps []uint64
	c.Hook = func(idx int, e Event) {
		idxs = append(idxs, idx)
		steps = append(steps, e.Step)
	}
	c.Emit(Ev(10, TypeNMI))
	c.Append(Ev(20, TypeIRQ), Ev(30, TypeReset))
	c.Emit(Ev(40, TypeException))
	if len(idxs) != 4 {
		t.Fatalf("hook calls: %d, want 4", len(idxs))
	}
	for i, idx := range idxs {
		if idx != i {
			t.Fatalf("hook idx[%d] = %d, want %d", i, idx, i)
		}
		if got := c.EventsSince(idx); got[0].Step != steps[i] {
			t.Fatalf("EventsSince(%d) starts at step %d, want %d", idx, got[0].Step, steps[i])
		}
	}
}

// TestEventJSONFaultField: the fault-id episode key renders between
// epoch and code, and is omitted when zero (outside any episode).
func TestEventJSONFaultField(t *testing.T) {
	e := Event{Step: 7, Type: TypeReinstallStarted, Replica: 1, Epoch: 2, FaultID: 3, Code: 4}
	want := `{"step":7,"type":"reinstall-started","replica":1,"epoch":2,"fault":3,"code":4}`
	if got := string(e.AppendJSON(nil)); got != want {
		t.Fatalf("fault-tagged event JSON:\n got %s\nwant %s", got, want)
	}
	e.FaultID = 0
	if got := string(e.AppendJSON(nil)); strings.Contains(got, "fault") {
		t.Fatalf("fault field rendered at zero: %s", got)
	}
}

// TestCursorsSurviveDrain: Hook indices and EventsSince cursors are
// positions in the collector's lifetime stream, so a cursor taken
// before a Drain still resolves correctly after it.
func TestCursorsSurviveDrain(t *testing.T) {
	c := NewCollector()
	var idxs []int
	c.Hook = func(idx int, e Event) { idxs = append(idxs, idx) }
	c.Emit(Ev(10, TypeNMI))
	c.Emit(Ev(20, TypeIRQ))
	if got := c.Drain(); len(got) != 2 {
		t.Fatalf("drain: %v", got)
	}
	c.Emit(Ev(30, TypeReset))
	c.Append(Ev(40, TypeException))
	if want := []int{0, 1, 2, 3}; len(idxs) != 4 || idxs[2] != 2 || idxs[3] != 3 {
		t.Fatalf("hook indices %v, want %v (absolute, drains included)", idxs, want)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want lifetime length 4", c.Len())
	}
	// Cursor 2 points at the first retained event; cursor 0 is before the
	// retained buffer and clamps to the oldest retained event.
	if got := c.EventsSince(2); len(got) != 2 || got[0].Step != 30 {
		t.Fatalf("EventsSince(2): %v", got)
	}
	if got := c.EventsSince(0); len(got) != 2 || got[0].Step != 30 {
		t.Fatalf("EventsSince(0) after drain: %v", got)
	}
	if got := c.EventsSince(c.Len()); got != nil {
		t.Fatalf("EventsSince(Len): %v, want nil", got)
	}
}

// TestConcurrentDrainEmitHookCoherent races Emit against Drain while a
// Hook observes every event, and checks the cursor contract under -race:
// hook indices are strictly increasing across the collector's lifetime
// and every event is delivered to the hook exactly once, no matter how
// the drains interleave.
func TestConcurrentDrainEmitHookCoherent(t *testing.T) {
	c := NewCollector()
	var mu sync.Mutex
	var idxs []int
	seen := make(map[uint64]int)
	c.Hook = func(idx int, e Event) {
		mu.Lock()
		idxs = append(idxs, idx)
		seen[e.Step]++
		mu.Unlock()
	}

	const emitters = 4
	const perEmitter = 300
	var emitWg, drainWg sync.WaitGroup
	var drained atomic.Int64
	stop := make(chan struct{})
	for e := 0; e < emitters; e++ {
		emitWg.Add(1)
		go func(e int) {
			defer emitWg.Done()
			for i := 0; i < perEmitter; i++ {
				c.Emit(Ev(uint64(e*perEmitter+i), TypeNMI))
			}
		}(e)
	}
	drainWg.Add(1)
	go func() {
		defer drainWg.Done()
		for {
			drained.Add(int64(len(c.Drain())))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	emitWg.Wait()
	close(stop)
	drainWg.Wait()

	const emitted = emitters * perEmitter
	if total := drained.Add(int64(len(c.Drain()))); total != emitted {
		t.Fatalf("event conservation: drained %d, emitted %d", total, emitted)
	}
	if c.Len() != emitted {
		t.Fatalf("lifetime Len = %d, want %d", c.Len(), emitted)
	}
	if len(idxs) != emitted {
		t.Fatalf("hook calls: %d, want %d", len(idxs), emitted)
	}
	for i := 1; i < len(idxs); i++ {
		if idxs[i] <= idxs[i-1] {
			t.Fatalf("hook indices not strictly increasing: idx[%d]=%d, idx[%d]=%d",
				i-1, idxs[i-1], i, idxs[i])
		}
	}
	if idxs[len(idxs)-1] != emitted-1 {
		t.Fatalf("last hook index %d, want %d", idxs[len(idxs)-1], emitted-1)
	}
	for step, n := range seen {
		if n != 1 {
			t.Fatalf("event step %d delivered to hook %d times", step, n)
		}
	}
}
