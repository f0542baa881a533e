// Package obs is the unified observability layer: a structured event
// stream and a stabilization-metrics registry threaded through the
// machine, the core systems, the replicated cluster and the experiment
// harness.
//
// The paper proves its designs legal (watchdog NMIs, ROM reinstalls,
// consistency-predicate repairs); this package makes those arguments
// *observable*: every stabilization-relevant action is emitted as a
// typed event on a Probe, and a metrics registry condenses the stream
// into the headline numbers — steps-to-legal after each injected
// fault, reinstall count, repair-vs-reinstall ratio, per-replica
// availability. It also states heartbeat legality, once: BeatRule is
// the succession rule that LegalityTracker and the cluster voter apply
// as beats arrive and trace.HeartbeatSpec's batch judges replay.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Emission sites hold a nil-checked Probe
//     pointer; an uninstrumented machine pays one nil compare on the
//     rare event paths (interrupt delivery, exception, reset) and
//     nothing on the per-instruction path.
//   - Deterministic output. Events carry machine-step stamps, never
//     wall-clock time; exporters render with stable field order; the
//     cluster drains per-replica buffers in replica order. A fixed
//     seed therefore produces byte-identical logs regardless of how
//     many workers execute the run.
//   - No upward imports. obs depends only on the standard library, so
//     every layer (machine, fault, dev, core, cluster, expt) can emit
//     into it without cycles.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Type classifies a structured event.
type Type uint8

// Event types. Each maps to one mechanism of the paper (the mapping is
// documented in DESIGN.md §Observability).
const (
	// TypeNMI: the machine delivered a non-maskable interrupt (the
	// watchdog's stabilizer entry, Section 2).
	TypeNMI Type = iota
	// TypeIRQ: the machine delivered a maskable interrupt.
	TypeIRQ
	// TypeException: the processor raised an exception (Code = vector).
	TypeException
	// TypeReset: the machine performed a hardware reset.
	TypeReset
	// TypeFaultInjected: the experiment harness injected a transient
	// fault (Code = fault.Kind, Note = kind name and detail).
	TypeFaultInjected
	// TypeReinstallStarted: a stabilizer run that reinstalls the OS
	// image from ROM began (Section 3, Figure 1).
	TypeReinstallStarted
	// TypeReinstallCompleted: the guest produced output again after a
	// reinstall — the restart is live.
	TypeReinstallCompleted
	// TypePredicateEval: the approach-2 monitor ran its consistency
	// predicates over the soft state (Section 4).
	TypePredicateEval
	// TypePredicateFailed: a consistency predicate did not hold
	// (Code = the guest's repair code, e.g. 0xE001 canary).
	TypePredicateFailed
	// TypePredicateRepaired: the monitor repaired the failed predicate
	// (Code = repair code). The guest reports failure and repair in one
	// port write, so these are emitted pairwise at the same step.
	TypePredicateRepaired
	// TypeLegalityRegained: the observable output stream satisfied the
	// legal-execution specification again after a fault, confirmed by a
	// run of consecutive legal heartbeats (Code = steps from the fault
	// to the first legal beat, Arg = the step of that beat).
	TypeLegalityRegained
	// TypeReplicaEvicted: the cluster reconfigurator evicted a replica
	// (Replica = evictee, Note = reason).
	TypeReplicaEvicted
	// TypeReplicaRejoined: the evicted replica rejoined after reinstall
	// (Arg = donor replica + 1, 0 for a from-ROM fresh boot).
	TypeReplicaRejoined
	// TypeVoteTally: the cluster voter tallied one epoch (Code = the
	// winning digest, Arg = agreeing replicas, Note = verdict).
	TypeVoteTally

	numTypes // sentinel
)

var typeNames = [numTypes]string{
	TypeNMI:                "nmi",
	TypeIRQ:                "irq",
	TypeException:          "exception",
	TypeReset:              "reset",
	TypeFaultInjected:      "fault-injected",
	TypeReinstallStarted:   "reinstall-started",
	TypeReinstallCompleted: "reinstall-completed",
	TypePredicateEval:      "predicate-eval",
	TypePredicateFailed:    "predicate-failed",
	TypePredicateRepaired:  "predicate-repaired",
	TypeLegalityRegained:   "legality-regained",
	TypeReplicaEvicted:     "replica-evicted",
	TypeReplicaRejoined:    "replica-rejoined",
	TypeVoteTally:          "vote-tally",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Event is one structured observation. Step is the machine step at
// which the event occurred (the only clock in the system — wall time
// never appears, keeping output reproducible). Replica and Epoch are
// -1 outside a cluster context; Code and Arg carry type-specific
// numeric payloads documented on the Type constants.
//
// FaultID is the episode key: every injected fault gets a 1-based
// ordinal from its injector, and the instrumentation layer stamps that
// ordinal onto every event it derives between the injection and the
// legality re-confirmation (reinstalls, predicate repairs, evictions,
// rejoins, the legality-regained confirmation itself). Zero means
// "outside any recovery episode" — e.g. the periodic watchdog NMIs of
// an undisturbed run. The (Replica, FaultID) pair lets the episode
// reconstructor fold the stream into causal recovery episodes without
// any step-window heuristics.
type Event struct {
	Step    uint64
	Type    Type
	Replica int
	Epoch   int
	FaultID uint64
	Code    uint64
	Arg     uint64
	Note    string
}

// Ev builds a plain machine-level event: no replica/epoch scope.
// Emission sites use it so that scope tagging stays the collector's
// job.
func Ev(step uint64, t Type) Event {
	return Event{Step: step, Type: t, Replica: -1, Epoch: -1}
}

// AppendJSON appends the event as one JSON object (no newline) with a
// fixed field order, so logs are byte-stable across runs.
func (e Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"step":`...)
	b = strconv.AppendUint(b, e.Step, 10)
	b = append(b, `,"type":"`...)
	b = append(b, e.Type.String()...)
	b = append(b, '"')
	if e.Replica >= 0 {
		b = append(b, `,"replica":`...)
		b = strconv.AppendInt(b, int64(e.Replica), 10)
	}
	if e.Epoch >= 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(e.Epoch), 10)
	}
	if e.FaultID != 0 {
		b = append(b, `,"fault":`...)
		b = strconv.AppendUint(b, e.FaultID, 10)
	}
	if e.Code != 0 {
		b = append(b, `,"code":`...)
		b = strconv.AppendUint(b, e.Code, 10)
	}
	if e.Arg != 0 {
		b = append(b, `,"arg":`...)
		b = strconv.AppendUint(b, e.Arg, 10)
	}
	if e.Note != "" {
		b = append(b, `,"note":`...)
		b = strconv.AppendQuote(b, e.Note)
	}
	return append(b, '}')
}

// Probe receives structured events. Implementations must be cheap:
// emission sites sit on interrupt/exception paths.
type Probe interface {
	Emit(Event)
}

// Collector is the standard Probe: it buffers the event stream in
// emission order and folds each event into a metrics registry.
// Emission is typically single-goroutine (one collector per replica or
// per system), but every method is safe for concurrent use: a mutex
// guards the buffer and the registry folds, and readers receive
// snapshots. That is what lets a served session stream and export its
// event log from other goroutines while the run loop is still emitting.
//
// The one concurrency carve-out is direct access to the Metrics field:
// code that writes the live registry from outside (core.ExportMetrics
// in the batch CLIs, the cluster's FinishObservability merge) must do
// so from the emitting goroutine after emission has stopped — the
// concurrent path is MetricsSnapshot.
type Collector struct {
	// Replica and Epoch tag incoming events that carry no scope of
	// their own (machine-level emissions). -1 leaves events unscoped.
	// They are configuration, set before emission starts, not guarded
	// by the mutex.
	Replica int
	Epoch   int
	// Metrics is the registry events are folded into.
	Metrics *Metrics
	// Hook, when non-nil, is invoked for every event entering the
	// buffer (Emit and Append alike) with the event's absolute stream
	// index — the cursor a reader would pass to EventsSince to start at
	// that event. It is called under the collector lock, so hooks must
	// be cheap and must not call back into the collector; the serve
	// layer uses it to fan events out to live SSE subscribers and to
	// feed the live episode tracker.
	//
	// Cursors are positions in the collector's lifetime stream, not in
	// the current buffer: Drain advances a base offset instead of
	// resetting indices, so a hooked publish that races a Drain can
	// never observe a half-reset collector or a cursor that aliases an
	// already-drained event. Indices handed to the hook are strictly
	// increasing for the collector's lifetime, drains included.
	Hook func(idx int, e Event)

	mu sync.Mutex
	//ssos:guarded-by mu
	events []Event
	// drained counts events removed by Drain; the absolute stream index
	// of events[i] is drained+i.
	//ssos:guarded-by mu
	drained int
}

// NewCollector returns an unscoped collector with a fresh registry.
func NewCollector() *Collector {
	return &Collector{Replica: -1, Epoch: -1, Metrics: NewMetrics()}
}

// Emit buffers the event and updates the metrics registry.
func (c *Collector) Emit(e Event) {
	if e.Replica < 0 {
		e.Replica = c.Replica
	}
	if e.Epoch < 0 {
		e.Epoch = c.Epoch
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.observe(e)
	if c.Hook != nil {
		c.Hook(c.drained+len(c.events)-1, e)
	}
	c.mu.Unlock()
}

// Append splices pre-scoped events verbatim WITHOUT folding them into
// the metrics registry. The cluster coordinator uses it for drained
// replica buffers: those events were already folded into the replicas'
// own registries, which are aggregated separately via Metrics.Merge in
// replica order.
func (c *Collector) Append(events ...Event) {
	c.mu.Lock()
	for _, e := range events {
		c.events = append(c.events, e)
		if c.Hook != nil {
			c.Hook(c.drained+len(c.events)-1, e)
		}
	}
	c.mu.Unlock()
}

// observe folds one event into the metrics registry.
func (c *Collector) observe(e Event) {
	m := c.Metrics
	switch e.Type {
	case TypeNMI:
		m.Inc("machine.nmis")
	case TypeIRQ:
		m.Inc("machine.irqs")
	case TypeException:
		m.Inc("machine.exceptions")
	case TypeReset:
		m.Inc("machine.resets")
	case TypeFaultInjected:
		m.Inc("faults.injected")
	case TypeReinstallStarted:
		m.Inc("stabilizer.reinstalls_started")
	case TypeReinstallCompleted:
		m.Inc("stabilizer.reinstalls")
	case TypePredicateEval:
		m.Inc("stabilizer.predicate_evals")
	case TypePredicateFailed:
		m.Inc("stabilizer.predicate_failures")
	case TypePredicateRepaired:
		m.Inc("stabilizer.repairs")
	case TypeLegalityRegained:
		m.Observe("stabilization.steps_to_legal", e.Code)
	case TypeReplicaEvicted:
		m.Inc("cluster.evictions")
		if e.Replica >= 0 {
			m.Inc("replica." + strconv.Itoa(e.Replica) + ".evictions")
		}
	case TypeVoteTally:
		m.Inc("cluster.epochs")
		if e.Note == "legal" {
			m.Inc("cluster.legal_epochs")
		}
	}
}

// Events returns a snapshot of the buffered stream in emission order.
func (c *Collector) Events() []Event { return c.EventsSince(0) }

// EventsSince returns a snapshot of the buffered events from the given
// cursor (an absolute stream index) onward. Cursors beyond the stream
// yield nil, so a poller can hand back the Len from its previous call
// verbatim; cursors pointing before the retained buffer (possible only
// after a Drain) start at the oldest retained event.
func (c *Collector) EventsSince(cursor int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	cursor -= c.drained
	if cursor < 0 {
		cursor = 0
	}
	if cursor >= len(c.events) {
		return nil
	}
	return append([]Event(nil), c.events[cursor:]...)
}

// Len returns the total number of events the collector has ever
// buffered — the absolute stream length, drains included, so Len's
// value is always a valid EventsSince cursor for "everything new from
// here".
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drained + len(c.events)
}

// Drain returns the buffered events and clears the buffer (metrics are
// untouched — they aggregate over the collector's whole lifetime).
// Drains advance the absolute stream offset rather than resetting it,
// so Hook indices and EventsSince cursors stay coherent across drains:
// an Emit racing a Drain is either drained (and its hook index points
// at the now-removed prefix, which EventsSince maps to the oldest
// retained event) or retained (and its index resolves exactly), never
// half of each.
func (c *Collector) Drain() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.events
	c.drained += len(out)
	c.events = nil
	return out
}

// MetricsSnapshot returns a deep copy of the registry, taken under the
// collector lock so it is consistent even while emission continues.
func (c *Collector) MetricsSnapshot() *Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Metrics.Snapshot()
}

// WriteJSONL writes the buffered events as JSON lines.
func (c *Collector) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, c.EventsSince(0))
}

// WriteJSONL renders events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	var buf []byte
	for _, e := range events {
		buf = e.AppendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
