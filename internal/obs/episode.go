package obs

import (
	"fmt"
	"strings"
	"sync"
)

// Episode reconstruction: folding the typed event stream into causal
// recovery episodes.
//
// An episode is everything that happens between one injected fault and
// the re-confirmation of legality — the paper's "bounded number of
// steps to a safe state", made visible as a span tree instead of a
// scalar. The fold needs no step-window heuristics: every event that
// belongs to an episode carries the fault's FaultID (stamped by the
// instrumentation in internal/core, internal/fault and
// internal/cluster), and episodes are keyed by the (Replica, FaultID)
// scope pair. Everything is stamped in logical step-time, so two folds
// of the same stream — or of two streams from the same seed — are
// byte-identical.

// Span is one timed phase of a recovery episode, in machine steps.
type Span struct {
	// Name identifies the phase: "detect:<event>", "reinstall",
	// "repair:0x<code>", "evict:<reason>", "confirm".
	Name  string `json:"name"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// Episode resolutions.
const (
	// ResolutionLegality: the scope's own heartbeat stream re-satisfied
	// its legal-execution specification (TypeLegalityRegained).
	ResolutionLegality = "legality-regained"
	// ResolutionRejoin: the cluster evicted the replica, reinstalled it
	// from ROM and rejoined it by state transfer (TypeReplicaRejoined).
	ResolutionRejoin = "evict-rejoin"
	// ResolutionPreempted: a second fault struck the same scope before
	// this episode confirmed legality; the new fault opens a fresh
	// episode instead of silently extending this one.
	ResolutionPreempted = "preempted"
)

// Episode is one reconstructed recovery episode: a root interval from
// fault injection to resolution, with child spans for each recovery
// phase observed in between.
type Episode struct {
	// ID is the 1-based fold ordinal (episodes are numbered in event
	// order, which is deterministic).
	ID int `json:"id"`
	// Replica is the episode scope: the struck replica, or -1 for a
	// single-machine run.
	Replica int `json:"replica"`
	// FaultID is the injector ordinal of the (latest) fault that opened
	// the episode; with Replica it keys the episode uniquely.
	FaultID uint64 `json:"fault_id"`
	// FaultClass names the injected fault kind(s); simultaneous
	// injections (one request landing several faults at one step) are
	// coalesced into a single episode with "+"-joined classes.
	FaultClass string `json:"fault_class"`
	// Start is the injection step; End is the resolution step (equal to
	// Start while the episode is in flight).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Resolved reports whether recovery completed; Resolution says how
	// (ResolutionLegality or ResolutionRejoin). A preempted episode is
	// not resolved: its recovery was cut short, not confirmed.
	Resolved   bool   `json:"resolved"`
	Preempted  bool   `json:"preempted,omitempty"`
	Resolution string `json:"resolution,omitempty"`
	// StepsToLegal is the episode latency in machine steps: for
	// legality resolutions the tracked steps-to-legal (fault to first
	// beat of the confirming legal run), for rejoin resolutions the
	// fault-to-rejoin interval.
	StepsToLegal uint64 `json:"steps_to_legal,omitempty"`
	// Evals counts the predicate evaluations observed during the
	// episode (monitor approach).
	Evals int `json:"predicate_evals,omitempty"`
	// Spans are the recovery phases, in observation order.
	Spans []Span `json:"spans"`
}

// Latency is the episode's full duration in steps (fault injection to
// resolution; preempted episodes report time until preemption).
func (ep *Episode) Latency() uint64 {
	if ep.End < ep.Start {
		return 0
	}
	return ep.End - ep.Start
}

// openState is the fold bookkeeping for one in-flight episode.
type openState struct {
	ep          *Episode
	detected    bool
	reinstallAt uint64
	reinstall   bool
	failAt      uint64
	failCode    uint64
	failed      bool
	evictAt     uint64
	evictNote   string
	evicted     bool
}

// EpisodeTracker folds an event stream into recovery episodes,
// incrementally. It works both post-hoc (FoldEpisodes feeds a recorded
// stream) and live (the serve layer feeds it from the Collector's Hook
// while readers snapshot concurrently); all methods are safe for
// concurrent use.
type EpisodeTracker struct {
	mu sync.Mutex
	// all holds every episode in fold order; open points at the
	// in-flight episode per scope (at most one per scope — a newer
	// fault preempts the previous episode). Iteration for snapshots
	// walks the slice, never the map, so output order cannot depend on
	// map layout.
	all  []*Episode
	open map[int]*openState
}

// NewEpisodeTracker returns an empty tracker.
func NewEpisodeTracker() *EpisodeTracker {
	return &EpisodeTracker{open: make(map[int]*openState)}
}

// Feed folds one event. Events must arrive in stream order (the order
// a Collector buffers them).
func (t *EpisodeTracker) Feed(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	scope := e.Replica
	o := t.open[scope]
	switch e.Type {
	case TypeFaultInjected:
		cls := faultClass(e.Note)
		if o != nil {
			if e.Step == o.ep.Start {
				// Several faults landed at one step (one injection
				// request, e.g. "pc" corrupts ip and a segment):
				// one episode, latest fault id, joined classes.
				o.ep.FaultClass += "+" + cls
				o.ep.FaultID = e.FaultID
				return
			}
			t.closeLocked(o, e.Step, "", false)
			o.ep.Preempted = true
			o.ep.Resolution = ResolutionPreempted
		}
		ep := &Episode{
			ID:         len(t.all) + 1,
			Replica:    scope,
			FaultID:    e.FaultID,
			FaultClass: cls,
			Start:      e.Step,
			End:        e.Step,
		}
		t.all = append(t.all, ep)
		t.open[scope] = &openState{ep: ep}

	case TypeNMI, TypeIRQ, TypeException, TypeReset:
		if o == nil || e.FaultID == 0 || o.detected {
			return
		}
		o.detected = true
		o.ep.Spans = append(o.ep.Spans, Span{
			Name: "detect:" + e.Type.String(), Start: o.ep.Start, End: e.Step})

	case TypeReinstallStarted:
		if o == nil || e.FaultID == 0 {
			return
		}
		if o.reinstall {
			// Back-to-back reinstalls without an intervening completion:
			// close the stalled attempt where the next one begins.
			o.ep.Spans = append(o.ep.Spans, Span{Name: "reinstall", Start: o.reinstallAt, End: e.Step})
		}
		o.reinstall, o.reinstallAt = true, e.Step

	case TypeReinstallCompleted:
		if o == nil || !o.reinstall {
			return
		}
		o.reinstall = false
		o.ep.Spans = append(o.ep.Spans, Span{Name: "reinstall", Start: o.reinstallAt, End: e.Step})

	case TypePredicateEval:
		if o != nil {
			o.ep.Evals++
		}

	case TypePredicateFailed:
		if o == nil || e.FaultID == 0 {
			return
		}
		o.failed, o.failAt, o.failCode = true, e.Step, e.Code

	case TypePredicateRepaired:
		if o == nil || e.FaultID == 0 {
			return
		}
		start, code := e.Step, e.Code
		if o.failed {
			start, code = o.failAt, o.failCode
			o.failed = false
		}
		o.ep.Spans = append(o.ep.Spans, Span{
			Name: fmt.Sprintf("repair:%#04x", code), Start: start, End: e.Step})

	case TypeReplicaEvicted:
		if o == nil || e.FaultID == 0 {
			return
		}
		o.evicted, o.evictAt, o.evictNote = true, e.Step, e.Note

	case TypeReplicaRejoined:
		if o == nil || !o.evicted {
			return
		}
		o.ep.Spans = append(o.ep.Spans, Span{
			Name: "evict:" + o.evictNote, Start: o.evictAt, End: e.Step})
		o.evicted = false
		t.closeLocked(o, e.Step, ResolutionRejoin, true)
		if e.Step > o.ep.Start {
			o.ep.StepsToLegal = e.Step - o.ep.Start
		}

	case TypeLegalityRegained:
		if o == nil {
			return
		}
		o.ep.Spans = append(o.ep.Spans, Span{Name: "confirm", Start: e.Arg, End: e.Step})
		t.closeLocked(o, e.Step, ResolutionLegality, true)
		o.ep.StepsToLegal = e.Code
	}
}

// closeLocked finishes an in-flight episode at the given step: pending
// spans are closed, the episode leaves the open set. Caller holds mu.
func (t *EpisodeTracker) closeLocked(o *openState, step uint64, resolution string, resolved bool) {
	if o.reinstall {
		o.reinstall = false
		o.ep.Spans = append(o.ep.Spans, Span{Name: "reinstall", Start: o.reinstallAt, End: step})
	}
	if o.evicted {
		o.evicted = false
		o.ep.Spans = append(o.ep.Spans, Span{Name: "evict:" + o.evictNote, Start: o.evictAt, End: step})
	}
	o.ep.End = step
	o.ep.Resolved = resolved
	o.ep.Resolution = resolution
	delete(t.open, o.ep.Replica)
}

// Episodes returns a snapshot of every episode in fold order,
// in-flight ones included (Resolved false, End == Start).
func (t *EpisodeTracker) Episodes() []Episode {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Episode, len(t.all))
	for i, ep := range t.all {
		out[i] = *ep
		out[i].Spans = append([]Span(nil), ep.Spans...)
	}
	return out
}

// FoldEpisodes reconstructs the recovery episodes of a recorded event
// stream. Two folds of the same stream return identical slices.
func FoldEpisodes(events []Event) []Episode {
	t := NewEpisodeTracker()
	for _, e := range events {
		t.Feed(e)
	}
	return t.Episodes()
}

// RecordEpisodes folds episode statistics into a metrics registry:
// episode counters (total/resolved/preempted/in-flight) and latency
// histograms — overall, split by fault class, and split by recovery
// action — whose exported summaries carry the p50/p90/p95/p99/max
// derivations. Iteration walks the episode slice, so registry content
// is deterministic for a deterministic stream.
func RecordEpisodes(m *Metrics, eps []Episode) {
	for i := range eps {
		ep := &eps[i]
		m.Inc("episodes.total")
		switch {
		case ep.Preempted:
			m.Inc("episodes.preempted")
		case !ep.Resolved:
			m.Inc("episodes.in_flight")
		default:
			m.Inc("episodes.resolved")
			lat := ep.Latency()
			m.Observe("episode.latency", lat)
			m.Observe("episode.latency.fault."+ep.FaultClass, lat)
			m.Observe("episode.latency.action."+ep.Resolution, lat)
		}
	}
}

// faultClass extracts the fault-kind name from an injection event's
// note ("<kind>" or "<kind> <detail>").
func faultClass(note string) string {
	if i := strings.IndexByte(note, ' '); i > 0 {
		note = note[:i]
	}
	if note == "" {
		return "fault"
	}
	return note
}
