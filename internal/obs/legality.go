package obs

// BeatRule is the heartbeat succession rule, the repo's one statement
// of it: each beat is the successor of the previous one (value + 1,
// wrapping at 16 bits) at most MaxGap steps after it, or, where
// AllowRestart admits the weakly legal executions of Theorem 3.4, a
// restart to Start whatever the gap. LegalityTracker and the cluster
// voter apply it as beats arrive; trace.HeartbeatSpec replays it over a
// recorded stream.
type BeatRule struct {
	// Start is the first value a freshly started guest emits.
	Start uint16
	// MaxGap is the largest allowed step distance between consecutive
	// heartbeats (and from the last heartbeat to "now"). It encodes
	// "the OS is actually running", not just "it was running once".
	MaxGap uint64
	// AllowRestart accepts a reset to Start at any point (weak
	// legality, the paper's reinstall-and-restart designs).
	AllowRestart bool
}

// Judge judges beat v at step against its predecessor prev at
// prevStep: gap reports that it came more than MaxGap steps later,
// broken that it does not succeed prev. A restart beat, where allowed,
// is neither: the silent reinstall period belongs to the weak legal
// execution, whose new legal prefix begins with it.
func (r BeatRule) Judge(prevStep uint64, prev uint16, step uint64, v uint16) (gap, broken bool) {
	if r.AllowRestart && v == r.Start {
		return false, false
	}
	return step-prevStep > r.MaxGap, v != prev+1
}

// Silent reports whether a stream whose last beat was at step last
// (0 for a stream with none) has gone quiet by now.
func (r BeatRule) Silent(last, now uint64) bool { return now-last > r.MaxGap }

// BeatStream applies a BeatRule online, one beat at a time, keeping
// only the previous beat.
type BeatStream struct {
	Rule BeatRule

	have bool
	step uint64
	val  uint16
}

// Next judges a beat against the previous one and records it. The
// first beat has no predecessor and is legal.
func (b *BeatStream) Next(step uint64, v uint16) bool {
	gap, broken := b.Rule.Judge(b.step, b.val, step, v)
	legal := !b.have || !gap && !broken
	b.have, b.step, b.val = true, step, v
	return legal
}

// Silent reports whether the stream has gone quiet by now: its last
// beat, or step 0 if it has none, is more than MaxGap steps back.
func (b *BeatStream) Silent(now uint64) bool { return b.Rule.Silent(b.step, now) }

// LegalityTracker watches a heartbeat stream incrementally and emits
// TypeLegalityRegained when the stream re-satisfies its legal-execution
// specification after a fault. Its BeatStream judges each beat by the
// succession rule, the judgement trace.HeartbeatSpec's RecoveredAfter
// replays after the fact, so recovery shows up in the event stream
// instead of only in a post-hoc analysis. The embedded
// PredicateTracker counts the legal run: Confirm consecutive legal
// beats declare recovery.
type LegalityTracker struct {
	BeatStream
	PredicateTracker
}

// OnBeat feeds one heartbeat, judged by the succession rule, to the
// run counter. When a dirty stream accumulates Confirm consecutive
// legal beats, one TypeLegalityRegained event is emitted, stamped with
// the confirming beat's step; Code carries steps-to-legal (first beat
// of the legal run minus the fault step) and Arg the run's first-beat
// step.
func (t *LegalityTracker) OnBeat(step uint64, v uint16) { t.OnSample(step, t.Next(step, v)) }

// PredicateTracker turns a stream of legality samples into
// TypeLegalityRegained events: the token-ring workloads sample their
// state predicate, "exactly one privilege"; LegalityTracker feeds it
// each heartbeat's legality. After a fault, Confirm consecutive true
// samples emit one TypeLegalityRegained whose Code carries
// steps-to-legal (first sample of the true run minus the fault step)
// and Arg the run's first-sample step.
type PredicateTracker struct {
	// Confirm is the number of consecutive true samples required.
	Confirm int
	// Sink receives the emitted events.
	Sink Probe

	runStart uint64
	runLen   int
	dirty    bool
	fault    uint64
}

// OnFault marks the predicate stream dirty at the given step; the
// current true run is restarted so recovery must be re-confirmed by
// samples after the fault, and steps-to-legal is measured from the most
// recent fault.
func (t *PredicateTracker) OnFault(step uint64) {
	t.dirty = true
	t.fault = step
	t.runLen = 0
}

// OnSample feeds one predicate evaluation.
func (t *PredicateTracker) OnSample(step uint64, legal bool) {
	if !legal {
		t.runLen = 0
		return
	}
	if t.runLen == 0 {
		t.runStart = step
	}
	t.runLen++
	if t.dirty && t.runLen >= t.Confirm && t.Sink != nil {
		t.dirty = false
		t.Sink.Emit(Event{
			Step:    step,
			Type:    TypeLegalityRegained,
			Replica: -1,
			Epoch:   -1,
			Code:    t.runStart - t.fault,
			Arg:     t.runStart,
		})
	}
}
