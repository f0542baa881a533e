package obs

// LegalityTracker watches a heartbeat stream incrementally and emits
// TypeLegalityRegained when the stream re-satisfies its legal-execution
// specification after a fault. It mirrors trace.HeartbeatSpec's
// RecoveredAfter detector — a beat run is legal when each beat is the
// successor of the previous within MaxGap (or a restart to Start when
// AllowRestart) — but works online, beat by beat, so recovery shows up
// in the event stream instead of only in a post-hoc analysis. The
// embedded PredicateTracker counts the legal run: Confirm consecutive
// legal beats declare recovery.
//
// The parameters are plain values rather than a trace.HeartbeatSpec so
// that obs keeps zero project imports (trace sits above machine, which
// emits into obs).
type LegalityTracker struct {
	// Start, MaxGap, AllowRestart mirror trace.HeartbeatSpec.
	Start        uint16
	MaxGap       uint64
	AllowRestart bool
	PredicateTracker

	have     bool
	prevStep uint64
	prevVal  uint16
}

// OnBeat feeds one heartbeat, judged by the succession rule, to the
// run counter. When a dirty stream accumulates Confirm consecutive
// legal beats, one TypeLegalityRegained event is emitted, stamped with
// the confirming beat's step; Code carries steps-to-legal (first beat
// of the legal run minus the fault step) and Arg the run's first-beat
// step.
func (t *LegalityTracker) OnBeat(step uint64, v uint16) {
	legal := !t.have ||
		(v == t.prevVal+1 && step-t.prevStep <= t.MaxGap) ||
		(t.AllowRestart && v == t.Start)
	t.prevStep, t.prevVal, t.have = step, v, true
	t.OnSample(step, legal)
}

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
