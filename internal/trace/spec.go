// Package trace implements execution monitoring for stabilization
// experiments: legal-execution specifications over guest output
// (heartbeats), convergence measurement, and program-counter sampling
// for fairness accounting.
//
// The paper defines a *legal execution* as one where the OS "carries
// its job exactly according to the operating system specifications",
// and a *weak legal execution* as an infinite concatenation of
// non-empty prefixes of legal executions (allowing repeated restarts).
// Our guest OSes emit a monotonically incrementing heartbeat on an
// output port as their observable specification; HeartbeatSpec encodes
// both legality notions over that stream:
//
//   - strict legality: each heartbeat is the successor of the previous
//     one, with bounded gaps between beats;
//   - weak legality: additionally, the stream may restart from the
//     initial value at any time (the paper's Theorem 3.4 system).
//
// The rule itself is obs.BeatRule, which the online detectors apply as
// beats arrive; HeartbeatSpec is that rule, and its judges here
// (Violations, LegalSuffixStart, RecoveredAfter, Availability) replay
// it over a recorded stream.
package trace

import (
	"fmt"

	"ssos/internal/dev"
	"ssos/internal/obs"
)

// Violation is one departure from the specification.
type Violation struct {
	Step   uint64 // machine step at which the violation was observed
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d: %s", v.Step, v.Reason)
}

// HeartbeatSpec is the legal-execution specification for the guest
// heartbeat stream: the succession rule obs.BeatRule, judged here over
// a recorded stream.
type HeartbeatSpec obs.BeatRule

// Violations returns every specification violation in the write
// stream, including a liveness violation if the stream has gone silent
// before now. A beat that both comes late and breaks succession is two
// violations.
func (s HeartbeatSpec) Violations(writes []dev.PortWrite, now uint64) []Violation {
	var out []Violation
	rule := obs.BeatRule(s)
	for i := 1; i < len(writes); i++ {
		prev, cur := writes[i-1], writes[i]
		gap, broken := rule.Judge(prev.Step, prev.Value, cur.Step, cur.Value)
		if gap {
			out = append(out, Violation{cur.Step, fmt.Sprintf(
				"heartbeat gap %d exceeds %d", cur.Step-prev.Step, s.MaxGap)})
		}
		if broken {
			out = append(out, Violation{cur.Step, fmt.Sprintf(
				"heartbeat %#x does not follow %#x", cur.Value, prev.Value)})
		}
	}
	if len(writes) == 0 {
		if rule.Silent(0, now) {
			out = append(out, Violation{now, "no heartbeat ever observed"})
		}
		return out
	}
	if last := writes[len(writes)-1]; rule.Silent(last.Step, now) {
		out = append(out, Violation{now, fmt.Sprintf(
			"silent for %d steps (max %d)", now-last.Step, s.MaxGap)})
	}
	return out
}

// LegalSuffixStart returns the index of the first write of the maximal
// legal suffix of the stream: every write from that index onward obeys
// the spec, and no write from that index onward was itself a violation
// (a beat that broke succession — e.g. a corrupted value — is excluded
// from the suffix even if the transition out of it looks like a legal
// restart). Returns 0 for an entirely legal stream and len(writes) if
// the final write is itself a violation. Liveness against "now" is not
// considered; combine with Violations for that.
func (s HeartbeatSpec) LegalSuffixStart(writes []dev.PortWrite) int {
	rule := obs.BeatRule(s)
	start := 0
	for i := 1; i < len(writes); i++ {
		prev, cur := writes[i-1], writes[i]
		if gap, broken := rule.Judge(prev.Step, prev.Value, cur.Step, cur.Value); gap || broken {
			start = i + 1
		}
	}
	return start
}

// RecoveredAfter reports whether the stream contains, after faultStep,
// a run of at least confirm consecutive legal heartbeats extending to
// the end of the stream, and if so the step of the first heartbeat of
// that run. This is the experiments' convergence detector: the system
// has stabilized when its observable behaviour is legal from some
// point onward.
func (s HeartbeatSpec) RecoveredAfter(writes []dev.PortWrite, faultStep uint64, confirm int) (uint64, bool) {
	// The recovery point is the start of the maximal legal suffix, or
	// the first heartbeat after the fault if the fault did not disturb
	// legality at all.
	idx := s.LegalSuffixStart(writes)
	for idx < len(writes) && writes[idx].Step < faultStep {
		idx++
	}
	if len(writes)-idx < confirm {
		return 0, false
	}
	return writes[idx].Step, true
}

// Availability returns the fraction of total steps during which the
// stream shows the system in strictly legal operation: the sum of the
// gaps closed by successor beats. Restart beats and violations count as
// downtime, even where the spec allows restarts.
func (s HeartbeatSpec) Availability(writes []dev.PortWrite, total uint64) float64 {
	if total == 0 {
		return 0
	}
	strict := obs.BeatRule(s)
	strict.AllowRestart = false
	var up uint64
	for i := 1; i < len(writes); i++ {
		prev, cur := writes[i-1], writes[i]
		if gap, broken := strict.Judge(prev.Step, prev.Value, cur.Step, cur.Value); !gap && !broken {
			up += cur.Step - prev.Step
		}
	}
	return float64(up) / float64(total)
}

// Sustained is the convergence detector for legality that is a sampled
// state predicate (the token rings' "exactly one privilege") rather
// than a property of an output stream. It advances the system with
// run(every) for up to horizon steps, evaluating holds after each
// chunk, and reports whether holds was true at window consecutive
// samples, returning now() at the first sample of that window.
func Sustained(run func(steps int), now func() uint64, holds func() bool, horizon, every, window int) (uint64, bool) {
	good := 0
	var since uint64
	for ran := 0; ran < horizon; ran += every {
		run(every)
		if !holds() {
			good = 0
			continue
		}
		if good == 0 {
			since = now()
		}
		good++
		if good >= window {
			return since, true
		}
	}
	return 0, false
}
