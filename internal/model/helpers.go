package model

import "fmt"

// CheckRecurrence verifies a recurrence property of a deterministic
// system: along the trajectory from EVERY state, event occurs within
// maxGap steps, and every subsequent gap between events is at most
// maxGap (checked over horizon steps). This is the shape of the
// paper's watchdog guarantee: "starting from any state of the
// watchdog, a signal will be triggered within the desired interval".
func CheckRecurrence[S comparable](states []S, next func(S) S, event func(S) bool, maxGap, horizon int) error {
	for _, start := range states {
		s := start
		gap := 0
		for step := 0; step < horizon; step++ {
			s = next(s)
			gap++
			if event(s) {
				gap = 0
				continue
			}
			if gap > maxGap {
				return fmt.Errorf("from %v: no event within %d steps (at step %d)", start, maxGap, step)
			}
		}
	}
	return nil
}

// GreatestClosedSubset returns the largest subset of candidate states
// that is closed under transitions, as membership by position in
// States: states are removed until every remaining state's successors
// all remain. This is how a syntactic "looks legal" predicate (e.g.
// exactly one privilege in the shared variables) is refined into a
// sound legal set when auxiliary state (stale registers, program
// counters) can still push an execution out.
func (sys *System[S]) GreatestClosedSubset(candidate func(S) bool) []bool {
	in := make([]bool, len(sys.States))
	for i, s := range sys.States {
		in[i] = candidate(s)
	}
	var succ []S
	for changed := true; changed; {
		changed = false
		for i, s := range sys.States {
			if !in[i] {
				continue
			}
			succ = sys.Next(s, succ[:0])
			for _, n := range succ {
				if j := sys.Index(n); j < 0 || !in[j] {
					in[i] = false
					changed = true
					break
				}
			}
		}
	}
	return in
}
