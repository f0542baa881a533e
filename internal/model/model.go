// Package model is a small explicit-state model checker used to verify
// the paper's hand-proved lemmas mechanically at full state-space
// coverage (where the simulator-based experiments sample): the
// self-stabilizing watchdog's firing bound, the NMI counter's delivery
// bound, and Dijkstra's K-state token ring — including the
// counterexamples that appear when the hardware or the K bound is
// weakened.
//
// Self-stabilization claims have a common shape: *from every state,
// every (fair) execution reaches the legal set within a bound, and the
// legal set is closed*. For deterministic systems this is a trajectory
// walk per state; for nondeterministic ones (an adversarial scheduler)
// it is the absence of any path of illegal states longer than the
// bound, which holds exactly when the illegal sub-graph is acyclic.
package model

import "fmt"

// System is a finite transition system over states of type S.
type System[S comparable] struct {
	// States enumerates the full state space (the "any initial
	// configuration" of self-stabilization).
	States []S
	// Next returns the successor states (one for deterministic
	// systems; the scheduler's choices for nondeterministic ones).
	// Next must be total: every state has at least one successor.
	Next func(S) []S
	// Legal reports whether a state belongs to the legal set.
	Legal func(S) bool
}

// CheckClosure verifies that the legal set is closed under transitions:
// no legal state has an illegal successor. It returns the first
// violating transition found.
func (sys *System[S]) CheckClosure() (from, to S, violated bool) {
	for _, s := range sys.States {
		if !sys.Legal(s) {
			continue
		}
		for _, n := range sys.Next(s) {
			if !sys.Legal(n) {
				return s, n, true
			}
		}
	}
	var zero S
	return zero, zero, false
}

// Heights computes the exact steps-to-legal distance of every state:
// d(s) = 0 for legal s and d(s) = 1 + max over successors d(n)
// otherwise. d is finite for every state iff the illegal sub-graph is
// acyclic; on failure ok is false and witness is the first state, in
// States order, whose height never resolves (it can reach an illegal
// cycle, or a successor outside the enumerated space). The height map
// is the canonical ranking function of the system — the static
// convergence certificates (imglint.RingCert) use it as their declared
// variant.
//
// One memoized post-order walk computes it: Next runs once per illegal
// state, and a state resolves once every successor has resolved.
func (sys *System[S]) Heights() (heights map[S]int, witness S, ok bool) {
	const (
		unknown = -1 // illegal, not yet visited
		onStack = -2 // on the walk's current path
		never   = -3 // reaches an illegal cycle or leaves States
	)
	d := make(map[S]int, len(sys.States))
	for _, s := range sys.States {
		if sys.Legal(s) {
			d[s] = 0
		} else {
			d[s] = unknown
		}
	}
	type frame struct {
		s     S
		succ  []S
		next  int // index of the successor to look at next
		worst int // largest successor height so far
	}
	var stack []frame
	failed := false
	for _, root := range sys.States {
		if d[root] != unknown {
			continue
		}
		d[root] = onStack
		stack = append(stack[:0], frame{s: root, succ: sys.Next(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			h := 0 // 0 while walking the successors
			for h == 0 && f.next < len(f.succ) {
				switch dn, seen := d[f.succ[f.next]]; {
				case !seen || dn < unknown:
					// A successor outside the enumerated space, on the
					// current path (an illegal cycle), or past one: the
					// model must enumerate fully and stay acyclic.
					h = never
				case dn == unknown:
					h = unknown
				default:
					f.worst = max(f.worst, dn)
					f.next++
				}
			}
			if h == unknown {
				// Descend; this frame resumes at the same successor.
				n := f.succ[f.next]
				d[n] = onStack
				stack = append(stack, frame{s: n, succ: sys.Next(n)})
				continue
			}
			if h == 0 {
				h = 1 + f.worst
			}
			failed = failed || h == never
			d[f.s] = h
			stack = stack[:len(stack)-1]
		}
	}
	if failed {
		for _, s := range sys.States {
			if d[s] < 0 {
				return nil, s, false
			}
		}
	}
	var zero S
	return d, zero, true
}

// CheckConvergence verifies that from EVERY state, EVERY execution
// reaches a legal state within bound steps. It returns the worst-case
// number of steps observed and, on failure, a witness state from which
// some execution stays illegal past the bound (for nondeterministic
// systems this includes any illegal cycle).
//
// The check computes the exact height map (Heights); max d is the
// exact worst-case convergence bound.
func (sys *System[S]) CheckConvergence(bound int) (worst int, witness S, ok bool) {
	d, w, ok := sys.Heights()
	if !ok {
		return 0, w, false
	}
	worst = 0
	for _, h := range d {
		worst = max(worst, h)
	}
	var zero S
	if worst > bound {
		// Find a state realizing the worst case as the witness.
		for _, s := range sys.States {
			if d[s] == worst {
				return worst, s, false
			}
		}
	}
	return worst, zero, true
}

// Verify runs closure and convergence together, as the paper's proof
// obligations pair them, and formats a readable error.
func (sys *System[S]) Verify(bound int) (worst int, err error) {
	if from, to, bad := sys.CheckClosure(); bad {
		return 0, fmt.Errorf("legal set not closed: %v -> %v", from, to)
	}
	worst, witness, ok := sys.CheckConvergence(bound)
	if !ok {
		if worst == 0 {
			return 0, fmt.Errorf("some execution never converges (illegal cycle reachable from %v)", witness)
		}
		return worst, fmt.Errorf("worst-case convergence %d exceeds bound %d (witness %v)", worst, bound, witness)
	}
	return worst, nil
}
