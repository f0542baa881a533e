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
//
// The checkers index states by position, not by hash: a state's
// position in States is its identity, and Index maps a value back to
// it, so per-state data (heights, closed sets) lives in slices.
type System[S comparable] struct {
	// States enumerates the full state space (the "any initial
	// configuration" of self-stabilization).
	States []S
	// Index is the inverse of States: Index(States[i]) == i, and -1 for
	// any value outside the enumerated space. The package's
	// constructors enumerate in mixed radix and compute it
	// arithmetically.
	Index func(S) int
	// Next appends the successor states of s to out and returns the
	// extended slice (one successor for deterministic systems; the
	// scheduler's choices for nondeterministic ones). The checkers pass
	// one reused buffer, so Next allocates only when it grows. Next
	// must be total: every state has at least one successor.
	Next func(s S, out []S) []S
	// Legal reports whether a state belongs to the legal set.
	Legal func(S) bool
}

// CheckClosure verifies that the legal set is closed under transitions:
// no legal state has an illegal successor. It returns the first
// violating transition found.
func (sys *System[S]) CheckClosure() (from, to S, violated bool) {
	var succ []S
	for _, s := range sys.States {
		if !sys.Legal(s) {
			continue
		}
		succ = sys.Next(s, succ[:0])
		for _, n := range succ {
			if !sys.Legal(n) {
				return s, n, true
			}
		}
	}
	var zero S
	return zero, zero, false
}

// Heights computes the exact steps-to-legal distance of every state,
// in States order: d(s) = 0 for legal s and d(s) = 1 + max over
// successors d(n) otherwise. d is finite for every state iff the
// illegal sub-graph is acyclic; on failure ok is false and witness is
// the first state, in States order, whose height never resolves (it
// can reach an illegal cycle, or a successor outside the enumerated
// space). The heights are the canonical ranking function of the
// system — the ring prover (imglint.CheckRingCert) ranks the relation
// it extracts from the ROM bytes by them, and the largest is its bound.
//
// One memoized post-order walk computes it: Next runs once per illegal
// state, and a state resolves once every successor has resolved. The
// frames on the walk's path keep their successors' positions on one
// shared stack, truncated as each frame pops.
func (sys *System[S]) Heights() (heights []int, witness S, ok bool) {
	const (
		unknown = -1 // illegal, not yet visited
		onStack = -2 // on the walk's current path
		never   = -3 // reaches an illegal cycle or leaves States
	)
	d := make([]int, len(sys.States))
	for i, s := range sys.States {
		if !sys.Legal(s) {
			d[i] = unknown
		}
	}
	// The top frame's successor positions are the top of succ:
	// succ[lo:], of which succ[next:] are still to look at.
	type frame struct {
		pos, lo, next int
		worst         int // largest successor height so far
	}
	var (
		stack []frame
		succ  []int // successor positions of every frame on the stack
		buf   []S
	)
	push := func(pos int) {
		d[pos] = onStack
		lo := len(succ)
		buf = sys.Next(sys.States[pos], buf[:0])
		for _, n := range buf {
			succ = append(succ, sys.Index(n))
		}
		stack = append(stack, frame{pos: pos, lo: lo, next: lo})
	}
	failed := false
	for root := range sys.States {
		if d[root] != unknown {
			continue
		}
		push(root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			h := 0 // 0 while walking the successors
			for h == 0 && f.next < len(succ) {
				switch j := succ[f.next]; {
				case j < 0 || d[j] < unknown:
					// A successor outside the enumerated space, on the
					// current path (an illegal cycle), or past one: the
					// model must enumerate fully and stay acyclic.
					h = never
				case d[j] == unknown:
					h = unknown
				default:
					f.worst = max(f.worst, d[j])
					f.next++
				}
			}
			if h == unknown {
				// Descend; this frame resumes at the same successor.
				push(succ[f.next])
				continue
			}
			if h == 0 {
				h = 1 + f.worst
			}
			failed = failed || h == never
			d[f.pos] = h
			succ = succ[:f.lo]
			stack = stack[:len(stack)-1]
		}
	}
	if failed {
		for i, h := range d {
			if h < 0 {
				return nil, sys.States[i], false
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
// The check computes the exact heights (Heights); max d is the exact
// worst-case convergence bound.
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
		// The first state realizing the worst case is the witness.
		for i, h := range d {
			if h == worst {
				return worst, sys.States[i], false
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
