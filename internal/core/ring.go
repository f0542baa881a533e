package core

import "ssos/internal/guest"

// RingX returns the current x variable of token-ring member i, read
// directly from the member's data segment.
func (s *System) RingX(i int) uint16 {
	return s.M.Bus.LoadWord(guest.RingXAddr(i))
}

// RingPrivileges returns the indices of the ring members that are
// privileged in the current configuration: the root (member 0) when
// its x equals the last member's, any other member when its x differs
// from its predecessor's. Dijkstra's legal executions are exactly
// those in which this list always has length one.
func (s *System) RingPrivileges() []int {
	var out []int
	if s.RingX(0) == s.RingX(guest.RingMembers-1) {
		out = append(out, 0)
	}
	for i := 1; i < guest.RingMembers; i++ {
		if s.RingX(i) != s.RingX(i-1) {
			out = append(out, i)
		}
	}
	return out
}

// RingConverged reports whether the token ring holds the
// exactly-one-privilege invariant at every sample over the next
// horizon steps (sampled every sampleEvery steps), returning the step
// at which the sustained window began.
func (s *System) RingConverged(horizon, sampleEvery, window int) (uint64, bool) {
	return s.sustained(horizon, sampleEvery, window, func() bool {
		return len(s.RingPrivileges()) == 1
	})
}

// sustained runs the system for up to horizon steps, evaluating holds
// every sampleEvery steps (500 when not positive), and reports whether
// it held at window consecutive samples, returning the step at which
// that window began.
func (s *System) sustained(horizon, sampleEvery, window int, holds func() bool) (uint64, bool) {
	if sampleEvery <= 0 {
		sampleEvery = 500
	}
	good := 0
	var since uint64
	for ran := 0; ran < horizon; ran += sampleEvery {
		s.Run(sampleEvery)
		if holds() {
			if good == 0 {
				since = s.Steps()
			}
			good++
			if good >= window {
				return since, true
			}
		} else {
			good = 0
		}
	}
	return 0, false
}
