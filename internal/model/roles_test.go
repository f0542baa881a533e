package model

import "testing"

// closureProtocol is the earlier per-protocol form: four closures that
// switch on the node index. It is kept here as the reference the node
// roles must reproduce, the way heights_test.go keeps the round-based
// fixpoint.
type closureProtocol struct {
	usesLeft  func(i, n int) bool
	usesRight func(i, n int) bool
	norm      func(i, n int, v uint16) uint8
	guards    func(i, n int, self, left, right uint8) []uint8
}

func closureKState(k uint8) closureProtocol {
	return closureProtocol{
		usesLeft:  func(i, n int) bool { return true },
		usesRight: func(i, n int) bool { return false },
		norm:      func(i, n int, v uint16) uint8 { return uint8(v % uint16(k)) },
		guards: func(i, n int, self, left, right uint8) []uint8 {
			if i == 0 {
				if self == left {
					return []uint8{(self + 1) % k}
				}
				return nil
			}
			if self != left {
				return []uint8{left}
			}
			return nil
		},
	}
}

func closureDijkstra3() closureProtocol {
	return closureProtocol{
		usesLeft:  func(i, n int) bool { return i != 0 },
		usesRight: func(i, n int) bool { return true },
		norm: func(i, n int, v uint16) uint8 {
			if m := uint8(v & 3); m != 3 {
				return m
			}
			return 0
		},
		guards: func(i, n int, self, left, right uint8) []uint8 {
			switch i {
			case 0:
				if (self+1)%3 == right {
					return []uint8{(self + 2) % 3}
				}
			case n - 1:
				if left == right && (left+1)%3 != self {
					return []uint8{(left + 1) % 3}
				}
			default:
				if (self+1)%3 == left || (self+1)%3 == right {
					return []uint8{(self + 1) % 3}
				}
			}
			return nil
		},
	}
}

func closureGhosh4() closureProtocol {
	return closureProtocol{
		usesLeft:  func(i, n int) bool { return i != 0 },
		usesRight: func(i, n int) bool { return i != n-1 },
		norm: func(i, n int, v uint16) uint8 {
			switch i {
			case 0:
				return uint8(v&2) | 1
			case n - 1:
				return uint8(v & 2)
			default:
				return uint8(v & 3)
			}
		},
		guards: func(i, n int, self, left, right uint8) []uint8 {
			var out []uint8
			switch i {
			case 0:
				if right == (self+1)%4 {
					out = append(out, (self+2)%4)
				}
			case n - 1:
				if left == (self+1)%4 {
					out = append(out, (self+2)%4)
				}
			default:
				if left == (self+1)%4 {
					out = append(out, (self+1)%4)
				}
				if right == (self+1)%4 {
					out = append(out, (self+1)%4)
				}
			}
			return out
		},
	}
}

// privileges counts the guards held in configuration x.
func (c closureProtocol) privileges(x RingState, n int) int {
	held := 0
	for i := 0; i < n; i++ {
		l, r := neighbours(i, n)
		var left, right uint8
		if c.usesLeft(i, n) {
			left = x[l]
		}
		if c.usesRight(i, n) {
			right = x[r]
		}
		held += len(c.guards(i, n, x[i], left, right))
	}
	return held
}

// TestRolesMatchClosureReference checks every node of every ring size
// 2..MaxRingNodes against the closure reference: the role's read
// sides, its Norm on all 65,536 words, and its Move on every triple of
// values in 0..K-1 (the privilege count is the number of guards, the
// new value the first guard's). Legal and Privileges must agree with
// the reference's guard count on every configuration (up to 16^4 for
// the guest's K).
func TestRolesMatchClosureReference(t *testing.T) {
	cases := []struct {
		p   Protocol
		ref closureProtocol
	}{
		{KStateProtocol(16), closureKState(16)}, // the guest's K
		{KStateProtocol(5), closureKState(5)},
		{KStateProtocol(3), closureKState(3)},
		{Dijkstra3Protocol(), closureDijkstra3()},
		{Ghosh4Protocol(), closureGhosh4()},
	}
	triples := 0
	for _, c := range cases {
		k := c.p.K
		for n := 2; n <= MaxRingNodes; n++ {
			for i := 0; i < n; i++ {
				r := c.p.Role(i, n)
				if r.Left != c.ref.usesLeft(i, n) || r.Right != c.ref.usesRight(i, n) {
					t.Fatalf("%s(K=%d) node %d/%d: sides (%v, %v), reference (%v, %v)",
						c.p.Name, k, i, n, r.Left, r.Right, c.ref.usesLeft(i, n), c.ref.usesRight(i, n))
				}
				for v := 0; v < 1<<16; v++ {
					if got, want := r.Norm(uint16(v)), c.ref.norm(i, n, uint16(v)); got != want {
						t.Fatalf("%s(K=%d) node %d/%d: Norm(%#x) = %d, reference %d",
							c.p.Name, k, i, n, v, got, want)
					}
				}
				for self := uint8(0); self < k; self++ {
					for left := uint8(0); left < k; left++ {
						for right := uint8(0); right < k; right++ {
							triples++
							privs, to := r.Move(self, left, right)
							g := c.ref.guards(i, n, self, left, right)
							if privs != len(g) || (privs > 0 && to != g[0]) {
								t.Fatalf("%s(K=%d) node %d/%d: Move(%d, %d, %d) = (%d, %d), reference guards %v",
									c.p.Name, k, i, n, self, left, right, privs, to, g)
							}
						}
					}
				}
			}
			if k == 16 && n > 4 {
				continue // 16^n configurations
			}
			for _, x := range c.p.System(n).States {
				held := c.ref.privileges(x, n)
				if c.p.Legal(x, n) != (held == 1) || len(c.p.Privileges(x, n)) != held {
					t.Fatalf("%s(K=%d) n=%d %v: Legal %v, Privileges %v; reference holds %d guards",
						c.p.Name, k, n, x, c.p.Legal(x, n), c.p.Privileges(x, n), held)
				}
			}
		}
	}
	t.Logf("%d triples checked", triples)
}

// TestLegalAndMoveAllocateNothing pins the allocation-free contract of
// the calls the prover, the fleet relay and the core observers make per
// configuration.
func TestLegalAndMoveAllocateNothing(t *testing.T) {
	for _, p := range protocolsUnderTest() {
		const n = 4
		states := p.System(n).States
		legal := 0
		if a := testing.AllocsPerRun(10, func() {
			for _, x := range states {
				if p.Legal(x, n) {
					legal++
				}
			}
		}); a != 0 {
			t.Errorf("%s: Legal allocates %.1f times per pass over %d states", p.Name, a, len(states))
		}
		privs := 0
		for i := 0; i < n; i++ {
			r := p.Role(i, n)
			if a := testing.AllocsPerRun(10, func() {
				for self := uint8(0); self < p.K; self++ {
					for left := uint8(0); left < p.K; left++ {
						got, _ := r.Move(self, left, p.K-1-left)
						privs += got
					}
				}
			}); a != 0 {
				t.Errorf("%s node %d: Move allocates %.1f times per pass", p.Name, i, a)
			}
		}
		if legal == 0 || privs == 0 {
			t.Errorf("%s: no legal state or no privilege seen (%d, %d)", p.Name, legal, privs)
		}
	}
}
