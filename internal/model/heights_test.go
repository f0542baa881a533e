package model

import (
	"fmt"
	"math/rand"
	"testing"
)

// referenceHeights is the round-based, map-keyed fixpoint Heights
// replaced: every round re-scans each unresolved state and resolves it
// once all its successors have. It is kept here as the specification
// the one-pass positional walk must reproduce exactly.
func referenceHeights[S comparable](sys *System[S]) (map[S]int, S, bool) {
	const unknown = -1
	d := make(map[S]int, len(sys.States))
	for _, s := range sys.States {
		if sys.Legal(s) {
			d[s] = 0
		} else {
			d[s] = unknown
		}
	}
	for round := 0; round <= len(sys.States); round++ {
		changed := false
		for _, s := range sys.States {
			if d[s] != unknown {
				continue
			}
			worstSucc := 0
			resolved := true
			for _, n := range sys.Next(s, nil) {
				dn, seen := d[n]
				if !seen || dn == unknown {
					resolved = false
					break
				}
				if dn > worstSucc {
					worstSucc = dn
				}
			}
			if resolved {
				d[s] = 1 + worstSucc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, s := range sys.States {
		if d[s] == unknown {
			return nil, s, false
		}
	}
	var zero S
	return d, zero, true
}

// checkHeights compares Heights with the reference fixpoint: the same
// verdict, the same witness, and when ok the same height at every
// state's position.
func checkHeights[S comparable](t *testing.T, name string, sys *System[S]) (ok bool) {
	t.Helper()
	got, gotW, gotOK := sys.Heights()
	want, wantW, wantOK := referenceHeights(sys)
	if gotOK != wantOK || gotW != wantW {
		t.Errorf("%s: Heights ok=%v witness %v, reference ok=%v witness %v", name, gotOK, gotW, wantOK, wantW)
		return wantOK
	}
	if !wantOK {
		return false
	}
	if len(got) != len(sys.States) {
		t.Errorf("%s: %d heights for %d states", name, len(got), len(sys.States))
		return true
	}
	for _, s := range sys.States {
		if h := got[sys.Index(s)]; h != want[s] {
			t.Errorf("%s: height of %v is %d, reference %d", name, s, h, want[s])
			break
		}
	}
	return true
}

// ProverMaxStates is imglint.DefaultMaxStates, the prover's product
// cap, restated: imglint imports this package, so the package's own
// tests cannot import it back. TestProverMaxStates, in the external
// test package, holds the two equal.
const ProverMaxStates = 200_000

// fitsProver reports whether the n-node product of p is within the
// prover's enumeration cap — the ring sizes whose product the prover
// ranks by Heights.
func fitsProver(p Protocol, n int) bool {
	states := 1
	for i := 0; i < n; i++ {
		states *= len(p.Domain(i, n))
	}
	return states <= ProverMaxStates
}

// TestHeightsMatchesReferenceOnShippedSystems runs both on every
// system the package builds: the protocol systems at every size the
// prover enumerates, the K-state rings around Dijkstra's bound (an
// illegal cycle in each K=n-2 ring), two read/write-atomicity systems,
// and the recovery abstractions.
func TestHeightsMatchesReferenceOnShippedSystems(t *testing.T) {
	for _, p := range protocolsUnderTest() {
		for n := 2; n <= MaxRingNodes; n++ {
			if fitsProver(p, n) {
				checkHeights(t, fmt.Sprintf("%s n=%d", p.Name, n), p.System(n))
			}
		}
	}
	cycles := 0
	for n := 3; n <= 6; n++ {
		checkHeights(t, fmt.Sprintf("ring n=%d K=%d", n, n-1), KStateProtocol(uint8(n-1)).System(n))
	}
	for n := 4; n <= 6; n++ {
		if !checkHeights(t, fmt.Sprintf("ring n=%d K=%d", n, n-2), KStateProtocol(uint8(n-2)).System(n)) {
			cycles++
		}
	}
	if cycles != 3 {
		t.Errorf("%d of the three K=n-2 rings have an illegal cycle, want all three", cycles)
	}
	for _, k := range []uint8{3, 5} {
		checkHeights(t, fmt.Sprintf("kstate(%d) delay n=3", k), KStateProtocol(k).DelaySystem(3))
	}
	if checkHeights(t, "checkpoint", CheckpointSystem()) {
		t.Error("checkpoint system resolved, want its absorbing illegal cycle")
	}
	checkHeights(t, "reinstall", ReinstallSystem(16))
}

// randomSystem draws a small random graph: 1–40 states in a random
// order, 1–3 successors each (self-loops allowed, some outside States),
// and a random legal set.
func randomSystem(rng *rand.Rand) *System[int] {
	n := 1 + rng.Intn(40)
	succ := make([][]int, n)
	legal := make([]bool, n)
	legalFrac := rng.Float64()
	for s := range succ {
		legal[s] = rng.Float64() < legalFrac
		for k := 1 + rng.Intn(3); k > 0; k-- {
			to := rng.Intn(n)
			if rng.Intn(20) == 0 {
				to = n + rng.Intn(3) // outside States
			}
			succ[s] = append(succ[s], to)
		}
	}
	states := rng.Perm(n) // States order decides the witness
	pos := make([]int, n)
	for i, s := range states {
		pos[s] = i
	}
	return &System[int]{
		States: states,
		Index: func(s int) int {
			if s < n {
				return pos[s]
			}
			return -1
		},
		Next:  func(s int, out []int) []int { return append(out, succ[s]...) },
		Legal: func(s int) bool { return s < n && legal[s] },
	}
}

// TestHeightsMatchesReferenceOnRandomSystems runs both on 2000 random
// graphs.
func TestHeightsMatchesReferenceOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var resolved, failed int
	for trial := 0; trial < 2000; trial++ {
		if checkHeights(t, fmt.Sprintf("trial %d", trial), randomSystem(rng)) {
			resolved++
		} else {
			failed++
		}
	}
	if resolved < 200 || failed < 200 {
		t.Errorf("random systems: %d resolved, %d failed; want both outcomes well represented", resolved, failed)
	}
}

// checkIndex verifies that sys.Index inverts sys.States and returns -1
// for every off-space value given.
func checkIndex[S comparable](t *testing.T, name string, sys *System[S], off ...S) {
	t.Helper()
	for i, s := range sys.States {
		if j := sys.Index(s); j != i {
			t.Errorf("%s: Index(States[%d] = %v) = %d", name, i, s, j)
			return
		}
	}
	for _, s := range off {
		if j := sys.Index(s); j != -1 {
			t.Errorf("%s: Index(%v) = %d for a state outside the space, want -1", name, s, j)
		}
	}
}

// offDomain returns a value outside node i's domain: the smallest
// non-canonical value below K when the domain has a gap, else K.
func offDomain(p Protocol, i, n int) uint8 {
	for v := 0; v < int(p.K); v++ {
		if p.Norm(i, n, uint16(v)) != uint8(v) {
			return uint8(v)
		}
	}
	return p.K
}

// TestIndexInvertsStates: every constructor's Index is the inverse of
// its States, and -1 on hand-built states of each off-space kind — a
// non-canonical value, an out-of-range program counter, a nonzero
// unused register, a nonzero entry at or past n, a counter past the
// period.
func TestIndexInvertsStates(t *testing.T) {
	for _, p := range protocolsUnderTest() {
		for n := 2; n <= MaxRingNodes; n++ {
			if !fitsProver(p, n) {
				continue
			}
			sys := p.System(n)
			var off []RingState
			for i := 0; i < n; i++ {
				s := sys.States[len(sys.States)-1]
				s[i] = offDomain(p, i, n)
				off = append(off, s)
			}
			if n < MaxRingNodes {
				s := sys.States[0]
				s[n] = 1
				off = append(off, s)
			}
			checkIndex(t, fmt.Sprintf("%s n=%d", p.Name, n), sys, off...)
		}
	}
	delays := []Protocol{KStateProtocol(3), Dijkstra3Protocol(), Ghosh4Protocol()}
	for _, p := range delays {
		const n = 3
		sys := p.DelaySystem(n)
		last := sys.States[len(sys.States)-1]
		var off []MailboxState
		for i := 0; i < n; i++ {
			role := p.Role(i, n)
			l, r := neighbours(i, n)
			s := last
			s.X[i] = offDomain(p, i, n)
			off = append(off, s)
			s = last
			s.PC[i] = uint8(role.phases())
			off = append(off, s)
			s = last
			if role.Left {
				s.RegL[i] = offDomain(p, l, n)
			} else {
				s.RegL[i] = 1
			}
			off = append(off, s)
			s = last
			if role.Right {
				s.RegR[i] = offDomain(p, r, n)
			} else {
				s.RegR[i] = 1
			}
			off = append(off, s)
		}
		for _, set := range []func(*MailboxState){
			func(s *MailboxState) { s.X[n] = 1 },
			func(s *MailboxState) { s.RegL[n] = 1 },
			func(s *MailboxState) { s.RegR[n] = 1 },
			func(s *MailboxState) { s.PC[n] = 1 },
		} {
			s := sys.States[0]
			set(&s)
			off = append(off, s)
		}
		checkIndex(t, fmt.Sprintf("%s delay n=%d", p.Name, n), sys, off...)
	}
	checkIndex(t, "checkpoint", CheckpointSystem()) // all four states are in the space
	checkIndex(t, "reinstall", ReinstallSystem(16),
		ReinstallTick{GuestOK: true, Counter: 16}, ReinstallTick{GuestOK: false, Counter: 1000})
}

// referenceClosedSubset is the map-keyed GreatestClosedSubset the
// positional one replaced, kept as its specification.
func referenceClosedSubset[S comparable](sys *System[S], candidate func(S) bool) map[S]bool {
	in := make(map[S]bool, len(sys.States))
	for _, s := range sys.States {
		if candidate(s) {
			in[s] = true
		}
	}
	for {
		changed := false
		for s := range in {
			for _, n := range sys.Next(s, nil) {
				if !in[n] {
					delete(in, s)
					changed = true
					break
				}
			}
		}
		if !changed {
			return in
		}
	}
}

// members counts the states a positional subset holds.
func members(in []bool) int {
	n := 0
	for _, ok := range in {
		if ok {
			n++
		}
	}
	return n
}

// checkClosedSubset compares GreatestClosedSubset with the reference
// on candidate sys.Legal and returns the closed subset's size.
func checkClosedSubset[S comparable](t *testing.T, name string, sys *System[S]) int {
	t.Helper()
	got := sys.GreatestClosedSubset(sys.Legal)
	want := referenceClosedSubset(sys, sys.Legal)
	if len(got) != len(sys.States) {
		t.Fatalf("%s: membership of %d positions for %d states", name, len(got), len(sys.States))
	}
	for i, s := range sys.States {
		if got[i] != want[s] {
			t.Errorf("%s: %v in the closed subset: %v, reference %v", name, s, got[i], want[s])
			break
		}
	}
	if n := members(got); n != len(want) {
		t.Errorf("%s: closed subset of %d states, reference %d", name, n, len(want))
	}
	return len(want)
}

// TestGreatestClosedSubsetMatchesReference compares the two on the
// K-state read/write-atomicity rings ssos-verify and the tests refine
// (the same members, 1,608 of them at K=3 and 20,160 at K=5) and on
// 2000 random graphs.
func TestGreatestClosedSubsetMatchesReference(t *testing.T) {
	for _, c := range []struct {
		k      uint8
		closed int
	}{{3, 1608}, {5, 20160}} {
		if c.k == 5 && testing.Short() {
			continue // 125k states
		}
		sys := KStateProtocol(c.k).DelaySystem(3)
		if n := checkClosedSubset(t, fmt.Sprintf("K=%d", c.k), sys); n != c.closed {
			t.Errorf("K=%d: closed subset of %d states, want %d", c.k, n, c.closed)
		}
	}
	// Random graphs, whose successors outside States must leave the set.
	rng := rand.New(rand.NewSource(2))
	var empty, nonEmpty int
	for trial := 0; trial < 2000; trial++ {
		if checkClosedSubset(t, fmt.Sprintf("trial %d", trial), randomSystem(rng)) == 0 {
			empty++
		} else {
			nonEmpty++
		}
	}
	if empty < 200 || nonEmpty < 200 {
		t.Errorf("random systems: %d empty and %d non-empty closed subsets; want both well represented", empty, nonEmpty)
	}
}
