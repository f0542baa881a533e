package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceHeights is the round-based fixpoint Heights replaced: every
// round re-scans each unresolved state and resolves it once all its
// successors have. It is kept here as the specification the one-pass
// walk must reproduce exactly.
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
			for _, n := range sys.Next(s) {
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
// verdict, the same witness, and when ok the same height map.
func checkHeights[S comparable](t *testing.T, name string, sys *System[S]) (ok bool) {
	t.Helper()
	got, gotW, gotOK := sys.Heights()
	want, wantW, wantOK := referenceHeights(sys)
	if gotOK != wantOK || gotW != wantW {
		t.Errorf("%s: Heights ok=%v witness %v, reference ok=%v witness %v", name, gotOK, gotW, wantOK, wantW)
		return wantOK
	}
	if !reflect.DeepEqual(got, want) {
		for _, s := range sys.States {
			if got[s] != want[s] {
				t.Errorf("%s: height of %v is %d, reference %d", name, s, got[s], want[s])
				break
			}
		}
	}
	return wantOK
}

// TestHeightsMatchesReferenceOnShippedSystems runs both on every
// system the package builds, the three ring cells with an illegal
// cycle among them.
func TestHeightsMatchesReferenceOnShippedSystems(t *testing.T) {
	for _, p := range protocolsUnderTest() {
		for n := 2; n <= 4; n++ {
			checkHeights(t, fmt.Sprintf("%s n=%d", p.Name, n), p.System(n))
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
	if checkHeights(t, "checkpoint", CheckpointSystem()) {
		t.Error("checkpoint system resolved, want its absorbing illegal cycle")
	}
	checkHeights(t, "reinstall", ReinstallSystem(16))
}

// TestHeightsMatchesReferenceOnRandomSystems runs both on small random
// graphs: 1–40 states, 1–3 successors each (self-loops allowed, some
// outside States), and a random legal set.
func TestHeightsMatchesReferenceOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var resolved, failed int
	for trial := 0; trial < 2000; trial++ {
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
		sys := &System[int]{
			States: states,
			Next:   func(s int) []int { return succ[s] },
			Legal:  func(s int) bool { return s < n && legal[s] },
		}
		if checkHeights(t, fmt.Sprintf("trial %d", trial), sys) {
			resolved++
		} else {
			failed++
		}
	}
	if resolved < 200 || failed < 200 {
		t.Errorf("random systems: %d resolved, %d failed; want both outcomes well represented", resolved, failed)
	}
}
