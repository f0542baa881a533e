package guest_test

import (
	"testing"

	"ssos/internal/guest"
	"ssos/internal/imglint"
)

// TestCertBoundsConsistentWithModel cross-validates the static
// convergence certificates against the explicit-state model checker:
// for every certified configuration carrying a ranking proof, the
// static steps-to-legal bound must dominate the model's exact worst
// case (soundness — the certificate never promises faster convergence
// than the protocol delivers) and stay within N above it, the
// mid-entry grace steps (precision — the prover is not free to inflate
// the bound). On failure both bounds and the model's worst-case
// witness are printed.
func TestCertBoundsConsistentWithModel(t *testing.T) {
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		t.Fatalf("ConvergenceCerts: %v", err)
	}
	ranked := 0
	for _, spec := range specs {
		r := imglint.CheckRingCert(spec.Cert)
		if !r.Proved() {
			t.Errorf("%s: certificate does not prove: %v", r.Name, r.Findings)
			continue
		}
		if r.Mode != "ranking" {
			continue // state space over the cap: local obligations only
		}
		ranked++
		sys := spec.Protocol.System(spec.Cert.N)
		exact, witness, ok := sys.CheckConvergence(len(sys.States))
		if !ok {
			t.Errorf("%s: model twin does not converge (witness %v)", r.Name, witness)
			continue
		}
		if r.Bound < exact {
			t.Errorf("%s: static bound %d BELOW model exact worst case %d (witness %v) — the certificate is unsound",
				r.Name, r.Bound, exact, witness)
		}
		if r.Bound > exact+r.N {
			t.Errorf("%s: static bound %d exceeds exact worst case %d + N=%d mid-entry steps",
				r.Name, r.Bound, exact, r.N)
		}
	}
	if ranked < 12 {
		t.Errorf("only %d ranking-mode certificates cross-validated, want >= 12", ranked)
	}
}

// TestCertRankMatchesExactWorstCase pins the rank bound and product
// size of every ranking-mode certificate: with the exact height map as
// declared variant, the certificate's rank bound IS the exact worst
// case. The K-state rings past four nodes are over the state cap and
// prove in Mode "local" only.
func TestCertRankMatchesExactWorstCase(t *testing.T) {
	want := map[string]struct{ rank, states int }{
		"mbox-kstate":       {2, 4096},
		"mbox-kstate-n2":    {0, 256},
		"mbox-kstate-n3":    {2, 4096},
		"mbox-kstate-n4":    {13, 65536},
		"mbox-dijkstra3":    {1, 27},
		"mbox-dijkstra3-n2": {0, 9},
		"mbox-dijkstra3-n3": {1, 27},
		"mbox-dijkstra3-n4": {10, 81},
		"mbox-dijkstra3-n5": {22, 243},
		"mbox-dijkstra3-n6": {39, 729},
		"mbox-ghosh4":       {0, 16},
		"mbox-ghosh4-n2":    {0, 4},
		"mbox-ghosh4-n3":    {0, 16},
		"mbox-ghosh4-n4":    {3, 64},
		"mbox-ghosh4-n5":    {8, 256},
		"mbox-ghosh4-n6":    {15, 1024},
	}
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		t.Fatalf("ConvergenceCerts: %v", err)
	}
	seen := 0
	for _, spec := range specs {
		r := imglint.CheckRingCert(spec.Cert)
		if !r.Proved() {
			t.Errorf("%s: not proved: %v", r.Name, r.Findings)
			continue
		}
		exp, ok := want[spec.Cert.Name]
		if !ok {
			if r.Mode == "ranking" {
				t.Errorf("%s: ranking-mode certificate (rank %d, %d states) not pinned", r.Name, r.RankBound, r.States)
			}
			continue
		}
		seen++
		if r.Mode != "ranking" {
			t.Errorf("%s: mode %q, want ranking", r.Name, r.Mode)
			continue
		}
		if r.RankBound != exp.rank {
			t.Errorf("%s: rank bound %d, want exact worst case %d", r.Name, r.RankBound, exp.rank)
		}
		if r.States != exp.states {
			t.Errorf("%s: %d product states, want %d", r.Name, r.States, exp.states)
		}
		if r.Bound != exp.rank+r.N {
			t.Errorf("%s: bound %d, want rank %d + mid-entry grace %d", r.Name, r.Bound, exp.rank, r.N)
		}
	}
	if seen != len(want) {
		t.Errorf("pinned %d certificates but found %d in the catalog", len(want), seen)
	}
}
