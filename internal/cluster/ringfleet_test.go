package cluster

import (
	"fmt"
	"testing"

	"ssos/internal/guest"
	"ssos/internal/obs"
)

func TestRingFleetConverges(t *testing.T) {
	for _, v := range guest.RingVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := MustNewRingFleet(RingFleetConfig{Variant: v, Seed: 1})
			since, ok := f.Converged(6000000, 50)
			if !ok {
				t.Fatalf("%v fleet never converged; privileges=%v ring=%v",
					v, f.Privileges(), f.Ring())
			}
			t.Logf("converged at fleet step %d", since)
			// The token keeps circulating across replicas.
			holders := map[int]bool{}
			for k := 0; k < 600; k++ {
				f.Run(DefaultRelayEvery)
				p := f.Privileges()
				if len(p) != 1 {
					t.Fatalf("legality lost: privileges=%v ring=%v", p, f.Ring())
				}
				holders[p[0]] = true
			}
			if len(holders) != f.Nodes() {
				t.Fatalf("token froze across the fleet: visited %v", holders)
			}
			// The fleet judges the ring from mailbox slots, so its replica
			// consoles keep one write each while their totals count on.
			for i := 0; i < f.Nodes(); i++ {
				for p, c := range f.Replica(i).ProcBeats {
					if n := len(c.Writes()); n > replicaConsoleCap {
						t.Errorf("replica %d process %d console retains %d of %d writes, cap %d",
							i, p, n, c.Total(), replicaConsoleCap)
					}
				}
				if beats := f.Replica(i).ProcBeats[0].Total(); beats <= replicaConsoleCap {
					t.Errorf("replica %d ring node beat %d times: the cap went untested", i, beats)
				}
			}
		})
	}
}

func TestRingFleetScrambleClasses(t *testing.T) {
	for _, v := range guest.RingVariants() {
		for _, m := range []RingScramble{ScrambleRing, ScrambleOS, ScrambleJoint} {
			v, m := v, m
			t.Run(fmt.Sprintf("%v/%v", v, m), func(t *testing.T) {
				f := MustNewRingFleet(RingFleetConfig{Variant: v, Seed: 3})
				if _, ok := f.Converged(6000000, 50); !ok {
					t.Fatalf("no initial convergence; ring=%v", f.Ring())
				}
				f.Scramble(m)
				if _, ok := f.Converged(12000000, 50); !ok {
					t.Fatalf("%v did not re-converge after %v scramble; privileges=%v ring=%v",
						v, m, f.Privileges(), f.Ring())
				}
			})
		}
	}
}

func TestRingFleetEpisodeEvents(t *testing.T) {
	col := obs.NewCollector()
	f := MustNewRingFleet(RingFleetConfig{Variant: guest.VariantDijkstra3, Seed: 5, Collector: col})
	if _, ok := f.Converged(6000000, 20); !ok {
		t.Fatal("no initial convergence")
	}
	f.Scramble(ScrambleJoint)
	if _, ok := f.Converged(12000000, 20); !ok {
		t.Fatal("no re-convergence")
	}
	eps := obs.FoldEpisodes(col.Events())
	if len(eps) != 1 {
		t.Fatalf("episodes: got %d, want 1 (%v)", len(eps), eps)
	}
	ep := eps[0]
	if ep.Replica != -1 || ep.FaultID != 1 {
		t.Fatalf("episode scope: %+v", ep)
	}
	if !ep.Resolved || ep.Resolution != obs.ResolutionLegality {
		t.Fatalf("episode not resolved by legality: %+v", ep)
	}
	if ep.StepsToLegal == 0 {
		t.Fatalf("episode has no steps-to-legal: %+v", ep)
	}
}

func TestRingFleetDeterministic(t *testing.T) {
	run := func() (uint64, [2]uint64) {
		f := MustNewRingFleet(RingFleetConfig{Variant: guest.VariantGhosh4, Seed: 9})
		f.Run(200000)
		f.Scramble(ScrambleJoint)
		since, ok := f.Converged(12000000, 30)
		if !ok {
			t.Fatal("no convergence")
		}
		var sums [2]uint64
		for i := 0; i < f.Nodes(); i++ {
			sums[0] += uint64(f.Replica(i).MailboxSlot(i))
			sums[1] += f.Replica(i).Steps()
		}
		return since, sums
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Fatalf("nondeterministic fleet: (%d %v) vs (%d %v)", s1, d1, s2, d2)
	}
}
