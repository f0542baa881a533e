package core

import (
	"testing"

	"ssos/internal/fault"
	"ssos/internal/guest"
)

// TestSoakAllStabilizingApproaches runs every stabilizing design for
// millions of steps under a sustained random fault process and checks
// the one property that matters: whatever the faults did, the system
// is back in (weakly) legal operation shortly after they stop.
func TestSoakAllStabilizingApproaches(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		stormSteps = 2000000
		faultRate  = 2e-5
		calmSteps  = 600000
	)
	approaches := []Config{
		{Approach: ApproachReinstall},
		{Approach: ApproachMonitor},
		{Approach: ApproachAdaptive},
	}
	for _, cfg := range approaches {
		cfg := cfg
		t.Run(cfg.Approach.String(), func(t *testing.T) {
			s := MustNew(cfg)
			inj := fault.NewInjector(s.M, 2026)
			detach := inj.Rate(faultRate)
			s.Run(stormSteps)
			detach()
			stormEnd := s.Steps()
			s.Run(calmSteps)
			if s.M.Stats.Steps != stormSteps+calmSteps {
				t.Fatalf("step accounting: %d", s.M.Stats.Steps)
			}
			if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), stormEnd, 20); !ok {
				// The adaptive comparator is ALLOWED to die on zombie-
				// shaped faults; the paper's designs are not.
				if cfg.Approach == ApproachAdaptive {
					t.Logf("adaptive comparator did not recover (expected for zombie-shaped faults)")
					return
				}
				t.Fatalf("%v not legal after the storm (%d faults, %d beats)",
					cfg.Approach, len(inj.Log), s.Heartbeat.Total())
			}
			t.Logf("%v: %d faults over %d steps, legal again after the storm",
				cfg.Approach, len(inj.Log), stormSteps)
		})
	}
}

// TestSoakScheduler is the approach-3 soak: the scheduler with the
// K-state token-ring workload under a long fault storm, converging to
// exactly-one-privilege after the storm ends. It runs unprotected: the
// mailbox ring writes a shared region outside every protection window
// (TestMailboxProtectIncompatible).
func TestSoakScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	s := MustNew(Config{
		Approach: ApproachScheduler,
		Workload: WorkloadMailboxKState,
	})
	inj := fault.NewInjector(s.M, 7)
	detach := inj.Rate(1e-5)
	s.Run(2000000)
	detach()
	if _, ok := s.MailboxConverged(4000000, 500, 200); !ok {
		t.Fatalf("ring did not re-converge after the storm (privileges=%v)", s.MailboxPrivileges())
	}
	for i := 0; i < guest.NumProcs; i++ {
		if s.ProcBeats[i].Total() == 0 {
			t.Fatalf("process %d never ran", i)
		}
	}
}
