// Command ssos-verify mechanically checks the paper's device-level
// lemmas and the scheduled token ring with the explicit-state model
// checker (internal/model), printing a verification report: every
// claim, the state space covered, and the exact worst-case bound found
// (or the counterexample, for the claims that are supposed to fail).
// It also runs the static side of the argument: imglint over every
// assembled guest ROM image (-static=false skips it).
//
// Usage:
//
//	ssos-verify [-rw] [-static]
package main

import (
	"flag"
	"fmt"
	"os"

	"ssos/internal/guest"
	"ssos/internal/imglint"
	"ssos/internal/model"
)

func main() {
	rw := flag.Bool("rw", true, "include the read/write-atomicity ring check (125k states)")
	static := flag.Bool("static", true, "include the static ROM-image invariant checks (imglint)")
	flag.Parse()

	failures := 0
	report := func(claim string, states int, outcome string, ok bool) {
		mark := "PASS"
		if !ok {
			mark = "FAIL"
			failures++
		}
		fmt.Printf("%-4s  %-66s  %8d states  %s\n", mark, claim, states, outcome)
	}

	// Watchdog recurrence (paper Section 2).
	{
		const period = 64
		states := model.WatchdogStates(period, period*4)
		err := model.CheckRecurrence(states, model.WatchdogNext(period),
			model.WatchdogFired(period), period, period*6)
		report("watchdog fires within one period from any register state",
			len(states), errString(err), err == nil)
	}

	// NMI counter delivery (Lemma 3.1's hardware half).
	{
		const max, regMax = 32, 64
		states := model.NMIStates(regMax)
		for i := range states {
			states[i].Pin = true
		}
		err := model.CheckRecurrence(states, model.NMINextCounter(max),
			model.NMIDeliveredCounter(max), regMax+1, max*8)
		report("NMI counter: delivery within register-max+1 ticks from any state",
			len(states), errString(err), err == nil)
	}

	// Stock latch counterexample (the paper's motivation).
	{
		states := model.NMIStates(8)
		for i := range states {
			states[i].Pin = true
		}
		err := model.CheckRecurrence(states, model.NMINextStock(),
			model.NMIDeliveredStock(), 16, 128)
		report("stock NMI latch: a never-delivering state EXISTS (expected failure)",
			len(states), errString(err), err != nil)
	}

	// Dijkstra's ring: exact bound K = n-1 under the central daemon.
	for n := 3; n <= 6; n++ {
		sys := model.KStateProtocol(uint8(n - 1)).System(n)
		worst, err := sys.Verify(1 << 20)
		report(fmt.Sprintf("K-state ring n=%d K=%d converges under adversarial daemon", n, n-1),
			len(sys.States), fmt.Sprintf("worst-case %d moves", worst), err == nil)
	}
	for n := 4; n <= 6; n++ {
		sys := model.KStateProtocol(uint8(n - 2)).System(n)
		_, err := sys.Verify(1 << 20)
		report(fmt.Sprintf("K-state ring n=%d K=%d has an illegal cycle (expected failure)", n, n-2),
			len(sys.States), errString(err), err != nil)
	}

	// The recovery-source abstraction behind E9.
	{
		cp := model.CheckpointSystem()
		_, _, ok := cp.CheckConvergence(16)
		report("checkpoint/rollback has an absorbing illegal state (expected failure)",
			len(cp.States), "poisoned snapshot pair", !ok)
		const period = 16
		re := model.ReinstallSystem(period)
		worst, err := re.Verify(period)
		report("ROM reinstall converges within exactly one watchdog period",
			len(re.States), fmt.Sprintf("worst-case %d ticks (err=%v)", worst, err), err == nil && worst == period)
	}

	// The ring as the 5.2 scheduler actually runs it: the K-state
	// protocol's read/write-atomicity (delay) system.
	if *rw {
		const k, n = 5, 3
		p := model.KStateProtocol(k)
		sys := p.DelaySystem(n)
		closed := sys.GreatestClosedSubset(sys.Legal)
		size := 0
		for _, in := range closed {
			if in {
				size++
			}
		}
		legal := func(s model.MailboxState) bool { return closed[sys.Index(s)] }
		witness, ok := model.CheckFairConvergence(sys.States, p.DelayLabeledNext(n), legal, n)
		outcome := fmt.Sprintf("closed legitimate set: %d states", size)
		if !ok {
			outcome = fmt.Sprintf("fair illegal cycle from %+v", witness)
		}
		report("read/write-atomicity ring (K=5): every weakly-fair execution converges",
			len(sys.States), outcome, ok)
	}

	// Static ROM invariants (paper Section 5): the fill, slot, cs and
	// table properties the dynamic checks above assume are proved
	// directly on the assembled image bytes.
	if *static {
		specs, err := guest.LintImages()
		if err != nil {
			report("static ROM invariants: guest images build", 0, err.Error(), false)
		} else {
			total := 0
			for _, spec := range specs {
				for _, f := range imglint.Check(spec) {
					fmt.Println("      " + f.String())
					total++
				}
			}
			report("static ROM invariants hold for every guest image (imglint)",
				len(specs), fmt.Sprintf("%d images, %d findings", len(specs), total), total == 0)
		}
	}

	// Static convergence certificates (paper Section 4's convergence
	// stair, proved statically): the ranking prover lifts each mailbox
	// ring image from its shipped ROM bytes, extracts the move function,
	// and certifies a steps-to-legal bound against the declared variant.
	if *static {
		specs, err := guest.ConvergenceCerts()
		if err != nil {
			report("static convergence certificates build", 0, err.Error(), false)
		} else {
			for _, spec := range specs {
				r := imglint.CheckRingCert(spec.Cert)
				outcome := fmt.Sprintf("local obligations only (n=%d)", r.N)
				if r.Mode == "ranking" {
					outcome = fmt.Sprintf("steps-to-legal <= %d (rank %d + %d mid-entry)", r.Bound, r.RankBound, r.N)
				}
				for _, f := range r.Findings {
					fmt.Println("      " + f.String())
				}
				report(fmt.Sprintf("convergence certificate %s", r.Name),
					r.States, outcome, r.Proved())
			}
		}
	}

	if failures > 0 {
		fmt.Printf("\n%d verification failures\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall claims verified")
}

func errString(err error) string {
	if err == nil {
		return "verified"
	}
	return err.Error()
}
