// Quickstart: build the paper's approach-1 system (Figure 1 watchdog/
// reinstall procedure in ROM, guest OS in RAM, self-stabilizing
// watchdog on the NMI pin), destroy the OS in RAM mid-run, and watch
// the system converge back to legal operation — the experiment the
// authors ran by hand in Bochs.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
)

func main() {
	fmt.Println("== self-stabilizing OS quickstart: approach 1 (reinstall & restart) ==")

	sys := core.MustNew(core.Config{Approach: core.ApproachReinstall})
	fmt.Printf("built machine: guest OS image %d bytes in ROM at %#x, stabilizer ROM at %#x\n",
		guest.ImageSize, uint32(guest.OSROMSeg)<<4, uint32(guest.HandlerROMSeg)<<4)
	fmt.Printf("watchdog period: %d steps; NMI counter max: %d\n\n",
		sys.Cfg.WatchdogPeriod, sys.M.Opts.NMICounterMax)

	// Phase 1: boot and run.
	sys.Run(100000)
	beats := sys.Heartbeat.Writes()
	last := beats[len(beats)-1]
	fmt.Printf("phase 1: ran 100000 steps, %d heartbeats, last value %d at step %d\n",
		len(beats), last.Value, last.Step)

	// Phase 2: a burst of soft errors wipes the OS — code and data.
	fault.NewInjector(sys.M, 42).Inject(0, fault.OSBlast)
	faultStep := sys.Steps()
	fmt.Printf("\nphase 2: randomized all %d bytes of the OS in RAM at step %d\n",
		guest.ImageSize, faultStep)

	// Phase 3: keep the clock ticking; the watchdog NMI reaches the
	// ROM reinstall procedure, which rebuilds and restarts the OS.
	sys.Run(200000)
	spec := sys.Spec()
	if step, ok := spec.RecoveredAfter(sys.Heartbeat.Writes(), faultStep, 10); ok {
		fmt.Printf("phase 3: RECOVERED — legal heartbeats from step %d (%d steps after the fault)\n",
			step, step-faultStep)
		fmt.Printf("         bound: one watchdog period (%d) + reinstall procedure (~%d steps)\n",
			sys.Cfg.WatchdogPeriod, guest.ImageSize+16)
	} else {
		fmt.Println("phase 3: NOT recovered (this should never happen)")
	}
	fmt.Printf("\nmachine stats: %d instructions, %d NMIs, %d exceptions\n",
		sys.M.Stats.Instrs, sys.M.Stats.NMIs, sys.M.Stats.Exceptions)

	// Contrast: the same fault kills a conventional system.
	fmt.Println("\n== contrast: conventional (baseline) system, same fault ==")
	base := core.MustNew(core.Config{Approach: core.ApproachBaseline})
	base.Run(100000)
	before := base.Heartbeat.Total()
	fault.NewInjector(base.M, 42).Inject(0, fault.OSBlast)
	base.Run(200000)
	if _, ok := base.Spec().RecoveredAfter(base.Heartbeat.Writes(), 100000, 10); ok {
		fmt.Println("baseline recovered?! (should never happen)")
	} else {
		fmt.Printf("baseline: dead — %d beats after the fault, halted=%v\n",
			base.Heartbeat.Total()-before, base.M.CPU.Halted)
	}
}
