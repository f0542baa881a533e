// Mars rover: the paper's motivating scenario — "entire years of work
// maybe lost when the operating system of an expensive complicated
// device (e.g., spaceship) may reach an arbitrary state (e.g., due to
// soft errors) ... (e.g., on Mars)".
//
// A rover's flight computer runs unattended under a sustained cosmic-
// ray soft-error rate. Nobody can press reset. This example flies the
// same mission three times — on a conventional OS, on the approach-1
// reinstall system, and on the approach-2 monitoring system — and
// reports how much telemetry each one delivered.
//
// Run with: go run ./examples/marsrover
package main

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
)

const (
	missionSteps = 2000000 // the "mission" length in machine steps
	softErrRate  = 3e-5    // faults per step: a harsh radiation environment
)

func main() {
	fmt.Println("== mars rover mission: unattended operation under soft errors ==")
	fmt.Printf("mission: %d steps, soft-error rate %g/step (~%d expected faults)\n\n",
		missionSteps, softErrRate, int(missionSteps*softErrRate))

	type result struct {
		approach  core.Approach
		beats     uint64
		faults    int
		avail     float64
		nmis      uint64
		exc       uint64
		lastAlive uint64
	}
	var results []result

	for _, a := range []core.Approach{
		core.ApproachBaseline, core.ApproachCheckpoint, core.ApproachAdaptive,
		core.ApproachReinstall, core.ApproachMonitor,
	} {
		sys := core.MustNew(core.Config{Approach: a, ConsoleCap: 200000})
		inj := fault.NewInjector(sys.M, 2026)
		detach := inj.Rate(softErrRate)
		sys.Run(missionSteps)
		detach()

		last, _ := sys.Heartbeat.Last()
		results = append(results, result{
			approach:  a,
			beats:     sys.Heartbeat.Total(),
			faults:    len(inj.Log),
			avail:     sys.Spec().Availability(sys.Heartbeat.Writes(), missionSteps),
			nmis:      sys.M.Stats.NMIs,
			exc:       sys.M.Stats.Exceptions,
			lastAlive: last.Step,
		})
	}

	fmt.Printf("%-10s  %10s  %7s  %12s  %6s  %11s  %s\n",
		"approach", "telemetry", "faults", "availability", "NMIs", "exceptions", "alive at end?")
	for _, r := range results {
		alive := "DEAD"
		if missionSteps-r.lastAlive < 100000 {
			alive = "alive"
		}
		fmt.Printf("%-10v  %10d  %7d  %11.1f%%  %6d  %11d  %s (last telemetry at step %d)\n",
			r.approach, r.beats, r.faults, 100*r.avail, r.nmis, r.exc, alive, r.lastAlive)
	}

	fmt.Println("\nreading the table:")
	fmt.Println(" - baseline: the first unlucky fault wedges it; telemetry stops and never resumes")
	fmt.Println(" - checkpoint: rollback helps until a corruption gets snapshotted; then every")
	fmt.Println("   rollback faithfully restores the damage")
	fmt.Println(" - adaptive: no restart tax and crash faults recover, but a zombie-shaped fault")
	fmt.Println("   (alive but illegal) is invisible to a silence detector")
	fmt.Println(" - reinstall: keeps coming back, but every recovery (and every watchdog period)")
	fmt.Println("   restarts the counters — telemetry sequence numbers reset")
	fmt.Println(" - monitor: repairs in place; sequence numbers keep counting across faults")
}
