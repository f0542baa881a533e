// Tiny scheduler: the paper's Section 5 tailored designs, live.
//
// Part 1 runs the primitive scheduler (5.1): three loop-free processes
// chained in ROM, stabilizing from any program-counter value without a
// single interrupt.
//
// Part 2 runs the self-stabilizing scheduler (5.2, Figures 2-5): four
// processes (one a ROM-resident code refresher) under an NMI-driven
// round robin, surviving corruption of the process table, the process
// index and even a process's code.
//
// Run with: go run ./examples/tinysched
package main

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/trace"
)

func main() {
	primitive()
	scheduler()
}

func primitive() {
	fmt.Println("== part 1: primitive scheduler (5.1) ==")
	sys := core.MustNew(core.Config{Approach: core.ApproachPrimitive})
	sys.Run(30000)
	fmt.Println("after 30000 steps with no interrupts at all:")
	for i, c := range sys.ProcBeats {
		fmt.Printf("  process %d: %d iterations\n", i, c.Total())
	}

	// Throw the program counter at three arbitrary places.
	for _, ip := range []uint16{0x0007, 0x0150, 0x03F0} {
		before := sys.ProcBeats[0].Total()
		sys.M.CPU.IP = ip
		sys.Run(5000)
		fmt.Printf("pc forced to %#04x: process 0 ran %d more iterations — chain re-synchronized\n",
			ip, sys.ProcBeats[0].Total()-before)
	}
	fmt.Println()
}

func scheduler() {
	fmt.Println("== part 2: self-stabilizing scheduler (5.2, Figures 2-5) ==")
	sys := core.MustNew(core.Config{Approach: core.ApproachScheduler})

	var ranges []trace.Range
	for i := 0; i < guest.NumProcs; i++ {
		base := uint32(guest.ProcCodeSeg(i)) << 4
		ranges = append(ranges, trace.Range{
			Name:  fmt.Sprintf("p%d", i),
			Start: base,
			End:   base + guest.ProcRegionSize,
		})
	}
	sampler := trace.NewPCSampler(ranges...)
	sys.M.AfterStep = sampler.Observe

	sys.Run(400000)
	fmt.Printf("quantum %d steps, %d context switches so far\n",
		sys.Cfg.WatchdogPeriod, sys.M.Stats.NMIs)
	fmt.Println("machine share per process (fairness, Lemma 5.3):")
	for i := 0; i < guest.NumProcs; i++ {
		role := "worker"
		if i == guest.RefresherIndex {
			role = "refresher (runs from ROM)"
		}
		fmt.Printf("  process %d: %5.1f%%  beats=%d  %s\n",
			i, 100*sampler.Share(i), sys.ProcBeats[i].Total(), role)
	}

	inj := fault.NewInjector(sys.M, 99)

	fmt.Println("\nfault 1: randomize the whole process table")
	inj.Inject(0, fault.TableBlast)
	recoverReport(sys)

	fmt.Println("\nfault 2: randomize worker 0's code region in RAM")
	inj.Inject(0, fault.ProcCode)
	before := sys.ProcBeats[0].Total()
	sys.Run(900000)
	fmt.Printf("  refresher reloaded the region from ROM; worker 0 beat %d more times\n",
		sys.ProcBeats[0].Total()-before)

	fmt.Println("\nfault 3: full blast — all RAM and every CPU register randomized")
	inj.Inject(0, fault.AllRAM, fault.CPUBlast)
	recoverReport(sys)
}

func recoverReport(sys *core.System) {
	faultStep := sys.Steps()
	sys.Run(2000000)
	allOK := true
	var worst uint64
	for i := range sys.ProcBeats {
		step, ok := sys.ProcSpec(i).RecoveredAfter(sys.ProcBeats[i].Writes(), faultStep, 3)
		if !ok {
			allOK = false
			continue
		}
		if step-faultStep > worst {
			worst = step - faultStep
		}
	}
	if allOK {
		fmt.Printf("  all %d processes back to legal operation within %d steps\n",
			len(sys.ProcBeats), worst)
	} else {
		fmt.Println("  some process did not recover (unexpected)")
	}
}
