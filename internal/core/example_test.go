package core_test

import (
	"fmt"

	"ssos/internal/asm"
	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/mem"
)

// Example_reinstall builds the paper's approach-1 system, destroys the
// OS in RAM, and shows the watchdog/reinstall procedure bringing it
// back — the Bochs experiment as three statements.
func Example_reinstall() {
	sys := core.MustNew(core.Config{Approach: core.ApproachReinstall})
	sys.Run(100000)

	inj := fault.NewInjector(sys.M, 42)
	inj.RandomizeRegion(mem.Region{
		Name:  "os",
		Start: uint32(guest.OSSeg) << 4,
		Size:  guest.ImageSize,
	})
	faultStep := sys.Steps()
	sys.Run(200000)

	_, recovered := sys.Spec().RecoveredAfter(sys.Heartbeat.Writes(), faultStep, 10)
	fmt.Println("recovered:", recovered)
	// Output: recovered: true
}

// Example_monitor shows approach 2 repairing a broken consistency
// predicate in place, reporting the repair on the repair port.
func Example_monitor() {
	sys := core.MustNew(core.Config{Approach: core.ApproachMonitor})
	sys.Run(100000)

	// A transient fault flips the canary word.
	sys.M.Bus.PokeRAM(uint32(guest.OSSeg)<<4+guest.VarCanary, 0x00)
	sys.Run(2 * int(sys.Cfg.WatchdogPeriod))

	for _, r := range sys.Repairs.Writes() {
		if r.Value == guest.RepairCanary {
			fmt.Println("monitor repaired the canary")
			break
		}
	}
	// Output: monitor repaired the canary
}

// ExampleNewCustom wraps a user-assembled guest in the Figure 1
// stabilizer: the library's extension point.
func ExampleNewCustom() {
	prog, err := asm.Assemble(`
OS_SEG equ 0x2000
start:
	mov ax, OS_SEG
	mov ds, ax
loop_top:
	mov ax, [0x100]
	inc ax
	mov [0x100], ax
	out 0x50, ax
	jmp loop_top
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	img := make([]byte, 0x110)
	copy(img, prog.Code)

	sys, err := core.NewCustom(core.CustomConfig{Image: img, HeartbeatPort: 0x50})
	if err != nil {
		fmt.Println(err)
		return
	}
	sys.Run(50000)
	fmt.Println("guest alive:", sys.Heartbeat.Total() > 1000)
	// Output: guest alive: true
}

// Example_tokenRing runs Dijkstra's ring above the self-stabilizing
// scheduler and reports the mutual-exclusion invariant.
func Example_tokenRing() {
	sys := core.MustNew(core.Config{
		Approach: core.ApproachScheduler,
		Workload: core.WorkloadMailboxKState,
	})
	if _, ok := sys.MailboxConverged(2000000, 500, 50); ok {
		fmt.Println("exactly one privilege circulates")
	}
	// Output: exactly one privilege circulates
}
