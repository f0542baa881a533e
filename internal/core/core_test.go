package core

import (
	"testing"

	"ssos/internal/dev"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/machine"
	"ssos/internal/mem"
	"ssos/internal/trace"
)

// osRAMRegion is the guest OS image region in RAM.
func osRAMRegion() mem.Region {
	return mem.Region{Name: "os-ram", Start: uint32(guest.OSSeg) << 4, Size: guest.ImageSize}
}

func TestReinstallSystemBootsAndBeats(t *testing.T) {
	s := MustNew(Config{Approach: ApproachReinstall})
	s.Run(200000)
	w := s.Heartbeat.Writes()
	if len(w) < 100 {
		t.Fatalf("only %d heartbeats", len(w))
	}
	if v := s.Spec().Violations(w, s.Steps()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	// The watchdog reinstalls periodically: restarts must appear.
	restarts := 0
	for _, pw := range w {
		if pw.Value == guest.HeartbeatStart {
			restarts++
		}
	}
	if restarts < 2 {
		t.Fatalf("expected periodic restarts, saw %d", restarts)
	}
}

func TestReinstallRecoversFromRAMBlast(t *testing.T) {
	s := MustNew(Config{Approach: ApproachReinstall})
	s.Run(50000)
	inj := fault.NewInjector(s.M, 1)
	inj.RandomizeRegion(osRAMRegion()) // destroy the whole OS in RAM
	faultStep := s.Steps()
	s.Run(300000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 20); !ok {
		t.Fatalf("no recovery after RAM blast; last writes: %v", tail(s))
	}
}

func TestReinstallRecoversFromCPUBlast(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s := MustNew(Config{Approach: ApproachReinstall})
		s.Run(20000)
		inj := fault.NewInjector(s.M, seed)
		inj.BlastCPU()
		faultStep := s.Steps()
		s.Run(400000)
		if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 20); !ok {
			t.Fatalf("seed %d: no recovery after CPU blast", seed)
		}
	}
}

func TestReinstallFromArbitraryConfiguration(t *testing.T) {
	// Theorem 3.4: every execution (from ANY configuration) has a
	// weakly legal suffix.
	for seed := int64(0); seed < 10; seed++ {
		s := MustNew(Config{Approach: ApproachReinstall})
		inj := fault.NewInjector(s.M, 100+seed)
		inj.BlastRAM()
		inj.BlastCPU()
		s.Run(500000)
		if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), 0, 20); !ok {
			t.Fatalf("seed %d: no convergence from arbitrary configuration", seed)
		}
	}
}

func TestBaselineDiesFromFaults(t *testing.T) {
	s := MustNew(Config{Approach: ApproachBaseline})
	s.Run(20000)
	if len(s.Heartbeat.Writes()) == 0 {
		t.Fatal("baseline never ran at all")
	}
	inj := fault.NewInjector(s.M, 2)
	inj.RandomizeRegion(osRAMRegion())
	before := s.Heartbeat.Total()
	s.Run(300000)
	// The corrupted OS must not resume legal operation: either it
	// crashed (few/no further beats) or its stream is illegal.
	w := s.Heartbeat.Writes()
	if s.Heartbeat.Total()-before > 10 {
		spec := s.Spec()
		if _, ok := spec.RecoveredAfter(w, 20000, 20); ok {
			t.Fatal("baseline recovered without a stabilizer?")
		}
	}
}

func TestStockNMILatchPreventsRecovery(t *testing.T) {
	// The paper's motivating hazard: without the NMI-counter hardware,
	// a state with the in-NMI latch set masks the watchdog forever.
	s := MustNew(Config{Approach: ApproachReinstall, DisableNMICounter: true})
	s.Run(20000)
	inj := fault.NewInjector(s.M, 3)
	inj.SetInNMI()
	inj.CorruptIP() // send the guest into the weeds
	inj.CorruptSegment()
	faultStep := s.Steps()
	s.Run(300000)
	if s.M.Stats.NMIs > uint64(faultStep)/uint64(s.Cfg.WatchdogPeriod)+2 {
		t.Fatalf("NMIs kept being delivered despite the stuck latch")
	}
	// With the counter hardware the same scenario recovers.
	s2 := MustNew(Config{Approach: ApproachReinstall})
	s2.Run(20000)
	inj2 := fault.NewInjector(s2.M, 3)
	inj2.SetInNMI() // ignored by counter hardware
	inj2.CorruptIP()
	inj2.CorruptSegment()
	fs2 := s2.Steps()
	s2.Run(300000)
	if _, ok := s2.Spec().RecoveredAfter(s2.Heartbeat.Writes(), fs2, 20); !ok {
		t.Fatal("counter hardware failed to recover")
	}
}

func TestContinuePreservesStateAcrossRefresh(t *testing.T) {
	s := MustNew(Config{Approach: ApproachContinue})
	s.Run(300000)
	w := s.Heartbeat.Writes()
	if len(w) < 100 {
		t.Fatalf("only %d heartbeats", len(w))
	}
	// Strict spec: the handler must not reset the counter.
	strict := trace.HeartbeatSpec{Start: guest.HeartbeatStart, MaxGap: s.Spec().MaxGap}
	if v := strict.Violations(w, s.Steps()); len(v) != 0 {
		t.Fatalf("continue variant restarted or glitched: %v", v)
	}
	if s.M.Stats.NMIs < 5 {
		t.Fatalf("watchdog barely fired: %d", s.M.Stats.NMIs)
	}
}

func TestContinueRecoversCodeCorruption(t *testing.T) {
	s := MustNew(Config{Approach: ApproachContinue})
	s.Run(50000)
	inj := fault.NewInjector(s.M, 4)
	// Corrupt a swath of the OS *code* only.
	for i := 0; i < 64; i++ {
		inj.CorruptByteIn(mem.Region{Name: "os-code", Start: uint32(guest.OSSeg) << 4, Size: uint32(guest.DataOff)})
	}
	faultStep := s.Steps()
	s.Run(300000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 20); !ok {
		t.Fatal("continue variant did not recover code corruption")
	}
}

func TestMonitorStrictLegality(t *testing.T) {
	s := MustNew(Config{Approach: ApproachMonitor})
	s.Run(600000)
	w := s.Heartbeat.Writes()
	if len(w) < 50 {
		t.Fatalf("only %d heartbeats", len(w))
	}
	if v := s.Spec().Violations(w, s.Steps()); len(v) != 0 {
		t.Fatalf("monitor system violated strict legality: %v", v)
	}
	if s.M.Stats.NMIs < 10 {
		t.Fatalf("watchdog barely fired: %d", s.M.Stats.NMIs)
	}
	// No repairs should have been needed in a fault-free run.
	if n := s.Repairs.Total(); n != 0 {
		t.Fatalf("spurious repairs: %d (%v)", n, s.Repairs.Writes())
	}
}

func TestMonitorRepairsCanary(t *testing.T) {
	s := MustNew(Config{Approach: ApproachMonitor})
	s.Run(100000)
	addr := uint32(guest.OSSeg)<<4 + guest.VarCanary
	s.M.Bus.PokeRAM(addr, 0x00)
	s.M.Bus.PokeRAM(addr+1, 0x00)
	s.Run(2 * int(s.Cfg.WatchdogPeriod))
	if got := s.M.Bus.LoadWord(addr); got != guest.CanaryValue {
		t.Fatalf("canary not repaired: %#x", got)
	}
	found := false
	for _, r := range s.Repairs.Writes() {
		if r.Value == guest.RepairCanary {
			found = true
		}
	}
	if !found {
		t.Fatalf("no canary repair reported: %v", s.Repairs.Writes())
	}
}

func TestMonitorRepairsChecksum(t *testing.T) {
	s := MustNew(Config{Approach: ApproachMonitor})
	s.Run(100000)
	addr := uint32(guest.OSSeg)<<4 + guest.VarTaskRuns
	s.M.Bus.PokeRAM(addr, 0xAA) // clobber a run counter
	s.M.Bus.PokeRAM(addr+1, 0x55)
	s.Run(2 * int(s.Cfg.WatchdogPeriod))
	found := false
	for _, r := range s.Repairs.Writes() {
		if r.Value == guest.RepairChecksum {
			found = true
		}
	}
	if !found {
		t.Fatalf("no checksum repair reported: %v", s.Repairs.Writes())
	}
	// Invariant restored.
	word := func(off uint32) uint16 { return s.M.Bus.LoadWord(uint32(guest.OSSeg)<<4 + off) }
	var sum uint16
	for i := uint32(0); i < guest.NumTasks; i++ {
		sum += word(guest.VarTaskRuns + 2*i)
	}
	if d := sum - word(guest.VarChecksum); d != 0 && d != 1 {
		t.Fatalf("invariant still broken: sum=%d chk=%d", sum, word(guest.VarChecksum))
	}
}

func TestMonitorValidatesResumeAddress(t *testing.T) {
	s := MustNew(Config{Approach: ApproachMonitor})
	s.Run(100000)
	inj := fault.NewInjector(s.M, 5)
	inj.CorruptIP() // likely outside the kernel code
	inj.CorruptSegment()
	faultStep := s.Steps()
	s.Run(600000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 20); !ok {
		t.Fatal("monitor did not recover from pc corruption")
	}
}

func TestMonitorPreservesCounterAcrossCodeFault(t *testing.T) {
	// The headline advantage over approach 1: a code-only fault is
	// repaired WITHOUT losing the heartbeat counter.
	s := MustNew(Config{Approach: ApproachMonitor})
	s.Run(200000)
	inj := fault.NewInjector(s.M, 6)
	for i := 0; i < 32; i++ {
		inj.CorruptByteIn(mem.Region{Name: "os-code", Start: uint32(guest.OSSeg) << 4, Size: uint32(s.Kernel.CodeLen())})
	}
	faultStep := s.Steps()
	s.Run(600000)
	w := s.Heartbeat.Writes()
	step, ok := s.Spec().RecoveredAfter(w, faultStep, 20)
	if !ok {
		t.Fatal("monitor did not recover code corruption")
	}
	// Strict spec — AllowRestart is false — so recovery without a
	// counter reset is already proven by RecoveredAfter. Double-check
	// the counter kept growing past its pre-fault value.
	var preFault uint16
	for _, pw := range w {
		if pw.Step < faultStep {
			preFault = pw.Value
		}
	}
	last := w[len(w)-1]
	if last.Value <= preFault {
		t.Fatalf("counter regressed: pre-fault %d, final %d (recovered at %d)", preFault, last.Value, step)
	}
}

func TestMonitorFromArbitraryConfiguration(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := MustNew(Config{Approach: ApproachMonitor})
		inj := fault.NewInjector(s.M, 200+seed)
		inj.BlastRAM()
		inj.BlastCPU()
		s.Run(1500000)
		if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), 0, 20); !ok {
			t.Fatalf("seed %d: monitor did not converge from arbitrary configuration", seed)
		}
	}
}

func tail(s *System) []trace.Violation {
	return s.Spec().Violations(s.Heartbeat.Writes(), s.Steps())
}

func TestMonitorRepairsQueueIndices(t *testing.T) {
	s := MustNew(Config{Approach: ApproachMonitor})
	s.Run(100000)
	// Corrupt the tail beyond what the kernel's own masking sees
	// quickly (the monitor reports it first).
	addr := uint32(guest.OSSeg)<<4 + guest.VarQTail
	s.M.Bus.PokeRAM(addr, 0xFF)
	s.M.Bus.PokeRAM(addr+1, 0x7F)
	s.Run(2 * int(s.Cfg.WatchdogPeriod))
	found := false
	for _, r := range s.Repairs.Writes() {
		if r.Value == guest.RepairQueue {
			found = true
		}
	}
	if !found {
		// The kernel itself may have healed the index before the next
		// monitor pass (both are legal recoveries); the index must be
		// in range either way.
		t.Logf("no monitor repair report; kernel healed it first")
	}
	if got := s.M.Bus.LoadWord(addr); got >= guest.QueueCap {
		t.Fatalf("queue tail not repaired: %d", got)
	}
}

func TestAdaptiveSystemNoRestartTax(t *testing.T) {
	s := MustNew(Config{Approach: ApproachAdaptive})
	s.Run(300000)
	w := s.Heartbeat.Writes()
	if len(w) < 1000 {
		t.Fatalf("beats: %d", len(w))
	}
	// No periodic restarts: the stream is STRICTLY legal (the adaptive
	// watchdog never fires while the guest is healthy).
	strict := trace.HeartbeatSpec{Start: guest.HeartbeatStart, MaxGap: s.Spec().MaxGap}
	if v := strict.Violations(w, s.Steps()); len(v) != 0 {
		t.Fatalf("adaptive system restarted: %v", v)
	}
	if s.Silence.Fires != 0 {
		t.Fatalf("watchdog fired %d times on a healthy guest", s.Silence.Fires)
	}
	// A latched halt is silence: recovery within one limit + handler.
	s.M.CPU.Halted = true
	faultStep := s.Steps()
	s.Run(2*int(s.Cfg.WatchdogPeriod) + 100000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10); !ok {
		t.Fatal("adaptive watchdog did not recover a silent fault")
	}
	if s.Silence.Fires == 0 {
		t.Fatal("silence watchdog never fired")
	}
}

func TestResetPinWatchdogVariant(t *testing.T) {
	// Section 2: "in the first two schemes ... it may trigger the reset
	// pin instead". A reset boots through the Figure 1 installer, so
	// the system stays weakly self-stabilizing.
	s := MustNew(Config{Approach: ApproachReinstall, WatchdogTarget: dev.TargetReset})
	s.Run(200000)
	if s.M.Stats.Resets < 5 {
		t.Fatalf("resets: %d", s.M.Stats.Resets)
	}
	if v := s.Spec().Violations(s.Heartbeat.Writes(), s.Steps()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	// Recovery from a blast works through the reset path too.
	inj := fault.NewInjector(s.M, 13)
	inj.RandomizeRegion(osRAMRegion())
	inj.BlastCPU()
	faultStep := s.Steps()
	s.Run(300000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10); !ok {
		t.Fatal("reset-pin variant did not recover")
	}
}

func TestStockVectoringWorksUntilIDTRCorrupted(t *testing.T) {
	// The paper's introduction hazard: with a RAM IDT and writable
	// IDTR, the system operates — until a single register fault
	// disables the entire interrupt capability.
	s := MustNew(Config{Approach: ApproachReinstall, StockVectoring: true})
	s.Run(200000)
	if v := s.Spec().Violations(s.Heartbeat.Writes(), s.Steps()); len(v) != 0 {
		t.Fatalf("stock vectoring should work fault-free: %v", v)
	}
	if s.M.Stats.NMIs < 5 {
		t.Fatalf("NMIs: %d", s.M.Stats.NMIs)
	}
	// Corrupt the IDTR: vectoring now reads garbage vectors from
	// whatever the register points at.
	s.M.CPU.IDTR = 0x40000 // points at the scheduler-RAM area: zeros
	s.M.CPU.Halted = true  // a silent fault only the watchdog can fix
	s.Run(400000)
	// The NMI "handler" is now segment 0 offset 0 (zeros in RAM decode
	// as nops) — the machine wanders instead of reinstalling. With the
	// hardwired vector the same fault recovers (cf. E1).
	w := s.Heartbeat.Writes()
	if _, ok := s.Spec().RecoveredAfter(w, 200000, 10); ok {
		t.Skip("machine wandered back to legality by luck; hazard demo inconclusive for this layout")
	}
}

func TestHardwiredVectorSurvivesIDTRCorruption(t *testing.T) {
	s := MustNew(Config{Approach: ApproachReinstall})
	s.Run(100000)
	s.M.CPU.IDTR = 0x40000 // ignored: FixedIDTR + hardwired NMI vector
	s.M.CPU.Halted = true
	faultStep := s.Steps()
	s.Run(300000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10); !ok {
		t.Fatal("hardwired vectoring should shrug off idtr corruption")
	}
}

func TestTickfulKernelBeatsFromISR(t *testing.T) {
	s := MustNew(Config{Approach: ApproachReinstall, TickfulKernel: true})
	s.Run(300000)
	w := s.Heartbeat.Writes()
	if len(w) < 1000 {
		t.Fatalf("beats: %d", len(w))
	}
	if v := s.Spec().Violations(w, s.Steps()); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if s.M.Stats.IRQs < 1000 {
		t.Fatalf("IRQs delivered: %d", s.M.Stats.IRQs)
	}
	if s.M.Stats.HaltTicks == 0 {
		t.Fatal("the kernel never slept")
	}
	// Beat cadence tracks the timer period.
	gap := w[len(w)-1].Step - w[len(w)-2].Step
	if gap != uint64(s.Timer.Period) {
		t.Fatalf("beat gap %d, want timer period %d", gap, s.Timer.Period)
	}
}

func TestTickfulIDTCorruptionIsSilentButRecovered(t *testing.T) {
	// Corrupting the timer's IDT entry stops all wakeups without any
	// exception — a silent fault. The watchdog reinstall recovers it
	// because the restarted init code reprograms the IDT.
	s := MustNew(Config{Approach: ApproachReinstall, TickfulKernel: true})
	s.Run(100000)
	s.M.Bus.PokeRAM(guest.TimerVecAddr, 0xFF)
	s.M.Bus.PokeRAM(guest.TimerVecAddr+2, 0xFF)
	faultStep := s.Steps()
	s.Run(200000)
	if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10); !ok {
		t.Fatal("reinstall did not recover the IDT corruption")
	}

	// The baseline dies from the same fault: no exceptions, no NMIs,
	// just eternal sleep.
	b := MustNew(Config{Approach: ApproachBaseline, TickfulKernel: true})
	b.Run(100000)
	b.M.Bus.PokeRAM(guest.TimerVecAddr, 0xFF)
	b.M.Bus.PokeRAM(guest.TimerVecAddr+2, 0xFF)
	before := b.Heartbeat.Total()
	b.Run(300000)
	if b.Heartbeat.Total() > before+3 {
		t.Fatalf("baseline kept beating after IDT corruption: %d -> %d", before, b.Heartbeat.Total())
	}
}

func TestTickfulIFCorruptionRecovered(t *testing.T) {
	// Clearing IF while the kernel sleeps is the classic cli;hlt
	// deadlock: the sti that would heal it never runs, because the
	// wake-up depends on the very interrupt the fault masked. No
	// exception fires — a perfectly silent fault — so recovery comes
	// from the watchdog NMI (which wakes hlt unconditionally) and the
	// reinstall-restart. This is exactly why the paper insists the
	// recovery trigger must be NON-maskable.
	s := MustNew(Config{Approach: ApproachReinstall, TickfulKernel: true})
	s.Run(100000)
	if !s.M.CPU.Halted {
		s.M.RunUntil(1000, func(m *machine.Machine) bool { return m.CPU.Halted })
	}
	s.M.CPU.Flags = 0 // clears IF while asleep
	faultStep := s.Steps()
	s.Run(200000)
	step, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10)
	if !ok {
		t.Fatal("no recovery")
	}
	if step-faultStep > uint64(s.Cfg.WatchdogPeriod)+10000 {
		t.Fatalf("recovery took %d steps, beyond one watchdog period", step-faultStep)
	}
	t.Logf("slept through masked IF for %d steps until the NMI reinstall", step-faultStep)
}

func TestTickfulRejectsUnsupportedApproaches(t *testing.T) {
	if _, err := New(Config{Approach: ApproachMonitor, TickfulKernel: true}); err == nil {
		t.Error("monitor+tickful accepted")
	}
}
