package core

import (
	"testing"

	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/isa"
	"ssos/internal/mem"
	"ssos/internal/trace"
)

// procRecoveredAfter reports whether process i's beat stream contains a
// confirmed legal suffix that begins at or after faultStep — beats from
// before the fault never count toward recovery.
func procRecoveredAfter(s *System, i int, faultStep uint64, confirm int) bool {
	_, ok := s.ProcSpec(i).RecoveredAfter(s.ProcBeats[i].Writes(), faultStep, confirm)
	return ok
}

func TestSchedulerRunsAllProcesses(t *testing.T) {
	s := MustNew(Config{Approach: ApproachScheduler})
	s.Run(400000)
	for i := 0; i < guest.NumProcs; i++ {
		n := len(s.ProcBeats[i].Writes())
		if n < 3 {
			t.Fatalf("process %d beat only %d times", i, n)
		}
		if !procRecoveredAfter(s, i, 0, 3) {
			t.Fatalf("process %d stream not legal: %v", i, s.ProcBeats[i].Writes())
		}
	}
	if s.M.Stats.NMIs < 100 {
		t.Fatalf("scheduler barely ran: %d NMIs", s.M.Stats.NMIs)
	}
}

func TestSchedulerFairness(t *testing.T) {
	s := MustNew(Config{Approach: ApproachScheduler})
	var ranges []trace.Range
	for i := 0; i < guest.NumProcs; i++ {
		base := uint32(guest.ProcCodeSeg(i)) << 4
		ranges = append(ranges, trace.Range{
			Name:  "proc",
			Start: base,
			End:   base + guest.ProcRegionSize,
		})
	}
	sampler := trace.NewPCSampler(ranges...)
	s.M.AfterStep = sampler.Observe
	s.Run(500000)
	// Lemma 5.3: every process executes infinitely often; with a
	// round-robin quantum each should get a near-equal share of the
	// machine (the scheduler itself costs ~67 instructions per switch).
	if min := sampler.MinShare(); min < 0.15 {
		t.Fatalf("starvation: %v", sampler)
	}
}

func TestSchedulerFairnessWithUnequalProcessLengths(t *testing.T) {
	// The Section 5.2 motivation: "a process with a thousand sequential
	// machine code lines will not cause a delay in executing a process
	// with only ten machine code lines". Process 2's loop makes its
	// iteration ~40x longer than process 0's; beats per unit time
	// differ, but machine share must not.
	s := MustNew(Config{Approach: ApproachScheduler})
	r0 := uint32(guest.ProcCodeSeg(0)) << 4
	r2 := uint32(guest.ProcCodeSeg(2)) << 4
	sampler := trace.NewPCSampler(
		trace.Range{Name: "p0", Start: r0, End: r0 + guest.ProcRegionSize},
		trace.Range{Name: "p2", Start: r2, End: r2 + guest.ProcRegionSize},
	)
	s.M.AfterStep = sampler.Observe
	s.Run(500000)
	s0, s2 := sampler.Share(0), sampler.Share(1)
	if s0 < 0.15 || s2 < 0.15 {
		t.Fatalf("share lost: p0=%.3f p2=%.3f", s0, s2)
	}
	ratio := s0 / s2
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("quantum fairness broken: p0=%.3f p2=%.3f", s0, s2)
	}
}

func TestSchedulerRecoversFromIndexCorruption(t *testing.T) {
	s := MustNew(Config{Approach: ApproachScheduler})
	s.Run(100000)
	// Any bit pattern is a legal index after masking (lg N bits).
	s.M.Bus.PokeRAM(guest.ProcessIndexAddr(), 0xFF)
	s.M.Bus.PokeRAM(guest.ProcessIndexAddr()+1, 0xFF)
	faultStep := s.Steps()
	s.Run(300000)
	for i := 0; i < guest.NumProcs; i++ {
		if !procRecoveredAfter(s, i, faultStep, 3) {
			t.Fatalf("process %d did not recover from index corruption", i)
		}
	}
}

func TestSchedulerPinsCorruptedCS(t *testing.T) {
	s := MustNew(Config{Approach: ApproachScheduler})
	s.Run(100000)
	// Corrupt process 1's saved cs; the Figure 5 validation must pin
	// it back to the fixed value within one scheduling round.
	rec := guest.ProcRecordAddr(1)
	s.M.Bus.PokeRAM(rec+2, 0x34)
	s.M.Bus.PokeRAM(rec+3, 0x12)
	faultStep := s.Steps()
	s.Run(int(s.Cfg.WatchdogPeriod) * (guest.NumProcs + 2))
	// After a full round the record holds the fixed cs again (saved
	// from the validated running value).
	if got := s.M.Bus.LoadWord(rec + 2); got != guest.ProcCodeSeg(1) {
		t.Fatalf("cs not pinned: %#x", got)
	}
	s.Run(200000)
	if !procRecoveredAfter(s, 1, faultStep, 3) {
		t.Fatal("process 1 did not resume legal beats")
	}
}

func TestSchedulerRecoversFromTableBlast(t *testing.T) {
	s := MustNew(Config{Approach: ApproachScheduler})
	s.Run(100000)
	inj := fault.NewInjector(s.M, 7)
	inj.RandomizeRegion(mem.Region{
		Name:  "process-table",
		Start: uint32(guest.SchedSeg) << 4,
		Size:  guest.ProcessTableOff + guest.NumProcs*guest.ProcessEntrySize,
	})
	faultStep := s.Steps()
	s.Run(2400000)
	for i := 0; i < guest.NumProcs; i++ {
		if !procRecoveredAfter(s, i, faultStep, 3) {
			t.Fatalf("process %d did not recover from table blast", i)
		}
	}
}

func TestRefresherRestoresCorruptedWorkerCode(t *testing.T) {
	s := MustNew(Config{Approach: ApproachScheduler})
	s.Run(100000)
	inj := fault.NewInjector(s.M, 8)
	// Destroy worker 0's code region in RAM.
	inj.RandomizeRegion(mem.Region{
		Name:  "proc0-code",
		Start: uint32(guest.ProcCodeSeg(0)) << 4,
		Size:  guest.ProcRegionSize,
	})
	faultStep := s.Steps()
	s.Run(900000)
	w := s.ProcBeats[0].Writes()
	if _, ok := s.ProcSpec(0).RecoveredAfter(w, faultStep, 3); !ok {
		t.Fatalf("process 0 did not recover after code blast (beats=%d)", len(w))
	}
	// The region must match the ROM image again.
	romBase := uint32(guest.ProcROMSeg(0)) << 4
	ramBase := uint32(guest.ProcCodeSeg(0)) << 4
	for off := uint32(0); off < guest.ProcRegionSize; off++ {
		if s.M.Bus.Peek(ramBase+off) != s.M.Bus.Peek(romBase+off) {
			t.Fatalf("code byte %#x not refreshed", off)
		}
	}
}

func TestSchedulerFromArbitraryConfiguration(t *testing.T) {
	// Theorem 5.5 under the harshest start: all RAM and the whole CPU
	// randomized. The bare Figures 2-5 scheduler has an ABSORBING
	// counterexample here — a poisoned record (ax = the scheduler's
	// data segment, resume mid-slot at a mov ds,ax) aliases a process
	// onto the scheduler's own state; the process then redirects its
	// own save every quantum and its record is never healed. This is
	// the "mixture of data space" caveat the paper itself concedes in
	// Section 5.2. We therefore assert the realistic split: the bare
	// scheduler converges on most seeds, and the memory-protection
	// extension (which faults the aliased stores) converges on all.
	const seeds = 5
	bareOK := 0
	for seed := int64(0); seed < seeds; seed++ {
		s := MustNew(Config{Approach: ApproachScheduler})
		inj := fault.NewInjector(s.M, 300+seed)
		inj.BlastRAM()
		inj.BlastCPU()
		s.Run(2500000)
		ok := true
		for i := 0; i < guest.NumProcs; i++ {
			if !procRecoveredAfter(s, i, 0, 3) {
				ok = false
			}
		}
		if ok {
			bareOK++
		} else {
			t.Logf("bare scheduler seed %d: absorbed into the aliasing cycle (expected occasionally)", seed)
		}
	}
	if bareOK < seeds/2+1 {
		t.Fatalf("bare scheduler converged on only %d/%d seeds", bareOK, seeds)
	}
	for seed := int64(0); seed < seeds; seed++ {
		s := MustNew(Config{Approach: ApproachScheduler, ProtectMemory: true})
		inj := fault.NewInjector(s.M, 300+seed)
		inj.BlastRAM()
		inj.BlastCPU()
		s.Run(2500000)
		for i := 0; i < guest.NumProcs; i++ {
			if !procRecoveredAfter(s, i, 0, 3) {
				t.Fatalf("protected scheduler seed %d: process %d did not converge (beats=%d)",
					seed, i, len(s.ProcBeats[i].Writes()))
			}
		}
	}
}

func TestSchedulerDSValidationExtension(t *testing.T) {
	s := MustNew(Config{Approach: ApproachScheduler, ValidateDS: true})
	s.Run(100000)
	rec := guest.ProcRecordAddr(2)
	s.M.Bus.PokeRAM(rec+8, 0x77) // corrupt saved ds
	s.M.Bus.PokeRAM(rec+9, 0x77)
	s.Run(int(s.Cfg.WatchdogPeriod) * (guest.NumProcs + 2))
	if got := s.M.Bus.LoadWord(rec + 8); got != guest.ProcDataSeg(2) {
		t.Fatalf("ds not pinned by extension: %#x", got)
	}
}

func TestSchedulerSurvivesHaltLatch(t *testing.T) {
	// hlt (whether from a fault latch or a misdecoded byte) is woken by
	// the next watchdog NMI — the tailored system has no unrecoverable
	// halt, unlike the interrupt-free primitive chain.
	s := MustNew(Config{Approach: ApproachScheduler})
	s.Run(100000)
	s.M.CPU.Halted = true
	faultStep := s.Steps()
	s.Run(300000)
	for i := 0; i < guest.NumProcs; i++ {
		if !procRecoveredAfter(s, i, faultStep, 3) {
			t.Fatalf("process %d did not survive halt latch", i)
		}
	}
}

func TestPrimitiveRunsAllProcesses(t *testing.T) {
	s := MustNew(Config{Approach: ApproachPrimitive})
	s.Run(50000)
	for i := 0; i < guest.PrimitiveNumProcs; i++ {
		w := s.ProcBeats[i].Writes()
		if len(w) < 100 {
			t.Fatalf("process %d beat %d times", i, len(w))
		}
		spec := trace.HeartbeatSpec{Start: 1, MaxGap: 1000, AllowRestart: true}
		if v := spec.Violations(w, s.Steps()); len(v) != 0 {
			t.Fatalf("process %d violations: %v", i, v)
		}
	}
}

// primitiveInstructionStarts returns every offset the paper's 5.1 model
// allows the program counter to hold: instruction starts within the
// process chain plus all fill offsets that stay inside the region.
func primitiveInstructionStarts(p *guest.Primitive) []uint16 {
	var starts []uint16
	off := 0
	for off < int(p.CodeEnd) {
		starts = append(starts, uint16(off))
		_, size, ok := isa.Decode(p.Image[off:])
		if !ok {
			break
		}
		off += size
	}
	for f := int(p.CodeEnd); f < len(p.Image)-2; f++ {
		starts = append(starts, uint16(f))
	}
	return starts
}

func TestPrimitiveStabilizesFromEveryInstructionStart(t *testing.T) {
	// Theorem 5.1: from any program counter value (the 5.1 model
	// assumes the pc holds an instruction start), every process is
	// executed infinitely often and stabilizes.
	base := MustNew(Config{Approach: ApproachPrimitive})
	starts := primitiveInstructionStarts(base.Prim)
	if len(starts) < 100 {
		t.Fatalf("suspiciously few instruction starts: %d", len(starts))
	}
	for _, off := range starts {
		s := MustNew(Config{Approach: ApproachPrimitive})
		s.Run(1000)
		s.M.CPU.IP = off // transient pc fault
		faultStep := s.Steps()
		s.Run(3000)
		for i := 0; i < guest.PrimitiveNumProcs; i++ {
			if !procRecoveredAfter(s, i, faultStep, 3) {
				t.Fatalf("offset %#x: process %d did not stabilize", off, i)
			}
		}
	}
}

func TestPrimitiveRawByteCorruptionMostlyRecovers(t *testing.T) {
	// Outside the 5.1 model: a pc pointing mid-instruction can decode
	// operand bytes as code. Most offsets still recover (junk decodes
	// raise exceptions that restart the chain); a halt byte inside an
	// operand is unrecoverable without interrupts — exactly the
	// variable-instruction-length hazard Section 5.2's padding solves.
	s0 := MustNew(Config{Approach: ApproachPrimitive})
	recovered, total := 0, 0
	for off := 0; off < int(s0.Prim.CodeEnd); off++ {
		s := MustNew(Config{Approach: ApproachPrimitive})
		s.Run(1000)
		s.M.CPU.IP = uint16(off)
		faultStep := s.Steps()
		s.Run(3000)
		ok := true
		for i := 0; i < guest.PrimitiveNumProcs; i++ {
			if !procRecoveredAfter(s, i, faultStep, 3) {
				ok = false
			}
		}
		total++
		if ok {
			recovered++
		}
	}
	if recovered < total*3/4 {
		t.Fatalf("only %d/%d raw offsets recovered", recovered, total)
	}
	t.Logf("raw-byte sweep: %d/%d offsets recovered", recovered, total)
}

func TestSchedulerQuantumChangesSwitchRate(t *testing.T) {
	fast := MustNew(Config{Approach: ApproachScheduler, WatchdogPeriod: 300})
	slow := MustNew(Config{Approach: ApproachScheduler, WatchdogPeriod: 3000})
	fast.Run(200000)
	slow.Run(200000)
	if fast.M.Stats.NMIs <= slow.M.Stats.NMIs*5 {
		t.Fatalf("quantum had no effect: fast=%d slow=%d", fast.M.Stats.NMIs, slow.M.Stats.NMIs)
	}
}

func TestProtectedSchedulerRunsNormally(t *testing.T) {
	// The protection extension must not disturb legal operation: all
	// processes (including the ROM refresher, exempt as supervisor)
	// keep running, and the refresher can still rewrite worker code.
	s := MustNew(Config{Approach: ApproachScheduler, ProtectMemory: true})
	s.Run(400000)
	for i := 0; i < guest.NumProcs; i++ {
		if !procRecoveredAfter(s, i, 0, 3) {
			t.Fatalf("process %d not running under protection (beats=%d, exc=%d)",
				i, len(s.ProcBeats[i].Writes()), s.M.Stats.Exceptions)
		}
	}
	// Refresher still restores corrupted worker code.
	inj := fault.NewInjector(s.M, 12)
	inj.RandomizeRegion(mem.Region{Name: "p0",
		Start: uint32(guest.ProcCodeSeg(0)) << 4, Size: guest.ProcRegionSize})
	faultStep := s.Steps()
	s.Run(900000)
	if !procRecoveredAfter(s, 0, faultStep, 3) {
		t.Fatal("refresher blocked by protection")
	}
}

func TestProtectionConfinesStrayWrites(t *testing.T) {
	// Force the exact hazard the paper leaves to programmer discipline:
	// worker 1 about to store through a ds pointing at worker 2's data.
	// With the protection extension the store faults and worker 2's
	// data survives; without it, worker 2 gets scribbled.
	run := func(protect bool) (victimChanged bool) {
		s := MustNew(Config{Approach: ApproachScheduler, ProtectMemory: protect})
		s.Run(100000)
		victim := uint32(guest.ProcDataSeg(2)) << 4 // worker 2's counter word (offset 0)
		before := s.M.Bus.LoadWord(victim)
		// Drop the CPU right at worker 1's counter-store slot
		// (slot 4: mov [0], ax) with a corrupted ds.
		s.M.CPU.S[isa.CS] = guest.ProcCodeSeg(1)
		s.M.CPU.IP = 4 * 16
		s.M.CPU.S[isa.DS] = guest.ProcDataSeg(2) // stray!
		s.M.CPU.R[isa.AX] = 0x5A5A
		if protect {
			s.M.CPU.WP = guest.ProcDataSeg(1)
			s.M.CPU.Flags = s.M.CPU.Flags.With(isa.FlagWP)
		} else {
			s.M.CPU.Flags = s.M.CPU.Flags.Without(isa.FlagWP)
		}
		s.M.Step()
		return s.M.Bus.LoadWord(victim) != before
	}
	if run(false) != true {
		t.Fatal("without protection the stray write should land")
	}
	if run(true) {
		t.Fatal("protection failed to confine the stray write")
	}
}
