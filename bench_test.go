package ssos

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ssos/internal/asm"
	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/dev"
	"ssos/internal/expt"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/imglint"
	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/mem"
	"ssos/internal/obs"
)

// Experiment benchmarks: one per DESIGN.md experiment, running the
// quick configuration so `go test -bench` regenerates every result in
// reduced form. cmd/ssos-bench runs the full versions.

func benchOptions(i int) expt.Options {
	return expt.Options{Quick: true, Seed: int64(i)}
}

// writeFigure saves a benchmark's figure data as machine-readable JSON
// under benchdata/ (the bench- prefix keeps these quick-mode results
// distinct from cmd/ssos-bench's full-run exports). CI uploads the
// directory as a workflow artifact.
func writeFigure(b *testing.B, s *expt.Series) {
	b.Helper()
	if err := os.MkdirAll("benchdata", 0o755); err != nil {
		b.Fatal(err)
	}
	j, err := s.JSON()
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("benchdata", "bench-"+s.ID+".json"), j, 0o644); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE1RAMCorruption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E1RAMCorruption(benchOptions(i))
	}
}

func BenchmarkE2ArbitraryState(b *testing.B) {
	var f *expt.Series
	for i := 0; i < b.N; i++ {
		_, f = expt.E2ArbitraryState(benchOptions(i))
	}
	writeFigure(b, f)
}

func BenchmarkE3Baseline(b *testing.B) {
	var f *expt.Series
	for i := 0; i < b.N; i++ {
		_, f = expt.E3FaultRateComparison(benchOptions(i))
	}
	writeFigure(b, f)
}

func BenchmarkE4MonitorRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E4MonitorRepair(benchOptions(i))
	}
}

func BenchmarkE5PeriodSweep(b *testing.B) {
	var f *expt.Series
	for i := 0; i < b.N; i++ {
		_, f = expt.E5PeriodSweep(benchOptions(i))
	}
	writeFigure(b, f)
}

func BenchmarkE6Primitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E6Primitive(benchOptions(i))
	}
	b.StopTimer()
	writeFigure(b, expt.E6FairnessFigure(benchOptions(0)))
}

func BenchmarkE7Scheduler(b *testing.B) {
	o := benchOptions(0)
	o.Trials = 2
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i)
		expt.E7Scheduler(o)
	}
}

func BenchmarkE8Overhead(b *testing.B) {
	var f *expt.Series
	for i := 0; i < b.N; i++ {
		_, f = expt.E8Overhead(benchOptions(i))
	}
	writeFigure(b, f)
}

func BenchmarkE9Checkpoint(b *testing.B) {
	var f *expt.Series
	for i := 0; i < b.N; i++ {
		_, f = expt.E9Checkpoint(benchOptions(i))
	}
	writeFigure(b, f)
}

func BenchmarkE10TokenRing(b *testing.B) {
	o := benchOptions(0)
	o.Trials = 3
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i)
		expt.E10TokenRing(o)
	}
}

func BenchmarkE11Protection(b *testing.B) {
	o := benchOptions(0)
	o.Trials = 2
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i)
		expt.E11Protection(o)
	}
}

func BenchmarkE12Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E12AdaptiveWatchdog(benchOptions(i))
	}
}

func BenchmarkE13Tickful(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E13TickfulSilentFaults(benchOptions(i))
	}
}

func BenchmarkE14Cluster(b *testing.B) {
	var f, fb *expt.Series
	for i := 0; i < b.N; i++ {
		_, f, fb = expt.E14ClusterAvailability(benchOptions(i))
	}
	writeFigure(b, f)
	writeFigure(b, fb)
}

// Micro-benchmarks: the substrate costs underlying every experiment.

// BenchmarkMachineStep measures raw simulator throughput on the guest
// kernel's main loop (steps per second drive every experiment above).
func BenchmarkMachineStep(b *testing.B) {
	s := core.MustNew(core.Config{Approach: core.ApproachBaseline})
	s.Run(10000) // past boot
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkMachineStepInterp measures the reference interpreter alone:
// SetDecodeCache(false) turns the superblock engine off, so every step
// is a byte-wise fetch–decode–execute. The gap to BenchmarkMachineStep
// is the block engine's win.
func BenchmarkMachineStepInterp(b *testing.B) {
	s := core.MustNew(core.Config{Approach: core.ApproachBaseline})
	s.M.SetDecodeCache(false)
	s.Run(10000) // past boot
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkMachineStepProbed is BenchmarkMachineStep with the
// observability collector attached. The probe fires only on interrupt,
// exception and reset delivery — never per instruction — so this must
// stay within noise of the uninstrumented run.
func BenchmarkMachineStepProbed(b *testing.B) {
	s := core.MustNew(core.Config{Approach: core.ApproachBaseline})
	s.Instrument(obs.NewCollector())
	s.Run(10000) // past boot
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkMachineStepScheduler measures throughput with the 5.2
// scheduler context-switching every quantum.
func BenchmarkMachineStepScheduler(b *testing.B) {
	s := core.MustNew(core.Config{Approach: core.ApproachScheduler})
	s.Run(10000)
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkMachineStepProtected is BenchmarkMachineStepScheduler in
// E11's protected configuration: the memory-protection extension on,
// with saved ds validation. Every data store then goes through the
// protection window check (machine.windowActive), a path no benchmark
// workload runs.
func BenchmarkMachineStepProtected(b *testing.B) {
	s := core.MustNew(core.Config{Approach: core.ApproachScheduler, ProtectMemory: true, ValidateDS: true})
	s.Run(10000)
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkMachineStepMonitor measures throughput on approach 2's
// kernel at its default watchdog period: slot-padded code (%pad on),
// so most of its steps are nop padding, plus one monitor pass and its
// refresh copy per period.
func BenchmarkMachineStepMonitor(b *testing.B) {
	s := core.MustNew(core.Config{Approach: core.ApproachMonitor})
	s.Run(10000)
	b.ResetTimer()
	s.Run(b.N)
}

// BenchmarkReinstallCycle measures one full watchdog reinstall cycle:
// NMI delivery, Figure 1 image copy and guest restart.
func BenchmarkReinstallCycle(b *testing.B) {
	s := core.MustNew(core.Config{Approach: core.ApproachReinstall})
	s.Run(10000)
	cycle := int(s.Cfg.WatchdogPeriod)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(cycle)
	}
}

// BenchmarkRefreshCopy measures one Figure 1 refresh on its own: the
// rep movsb, run from ROM, that copies the guest.ImageSize-byte OS
// image from its ROM copy at OSROMSeg:0 to OSSeg:0, retired through
// Run. RAM already holds the image, as in every legal execution, so the
// copy changes no byte.
func BenchmarkRefreshCopy(b *testing.B) {
	bus := mem.NewBus()
	img := guest.MustBuildKernel(false).Image()
	if _, err := bus.AddROM("os", guest.OSROMSeg<<4, img); err != nil {
		b.Fatal(err)
	}
	if _, err := bus.AddROM("copy", guest.HandlerROMSeg<<4, asm.MustAssemble("rep movsb\nhlt").Code); err != nil {
		b.Fatal(err)
	}
	for i, v := range img {
		bus.PokeRAM(guest.OSSeg<<4+uint32(i), v)
	}
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: guest.HandlerROMSeg}})
	c := &m.CPU
	b.SetBytes(guest.ImageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.S[isa.CS], c.IP = guest.HandlerROMSeg, 0
		c.S[isa.DS], c.R[isa.SI] = guest.OSROMSeg, 0
		c.S[isa.ES], c.R[isa.DI] = guest.OSSeg, 0
		c.R[isa.CX] = guest.ImageSize
		m.Run(guest.ImageSize)
	}
	b.StopTimer()
	if c.R[isa.CX] != 0 || c.Halted || m.Stats.BlockBails != 0 {
		b.Fatalf("copy did not finish cleanly: cx=%d halted=%v bails=%d", c.R[isa.CX], c.Halted, m.Stats.BlockBails)
	}
}

// deadTimeMachine builds a bare machine for the dead-time benchmarks:
// guest code at 0100:0000 over otherwise zeroed RAM, an NMI handler in
// ROM at F000:0000 under the paper's NMI counter (loaded with
// counterMax on delivery), the stack at 5000:1000, and a watchdog that
// raises NMI every 10,000 ticks, the churn workload's period. It runs
// 100,000 steps before it is returned.
func deadTimeMachine(b *testing.B, guestSrc, handlerSrc string, counterMax uint16) *machine.Machine {
	bus := mem.NewBus()
	if _, err := bus.AddROM("nmi", 0xF0000, asm.MustAssemble(handlerSrc).Code); err != nil {
		b.Fatal(err)
	}
	for i, v := range asm.MustAssemble(guestSrc).Code {
		bus.PokeRAM(0x1000+uint32(i), v)
	}
	m := machine.New(bus, machine.Options{
		ResetVector:        machine.SegOff{Seg: 0x0100},
		NMICounter:         true,
		NMICounterMax:      counterMax,
		HardwiredNMIVector: true,
		NMIVector:          machine.SegOff{Seg: 0xF000},
	})
	m.CPU.S[isa.SS], m.CPU.R[isa.SP] = 0x5000, 0x1000
	m.AddTicker(dev.NewWatchdog(10_000, dev.TargetNMI))
	m.Run(100_000)
	return m
}

// runDeadTime runs m for b.N steps in Run calls of 10,000 steps, so
// ns/op reads ns/step.
func runDeadTime(b *testing.B, m *machine.Machine) {
	b.ResetTimer()
	for left := b.N; left > 0; left -= 10_000 {
		m.Run(min(left, 10_000))
	}
	b.StopTimer()
}

// BenchmarkNopSled measures a nop sled: ip slides over zeroed RAM
// (opcode 0x00 is nop), as after a cpu-blast or pc fault, and every
// watchdog NMI returns into it. The sled runs through the whole 64 KiB
// segment and wraps at ip 0xFFFF.
func BenchmarkNopSled(b *testing.B) {
	m := deadTimeMachine(b, "nop", "iret", 0)
	runDeadTime(b, m)
	if s := m.Stats; s.Instrs+s.NMIs != s.Steps {
		b.Fatalf("the sled did more than slide: %v", s)
	}
}

// BenchmarkHaltWait measures a halted wait: hlt; jmp 0, so the
// processor idles from each watchdog NMI's iret to the next NMI.
func BenchmarkHaltWait(b *testing.B) {
	m := deadTimeMachine(b, "hlt\njmp 0", "iret", 0)
	runDeadTime(b, m)
	if s := m.Stats; s.HaltTicks*10 < s.Steps*9 {
		b.Fatalf("the processor was halted for %d of %d ticks", s.HaltTicks, s.Steps)
	}
}

// BenchmarkMaskedNMI measures code running under a latched NMI that the
// NMI counter holds off. The handler rejoins the guest's loop without
// an iret, so the counter (65,535 on delivery) holds each watchdog NMI
// off for 65,535 ticks: about five of every six ticks run with one
// latched.
func BenchmarkMaskedNMI(b *testing.B) {
	m := deadTimeMachine(b, "inc ax\nadd bx, ax\njmp 0", "jmp 0x0100:0x0000", 0xFFFF)
	runDeadTime(b, m)
	if m.Stats.NMIs == 0 {
		b.Fatal("no NMI was ever delivered")
	}
}

// BenchmarkClusterEpoch measures one voting epoch of a 5-replica
// reinstall cluster with no strikes, after 400 warm-up epochs: the
// fleet whose replicas live longest, so the one in which a voter that
// kept or rescanned heartbeat history would cost more per epoch the
// longer it ran.
func BenchmarkClusterEpoch(b *testing.B) {
	c := cluster.MustNew(cluster.Config{Replicas: 5, Approach: core.ApproachReinstall, Seed: 1})
	c.Run(400)
	b.ResetTimer()
	c.Run(b.N)
	b.StopTimer()
	if st := c.Stats[len(c.Stats)-1]; st.Agree != 5 || !st.Legal {
		b.Fatalf("epoch %d: agree %d legal %v", st.Epoch, st.Agree, st.Legal)
	}
}

// BenchmarkClusterEpochStrikes measures one full strike cadence of a
// 5-replica reinstall cluster: DefaultStrikeEvery epochs, the last of
// which strikes a minority with os-blast mid-epoch, evicts the struck
// replicas and rejoins them by state transfer. It times the struck
// epoch's split and rejoin paths beside BenchmarkClusterEpoch's quiet
// one.
func BenchmarkClusterEpochStrikes(b *testing.B) {
	c := cluster.MustNew(cluster.Config{Replicas: 5, Approach: core.ApproachReinstall, Seed: 1, Faults: cluster.ModeOSBlast})
	c.Run(cluster.DefaultStrikeEvery)
	b.ResetTimer()
	c.Run(b.N * cluster.DefaultStrikeEvery)
	b.StopTimer()
	for _, st := range c.Stats {
		if !st.Legal {
			b.Fatalf("epoch %d: agree %d, verdict illegal", st.Epoch, st.Agree)
		}
	}
	if c.Summary().Evictions == 0 {
		b.Fatal("no struck replica was evicted")
	}
}

// BenchmarkRingFleetRelay measures one relay interval of a converged
// 5-node Dijkstra 3-state ring fleet: RingFleet.Run(DefaultRelayEvery)
// steps each replica 2000 steps in one pool fan-out, then relays the
// ring's mailbox slots. The jobs are short, so the fan-out's own cost
// shows beside them.
func BenchmarkRingFleetRelay(b *testing.B) {
	f, err := cluster.NewRingFleet(cluster.RingFleetConfig{Variant: guest.VariantDijkstra3, Replicas: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	f.Run(100 * cluster.DefaultRelayEvery)
	b.ResetTimer()
	for range b.N {
		f.Run(cluster.DefaultRelayEvery)
	}
	b.StopTimer()
	if !f.Legal() {
		b.Fatal("the ring is not legal")
	}
}

// BenchmarkBlastRAM measures the fault injectors' bulk writes on a
// reinstall system's machine: BlastRAM (every RAM byte, as a served
// all-ram fault and a blast strike write it) and RandomizeRegion over
// the guest OS image (an os-blast). Both draw one byte per address from
// the injector's seeded stream, which sets the floor.
func BenchmarkBlastRAM(b *testing.B) {
	for _, bc := range []struct {
		name  string
		blast func(*fault.Injector)
	}{
		{"all-ram", (*fault.Injector).BlastRAM},
		{"os", func(in *fault.Injector) {
			in.RandomizeRegion(mem.Region{Name: "os", Start: uint32(guest.OSSeg) << 4, Size: guest.ImageSize})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := core.MustNew(core.Config{Approach: core.ApproachReinstall})
			inj := fault.NewInjector(s.M, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.blast(inj)
				inj.Log = inj.Log[:0]
			}
		})
	}
}

// BenchmarkRecoveryFromBlast measures end-to-end recovery: OS image
// destroyed, machine run until legal heartbeats resume.
func BenchmarkRecoveryFromBlast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := core.MustNew(core.Config{Approach: core.ApproachReinstall})
		s.Run(20000)
		inj := fault.NewInjector(s.M, int64(i))
		inj.RandomizeRegion(mem.Region{Name: "os", Start: uint32(guest.OSSeg) << 4, Size: guest.ImageSize})
		faultStep := s.Steps()
		s.Run(int(s.Cfg.WatchdogPeriod) + 3*guest.ImageSize)
		if _, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 5); !ok {
			b.Fatal("no recovery")
		}
	}
}

// Static-side benchmarks: the four parts of one certify pass (the
// certificate catalog, the ranking prover, the image linter, the model
// checker).

// BenchmarkConvergenceCerts measures building the certificate catalog:
// assembling the checked node images and binding each to its declared
// protocol.
func BenchmarkConvergenceCerts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := guest.ConvergenceCerts(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckRingCerts measures proving every catalog certificate
// from the shipped ROM bytes.
func BenchmarkCheckRingCerts(b *testing.B) {
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			if r := imglint.CheckRingCert(sp.Cert); !r.Proved() {
				b.Fatalf("%s: not proved: %v", r.Name, r.Findings)
			}
		}
	}
}

// BenchmarkImageLint measures linting every assembled guest ROM image.
func BenchmarkImageLint(b *testing.B) {
	imgs, err := guest.LintImages()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range imgs {
			if fs := imglint.Check(img); len(fs) != 0 {
				b.Fatalf("%s: %v", img.Name, fs)
			}
		}
	}
}

// BenchmarkModelVerify measures the model checker on the protocol twin
// of every ranking-mode certificate (the certificates past the prover's
// state cap have no twin check).
func BenchmarkModelVerify(b *testing.B) {
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		b.Fatal(err)
	}
	var twins []guest.RingCertSpec
	for _, sp := range specs {
		if imglint.CheckRingCert(sp.Cert).Mode == "ranking" {
			twins = append(twins, sp)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range twins {
			if _, err := sp.Protocol.System(sp.Cert.N).Verify(1 << 20); err != nil {
				b.Fatalf("%s: %v", sp.Cert.Name, err)
			}
		}
	}
}

// BenchmarkAssembler measures assembling the Figures 2-5 scheduler.
func BenchmarkAssembler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := guest.BuildScheduler(false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemblerKernel measures assembling the padded guest kernel.
func BenchmarkAssemblerKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := guest.BuildKernel(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures raw instruction decode.
func BenchmarkDecode(b *testing.B) {
	code := isa.Inst{Op: isa.OpMovRM, R1: uint8(isa.AX),
		Mem: isa.MemOp{Seg: isa.SS, Base: isa.BaseBX, Disp: 0x100}}.Encode(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := isa.Decode(code); !ok {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkSystemConstruction measures building a full system from the
// cached guest programs (per-trial cost in every experiment).
func BenchmarkSystemConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.MustNew(core.Config{Approach: core.ApproachMonitor})
	}
}

// BenchmarkConsoleOut measures one console write at the guest
// kernel's heartbeat cadence, a beat every 43 steps: into an unbounded
// log (Max 0, the catalog's consoles), a one-write console (Max 1,
// every cluster replica, ring-fleet replica and served session) and a
// bounded log (Max 4096, steady's scheduler machines). The unbounded
// console is reset every 2^20 writes, so its heap stays small while
// its chunk allocations stay in the measurement.
func BenchmarkConsoleOut(b *testing.B) {
	for _, bound := range []int{0, 1, 4096} {
		b.Run(fmt.Sprintf("Max%d", bound), func(b *testing.B) {
			var step uint64
			c := dev.NewConsole(func() uint64 { return step }, bound)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i&(1<<20-1) == 0 {
					c.Reset()
				}
				step += 43
				c.Out(0, uint16(i))
			}
		})
	}
}

// BenchmarkConsoleWrites measures reading back a full bounded log:
// the 32,768 writes steady's baseline machine keeps, decoded by
// Writes as every batch judge reads them.
func BenchmarkConsoleWrites(b *testing.B) {
	const keep = 32768
	var step uint64
	c := dev.NewConsole(func() uint64 { return step }, keep)
	for i := 0; i < keep+keep/4; i++ {
		step += 43
		c.Out(0, uint16(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(c.Writes()); n != keep {
			b.Fatalf("Writes returned %d writes, want %d", n, keep)
		}
	}
}

// BenchmarkProgramAssembleListing exercises the assembler end to end on
// a synthetic program with labels, data and padding.
func BenchmarkProgramAssembleListing(b *testing.B) {
	src := `
V equ 0x100
%pad on
start:
	mov ax, V
	add ax, bx
	cmp ax, 0x200
	jb start
	mov word [ss:V-2], ax
%pad off
	dw start, V
	times 16 db 0xEE
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := asm.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.ListingString()
	}
}
