package guest

import (
	"testing"

	"ssos/internal/dev"
	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/mem"
	"ssos/internal/trace"
)

func TestKernelAssembles(t *testing.T) {
	for _, padded := range []bool{false, true} {
		k, err := BuildKernel(padded)
		if err != nil {
			t.Fatalf("padded=%v: %v", padded, err)
		}
		if k.CodeLen() == 0 || k.CodeLen() > DataOff {
			t.Fatalf("padded=%v: code len %#x", padded, k.CodeLen())
		}
		img := k.Image()
		if len(img) != ImageSize {
			t.Fatalf("image size %d", len(img))
		}
		canary := uint16(img[VarCanary]) | uint16(img[VarCanary+1])<<8
		if canary != CanaryValue {
			t.Fatalf("image canary %#x", canary)
		}
	}
}

func TestPaddedKernelSlots(t *testing.T) {
	k := MustBuildKernel(true)
	if k.CodeLen()%isa.SlotSize != 0 {
		t.Fatalf("padded code len %#x not slot multiple", k.CodeLen())
	}
	for off := 0; off < int(k.CodeLen()); off += isa.SlotSize {
		if _, _, ok := isa.Decode(k.Prog.Code[off:]); !ok {
			t.Errorf("slot %#x does not decode", off)
		}
	}
}

// runKernelDirect boots the kernel image directly (no stabilizer) and
// returns the machine and its heartbeat console.
func runKernelDirect(t *testing.T, padded bool, steps int) (*machine.Machine, *dev.Console) {
	t.Helper()
	k := MustBuildKernel(padded)
	bus := mem.NewBus()
	img := k.Image()
	for i, b := range img {
		bus.Poke(uint32(OSSeg)<<4+uint32(i), b)
	}
	m := machine.New(bus, machine.Options{
		ResetVector: machine.SegOff{Seg: OSSeg, Off: 0},
	})
	console := dev.NewConsole(func() uint64 { return m.Stats.Steps }, 0)
	m.MapPort(PortHeartbeat, console)
	m.Run(steps)
	return m, console
}

func TestKernelEmitsLegalHeartbeats(t *testing.T) {
	for _, padded := range []bool{false, true} {
		// Padded code pays for its robustness: sequential execution
		// walks the slot-padding nops, roughly a 13x slowdown here.
		steps := 20000
		if padded {
			steps = 100000
		}
		m, console := runKernelDirect(t, padded, steps)
		w := console.Writes()
		if len(w) < 50 {
			t.Fatalf("padded=%v: only %d heartbeats", padded, len(w))
		}
		spec := trace.HeartbeatSpec{Start: HeartbeatStart, MaxGap: 2000}
		if v := spec.Violations(w, m.Stats.Steps); len(v) != 0 {
			t.Fatalf("padded=%v: violations: %v", padded, v)
		}
		if w[0].Value != HeartbeatStart {
			t.Fatalf("padded=%v: first beat %#x", padded, w[0].Value)
		}
	}
}

func TestKernelMaintainsChecksumInvariant(t *testing.T) {
	m, _ := runKernelDirect(t, false, 50000)
	// Read guest variables via absolute bus access, independent of the
	// stopping point.
	word := func(off uint32) uint16 { return m.Bus.LoadWord(uint32(OSSeg)<<4 + off) }
	var sum uint16
	for i := uint32(0); i < NumTasks; i++ {
		sum += word(VarTaskRuns + 2*i)
	}
	chk := word(VarChecksum)
	if d := sum - chk; d != 0 && d != 1 {
		t.Fatalf("checksum drift: sum=%d chk=%d", sum, chk)
	}
	if word(VarCanary) != CanaryValue {
		t.Fatal("canary lost")
	}
	if word(VarTaskIdx) >= NumTasks {
		t.Fatalf("task idx out of range: %d", word(VarTaskIdx))
	}
	// All tasks ran.
	for i := uint32(0); i < NumTasks; i++ {
		if word(VarTaskRuns+2*i) == 0 {
			t.Fatalf("task %d never ran", i)
		}
	}
}

func TestKernelHealsDSCorruption(t *testing.T) {
	m, console := runKernelDirect(t, false, 5000)
	m.CPU.S[isa.DS] = 0x7777 // transient fault in ds
	m.Run(5000)
	spec := trace.HeartbeatSpec{Start: HeartbeatStart, MaxGap: 2000}
	w := console.Writes()
	// The stream may glitch briefly but must have a long legal suffix.
	start := spec.LegalSuffixStart(w)
	if len(w)-start < 20 {
		t.Fatalf("no legal suffix after ds corruption (start=%d len=%d)", start, len(w))
	}
}

func TestHandlersAssemble(t *testing.T) {
	r, err := BuildReinstallHandler()
	if err != nil {
		t.Fatal(err)
	}
	if r.NMIEntry().Off != 0 {
		t.Fatalf("reinstall NMI entry at %v", r.NMIEntry())
	}
	if r.BootEntry() != r.NMIEntry() {
		t.Fatal("approach-1 boot should alias the NMI entry")
	}
	c, err := BuildContinueHandler()
	if err != nil {
		t.Fatal(err)
	}
	if c.NMIEntry().Off != 0 || c.BootEntry().Off == 0 {
		t.Fatalf("continue entries: nmi=%v boot=%v", c.NMIEntry(), c.BootEntry())
	}
	if _, err := BuildMonitorHandler(MustBuildKernel(true)); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildMonitorHandler(MustBuildKernel(false)); err == nil {
		t.Fatal("monitor must reject an unpadded kernel")
	}
}

func TestSchedulerAssembles(t *testing.T) {
	for _, vds := range []bool{false, true} {
		s, err := BuildScheduler(vds)
		if err != nil {
			t.Fatalf("validateDS=%v: %v", vds, err)
		}
		if s.NMIEntry().Off != 0 {
			t.Fatalf("scheduler NMI entry at %v", s.NMIEntry())
		}
		if s.BootEntry().Off == 0 || s.ExcEntry().Off == 0 {
			t.Fatal("missing boot/exc entries")
		}
	}
}

func TestProcessesAssemble(t *testing.T) {
	set, err := BuildProcesses()
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range set.Images {
		if len(img) != ProcRegionSize {
			t.Fatalf("process %d region size %d", i, len(img))
		}
		// Padded processes: every slot within the code decodes.
		codeLen := len(set.Progs[i].Code)
		for off := 0; off < codeLen; off += isa.SlotSize {
			if _, _, ok := isa.Decode(img[off:]); !ok {
				t.Errorf("process %d slot %#x does not decode", i, off)
			}
		}
	}
}

func TestFillRegionSelfSynchronizes(t *testing.T) {
	code := make([]byte, 35) // not a multiple of 3, exercises the gap
	for i := range code {
		code[i] = byte(isa.OpNop)
	}
	region, err := FillRegion(code, 256)
	if err != nil {
		t.Fatal(err)
	}
	// From every fill offset except the final jmp's two operand bytes
	// (which escape past the region; see the FillRegion doc comment), a
	// decode walk reaches offset 0 within a few instructions.
	for start := len(code); start < len(region)-2; start++ {
		off := start
		reached := false
		for hop := 0; hop < 4; hop++ {
			in, size, ok := isa.Decode(region[off:])
			if !ok {
				t.Fatalf("offset %d: undecodable fill byte %#x", off, region[off])
			}
			if in.Op == isa.OpJmp {
				if in.Imm != 0 {
					t.Fatalf("offset %d: fill jmp to %#x", off, in.Imm)
				}
				reached = true
				break
			}
			if in.Op != isa.OpNop {
				t.Fatalf("offset %d: unexpected op %v", off, in.Op)
			}
			off += size
			if off >= len(region) {
				break
			}
		}
		if !reached {
			t.Fatalf("fill offset %d never reaches jmp 0", start)
		}
	}
	// Oversized code is rejected.
	if _, err := FillRegion(make([]byte, 300), 256); err == nil {
		t.Fatal("oversized code accepted")
	}
}

func TestPrimitiveAssembles(t *testing.T) {
	p, err := BuildPrimitive()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Image) != PrimitiveROMSize {
		t.Fatalf("image size %d", len(p.Image))
	}
	if p.ProcStarts[0] != 0 {
		t.Fatalf("proc0 must start at 0, got %#x", p.ProcStarts[0])
	}
	if !(p.ProcStarts[0] < p.ProcStarts[1] && p.ProcStarts[1] < p.ProcStarts[2] && p.ProcStarts[2] < p.CodeEnd) {
		t.Fatalf("process layout: %v end=%#x", p.ProcStarts, p.CodeEnd)
	}
	// The process body must be loop-free and stackless: scan decoded
	// instructions for violations of the Section 5.1 restrictions.
	off := 0
	for off < int(p.CodeEnd) {
		in, size, ok := isa.Decode(p.Image[off:])
		if !ok {
			t.Fatalf("undecodable process byte at %#x", off)
		}
		switch in.Op {
		case isa.OpHlt, isa.OpPushR, isa.OpPopR, isa.OpPushI, isa.OpPushS,
			isa.OpPopS, isa.OpCall, isa.OpRet, isa.OpLoop, isa.OpPushf, isa.OpPopf:
			t.Fatalf("forbidden op %v at %#x", in.Op, off)
		case isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
			// Only the final jmp back to start is allowed to go backward.
			if int(in.Imm) <= off && off+size != int(p.CodeEnd) {
				t.Fatalf("backward branch at %#x", off)
			}
		}
		off += size
	}
}

func TestKernelIPCQueueFlows(t *testing.T) {
	m, _ := runKernelDirect(t, false, 100000)
	word := func(off uint32) uint16 { return m.Bus.LoadWord(uint32(OSSeg)<<4 + off) }
	if h := word(VarQHead); h >= QueueCap {
		t.Fatalf("queue head out of range: %d", h)
	}
	if tl := word(VarQTail); tl >= QueueCap {
		t.Fatalf("queue tail out of range: %d", tl)
	}
	// The consumer accumulated drained telemetry.
	if word(VarScratch+10) == 0 {
		t.Fatal("consumer never drained the queue")
	}
}

func TestKernelHealsQueueIndexCorruption(t *testing.T) {
	m, console := runKernelDirect(t, false, 50000)
	m.Bus.PokeRAM(uint32(OSSeg)<<4+VarQHead, 0xFF)
	m.Bus.PokeRAM(uint32(OSSeg)<<4+VarQHead+1, 0x7F)
	m.Run(50000)
	word := func(off uint32) uint16 { return m.Bus.LoadWord(uint32(OSSeg)<<4 + off) }
	if h := word(VarQHead); h >= QueueCap {
		t.Fatalf("queue head not healed: %d", h)
	}
	spec := trace.HeartbeatSpec{Start: HeartbeatStart, MaxGap: 2000}
	w := console.Writes()
	if len(w)-spec.LegalSuffixStart(w) < 50 {
		t.Fatal("heartbeats disrupted by queue corruption")
	}
}

func TestReinstallHandlerSizedBounds(t *testing.T) {
	if _, err := BuildReinstallHandlerSized(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := BuildReinstallHandlerSized(0x10001); err == nil {
		t.Error("oversized accepted")
	}
	h, err := BuildReinstallHandlerSized(0x800)
	if err != nil {
		t.Fatal(err)
	}
	if h.NMIEntry().Off != 0 {
		t.Error("nmi entry offset")
	}
}

func TestCheckpointHandlerAssembles(t *testing.T) {
	h, err := BuildCheckpointHandler()
	if err != nil {
		t.Fatal(err)
	}
	if h.NMIEntry().Off != 0 || h.BootEntry().Off == 0 || h.ExcEntry().Off == 0 {
		t.Fatalf("entries: %v %v %v", h.NMIEntry(), h.BootEntry(), h.ExcEntry())
	}
}

func TestRingProcessesAssemble(t *testing.T) {
	set, err := BuildMailboxProcesses(VariantKState)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range set.Images {
		if len(img) != ProcRegionSize {
			t.Fatalf("ring process %d region size %d", i, len(img))
		}
	}
	// Member sources differ between root and followers.
	if string(set.Images[0][:64]) == string(set.Images[1][:64]) {
		t.Error("root and member images identical")
	}
	if MailboxAddr(1) != uint32(MailboxSeg)<<4+2 {
		t.Error("MailboxAddr")
	}
}

func TestSchedulerProtectVariantDiffers(t *testing.T) {
	plain, err := BuildSchedulerOpts(SchedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := BuildSchedulerOpts(SchedOptions{ValidateDS: true, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prot.Prog.Code) <= len(plain.Prog.Code) {
		t.Error("protect variant should add code")
	}
	if !prot.Opts.Protect || plain.Opts.Protect {
		t.Error("options not recorded")
	}
}
