package machine

import (
	"reflect"
	"testing"

	"ssos/internal/isa"
	"ssos/internal/mem"
)

// TestOpsTableCoversISA pins the executor table to the instruction set:
// every opcode byte has an executor, and it is opInvalid exactly when
// the isa defines no instruction for that byte. A new opcode added to
// the isa without an executor — or an executor left on a retired byte —
// fails here.
func TestOpsTableCoversISA(t *testing.T) {
	invalid := reflect.ValueOf(opInvalid).Pointer()
	for b := 0; b < 256; b++ {
		op := isa.Op(b)
		if ops[b] == nil {
			t.Fatalf("ops[%#02x] (%s) is nil", b, op.Mnemonic())
		}
		if got := reflect.ValueOf(ops[b]).Pointer() == invalid; got == op.Valid() {
			t.Errorf("ops[%#02x] (%s): opInvalid = %v, want %v", b, op.Mnemonic(), got, !op.Valid())
		}
	}
}

// TestALUFlagMatrix pins down flag semantics with a table of cases.
func TestALUFlagMatrix(t *testing.T) {
	cases := []struct {
		name string
		ins  []isa.Inst
		ax   uint16
		cf   bool
		zf   bool
		sf   bool
		of   bool
	}{
		{
			name: "add no carry",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 1},
				{Op: isa.OpAddRI, R1: r(isa.AX), Imm: 2},
			},
			ax: 3,
		},
		{
			name: "add carry and zero",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xFFFF},
				{Op: isa.OpAddRI, R1: r(isa.AX), Imm: 1},
			},
			ax: 0, cf: true, zf: true,
		},
		{
			name: "add signed overflow",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0x7FFF},
				{Op: isa.OpAddRI, R1: r(isa.AX), Imm: 1},
			},
			ax: 0x8000, sf: true, of: true,
		},
		{
			name: "sub borrow",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 1},
				{Op: isa.OpSubRI, R1: r(isa.AX), Imm: 2},
			},
			ax: 0xFFFF, cf: true, sf: true,
		},
		{
			name: "sub signed overflow",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0x8000},
				{Op: isa.OpSubRI, R1: r(isa.AX), Imm: 1},
			},
			ax: 0x7FFF, of: true,
		},
		{
			name: "and clears carry",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xFFFF},
				{Op: isa.OpAddRI, R1: r(isa.AX), Imm: 1}, // sets CF
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xF0F0},
				{Op: isa.OpAndRI, R1: r(isa.AX), Imm: 0x0F0F},
			},
			ax: 0, zf: true,
		},
		{
			name: "xor self zeroes",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0x1234},
				{Op: isa.OpXorRR, R1: r(isa.AX), R2: r(isa.AX)},
			},
			ax: 0, zf: true,
		},
		{
			name: "or sign",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0x8000},
				{Op: isa.OpOrRI, R1: r(isa.AX), Imm: 1},
			},
			ax: 0x8001, sf: true,
		},
		{
			name: "inc preserves carry",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xFFFF},
				{Op: isa.OpAddRI, R1: r(isa.AX), Imm: 1}, // CF set
				{Op: isa.OpIncR, R1: r(isa.AX)},          // must keep CF
			},
			ax: 1, cf: true,
		},
		{
			name: "dec to zero",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 1},
				{Op: isa.OpDecR, R1: r(isa.AX)},
			},
			ax: 0, zf: true,
		},
		{
			name: "mul with high byte sets carry",
			ins: []isa.Inst{
				{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0x00FF},
				{Op: isa.OpMovR8I, R1: uint8(isa.BH), Imm: 0xFF},
				{Op: isa.OpMulR8, R1: uint8(isa.BH)},
			},
			ax: 0xFE01, cf: true, of: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newTestMachine(t, prog(c.ins...))
			m.Run(len(c.ins))
			if m.CPU.R[isa.AX] != c.ax {
				t.Errorf("ax = %#x, want %#x", m.CPU.R[isa.AX], c.ax)
			}
			check := func(name string, bit isa.Flags, want bool) {
				if m.CPU.Flags.Has(bit) != want {
					t.Errorf("%s = %v, want %v (flags %v)", name, !want, want, m.CPU.Flags)
				}
			}
			check("CF", isa.FlagCF, c.cf)
			check("ZF", isa.FlagZF, c.zf)
			check("SF", isa.FlagSF, c.sf)
			check("OF", isa.FlagOF, c.of)
		})
	}
}

func TestSegmentOffsetWrapsInLoads(t *testing.T) {
	// A word load at offset 0xFFFF reads its high byte at offset 0
	// of the same segment (16-bit wrap), not the next linear byte.
	bus := mem.NewBus()
	m := New(bus, Options{ResetVector: SegOff{0x0100, 0}})
	m.CPU.S[isa.DS] = 0x2000
	bus.Poke(0x2FFFF, 0x34) // ds:0xFFFF
	bus.Poke(0x20000, 0x12) // ds:0x0000
	if got := m.LoadWord(isa.DS, 0xFFFF); got != 0x1234 {
		t.Fatalf("wrapped load = %#x", got)
	}
}

func TestFetchWrapsAtSegmentEnd(t *testing.T) {
	// An instruction starting at ip=0xFFFF continues at ip=0 of the
	// same segment.
	bus := mem.NewBus()
	m := New(bus, Options{ResetVector: SegOff{0x0100, 0xFFFF}})
	// mov ax, 0xBEEF split across the wrap: opcode at 0xFFFF, operands
	// at 0,1,2.
	enc := isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xBEEF}.Encode(nil)
	bus.Poke(0x1000+0xFFFF, enc[0])
	bus.Poke(0x1000+0, enc[1])
	bus.Poke(0x1000+1, enc[2])
	bus.Poke(0x1000+2, enc[3])
	m.Step()
	if m.CPU.R[isa.AX] != 0xBEEF {
		t.Fatalf("wrapped fetch: ax=%#x", m.CPU.R[isa.AX])
	}
	if m.CPU.IP != 3 {
		t.Fatalf("ip after wrap = %#x", m.CPU.IP)
	}
}

func TestPushfPopfRoundTrip(t *testing.T) {
	m := newTestMachine(t, prog(
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xFFFF},
		isa.Inst{Op: isa.OpAddRI, R1: r(isa.AX), Imm: 1}, // CF|ZF
		isa.Inst{Op: isa.OpPushf},
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.BX), Imm: 7}, // disturb nothing
		isa.Inst{Op: isa.OpCmpRI, R1: r(isa.BX), Imm: 1}, // clears ZF, CF
		isa.Inst{Op: isa.OpPopf},
	))
	m.Run(6)
	if !m.CPU.Flags.Has(isa.FlagCF) || !m.CPU.Flags.Has(isa.FlagZF) {
		t.Fatalf("popf did not restore flags: %v", m.CPU.Flags)
	}
}

func TestMovsbBackwardDirection(t *testing.T) {
	m := newTestMachine(t, prog(
		isa.Inst{Op: isa.OpStd},
		isa.Inst{Op: isa.OpMovsb},
		isa.Inst{Op: isa.OpMovsb},
	))
	m.CPU.S[isa.ES] = 0x0100
	m.CPU.R[isa.SI] = 0x301
	m.CPU.R[isa.DI] = 0x401
	m.Bus.Poke(0x1000+0x301, 0xAB)
	m.Bus.Poke(0x1000+0x300, 0xCD)
	m.Run(3)
	if m.Bus.Peek(0x1000+0x401) != 0xAB || m.Bus.Peek(0x1000+0x400) != 0xCD {
		t.Fatal("backward copy wrong")
	}
	if m.CPU.R[isa.SI] != 0x2FF || m.CPU.R[isa.DI] != 0x3FF {
		t.Fatalf("si/di after std: %#x %#x", m.CPU.R[isa.SI], m.CPU.R[isa.DI])
	}
}

func TestNMIDuringRepMovsbResumes(t *testing.T) {
	// The scheduler relies on this: an NMI can interrupt a rep copy and
	// the copy completes correctly after iret.
	code := make([]byte, 0x60)
	copy(code, prog(
		isa.Inst{Op: isa.OpCld},
		isa.Inst{Op: isa.OpRepMovsb},
		isa.Inst{Op: isa.OpHlt},
	))
	copy(code[0x40:], prog(isa.Inst{Op: isa.OpIret}))
	m := newTestMachine(t, code)
	m.Opts.NMICounter = true
	m.Opts.NMICounterMax = 8
	m.Opts.HardwiredNMIVector = true
	m.Opts.NMIVector = SegOff{0x0100, 0x40}
	m.CPU.S[isa.ES] = 0x0100
	m.CPU.R[isa.SI] = 0x300
	m.CPU.R[isa.DI] = 0x400
	m.CPU.R[isa.CX] = 32
	for i := 0; i < 32; i++ {
		m.Bus.Poke(0x1000+0x300+uint32(i), byte(i+1))
	}
	// Interrupt mid-copy.
	m.Run(10)
	m.RaiseNMI()
	m.RunUntil(200, func(m *Machine) bool { return m.CPU.Halted })
	for i := 0; i < 32; i++ {
		if got := m.Bus.Peek(0x1000 + 0x400 + uint32(i)); got != byte(i+1) {
			t.Fatalf("byte %d = %#x after interrupted rep", i, got)
		}
	}
	if m.Stats.NMIs != 1 {
		t.Fatalf("NMIs = %d", m.Stats.NMIs)
	}
}

func TestIRQDoesNotWakeHaltWithIFClear(t *testing.T) {
	m := newTestMachine(t, prog(isa.Inst{Op: isa.OpHlt}))
	m.Step() // halt, IF clear
	m.RaiseIRQ(VecTimer)
	m.Run(50)
	if !m.CPU.Halted {
		t.Fatal("masked IRQ woke a halted CPU")
	}
	if m.Stats.IRQs != 0 {
		t.Fatal("masked IRQ was delivered")
	}
}

func TestNMITakesPriorityOverIRQ(t *testing.T) {
	code := make([]byte, 0x80)
	copy(code, prog(isa.Inst{Op: isa.OpSti}, isa.Inst{Op: isa.OpNop}))
	copy(code[0x40:], prog(isa.Inst{Op: isa.OpIret})) // NMI handler
	copy(code[0x60:], prog(isa.Inst{Op: isa.OpIret})) // IRQ handler
	m := newTestMachine(t, code)
	m.Opts.NMICounter = true
	m.Opts.HardwiredNMIVector = true
	m.Opts.NMIVector = SegOff{0x0100, 0x40}
	m.Opts.FixedIDTR = true
	m.SetIDTEntry(VecTimer, SegOff{0x0100, 0x60})
	m.Step() // sti
	m.RaiseNMI()
	m.RaiseIRQ(VecTimer)
	if ev := m.Step(); ev != EventNMI {
		t.Fatalf("expected NMI first, got %v", ev)
	}
	// IRQ is masked during the NMI handler (IF cleared); after iret the
	// restored flags have IF set again, so the IRQ is delivered.
	if ev := m.Step(); ev != EventInstr { // iret
		t.Fatalf("expected iret, got %v", ev)
	}
	if ev := m.Step(); ev != EventIRQ {
		t.Fatalf("expected IRQ after iret, got %v", ev)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	m := newTestMachine(t, prog(
		isa.Inst{Op: isa.OpIncR, R1: r(isa.AX)},
		isa.Inst{Op: isa.OpJmp, Imm: 0},
	))
	ok := m.RunUntil(1000, func(m *Machine) bool { return m.CPU.R[isa.AX] == 5 })
	if !ok || m.CPU.R[isa.AX] != 5 {
		t.Fatalf("RunUntil: ok=%v ax=%d", ok, m.CPU.R[isa.AX])
	}
	if m.RunUntil(10, func(m *Machine) bool { return false }) {
		t.Fatal("RunUntil should report failure")
	}
}

func TestCallIntoROMFaultPolicy(t *testing.T) {
	// A push whose stack target is ROM faults under ROMWriteFault: the
	// designs route this to the exception handler.
	bus := mem.NewBus()
	bus.SetROMWritePolicy(mem.ROMWriteFault)
	if _, err := bus.AddROM("r", 0x50000, make([]byte, 0x1000)); err != nil {
		t.Fatal(err)
	}
	code := prog(isa.Inst{Op: isa.OpPushR, R1: r(isa.AX)})
	for i, b := range code {
		bus.Poke(0x1000+uint32(i), b)
	}
	m := New(bus, Options{ResetVector: SegOff{0x0100, 0}, ExceptionPolicy: ExceptionHalt})
	m.CPU.S[isa.SS] = 0x5000 // stack in ROM
	m.CPU.R[isa.SP] = 0x100
	if ev := m.Step(); ev != EventException {
		t.Fatalf("push into ROM: ev=%v", ev)
	}
}

func TestEventStrings(t *testing.T) {
	for ev, want := range map[Event]string{
		EventInstr:     "instr",
		EventNMI:       "nmi",
		EventIRQ:       "irq",
		EventException: "exception",
		EventReset:     "reset",
		EventHalted:    "halted",
		Event(99):      "unknown",
	} {
		if got := ev.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ev, got, want)
		}
	}
}

func TestMachineStringAndCPUString(t *testing.T) {
	m := newTestMachine(t, prog(isa.Inst{Op: isa.OpNop}))
	if s := m.String(); s == "" {
		t.Fatal("empty machine string")
	}
	if s := m.CPU.String(); s == "" {
		t.Fatal("empty cpu string")
	}
}
