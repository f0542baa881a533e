package fault

import (
	"bytes"
	"testing"

	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/mem"
)

func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	bus := mem.NewBus()
	if _, err := bus.AddROM("rom", 0xF0000, make([]byte, 0x10000)); err != nil {
		t.Fatal(err)
	}
	bus.Poke(0x1000, byte(isa.OpJmp)) // jmp 0 loop at reset vector
	return machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
}

func TestFlipRAMBitNeverTouchesROM(t *testing.T) {
	m := testMachine(t)
	inj := NewInjector(m, 1)
	romBefore := m.Bus.CopyOut(0xF0000, 0x10000)
	for i := 0; i < 5000; i++ {
		addr := inj.FlipRAMBit()
		if m.Bus.InROM(addr) {
			t.Fatalf("fault hit ROM at %#x", addr)
		}
	}
	romAfter := m.Bus.CopyOut(0xF0000, 0x10000)
	for i := range romBefore {
		if romBefore[i] != romAfter[i] {
			t.Fatalf("ROM byte %#x changed", i)
		}
	}
	if len(inj.Log) != 5000 {
		t.Fatalf("log length = %d", len(inj.Log))
	}
}

func TestFlipRAMBitActuallyFlips(t *testing.T) {
	m := testMachine(t)
	inj := NewInjector(m, 2)
	before := m.Bus.Snapshot()
	addr := inj.FlipRAMBit()
	if m.Bus.Peek(addr) == before[addr] {
		t.Fatal("no bit flipped")
	}
	// Exactly one bit differs.
	diff := m.Bus.Peek(addr) ^ before[addr]
	if diff&(diff-1) != 0 {
		t.Fatalf("more than one bit flipped: %#x", diff)
	}
}

func TestRegionFaults(t *testing.T) {
	m := testMachine(t)
	inj := NewInjector(m, 3)
	r := mem.Region{Name: "table", Start: 0x5000, Size: 0x100}
	if !inj.FlipRAMBitIn(r) {
		t.Fatal("FlipRAMBitIn failed")
	}
	if !inj.CorruptByteIn(r) {
		t.Fatal("CorruptByteIn failed")
	}
	inj.RandomizeRegion(r)
	// A region fully inside ROM cannot be faulted.
	romRegion := mem.Region{Name: "rom", Start: 0xF0000, Size: 0x100}
	if inj.FlipRAMBitIn(romRegion) {
		t.Fatal("flipped a ROM bit")
	}
	if inj.CorruptByteIn(romRegion) {
		t.Fatal("corrupted a ROM byte")
	}
}

func TestCPUFaults(t *testing.T) {
	m := testMachine(t)
	inj := NewInjector(m, 4)
	inj.CorruptIP()
	inj.CorruptSP()
	inj.CorruptFlags()
	inj.CorruptRegister()
	inj.CorruptSegment()
	inj.CorruptNMICounter()
	inj.CorruptIDTR()
	inj.SetHalted()
	inj.SetInNMI()
	if !m.CPU.Halted || !m.CPU.InNMI {
		t.Fatal("latch faults not applied")
	}
	if len(inj.Log) != 9 {
		t.Fatalf("log: %v", inj.Log)
	}
	for _, r := range inj.Log {
		if r.String() == "" {
			t.Fatal("empty record string")
		}
	}
}

func TestBlastIsDeterministic(t *testing.T) {
	run := func() machine.CPU {
		m := testMachine(t)
		inj := NewInjector(m, 42)
		inj.BlastCPU()
		inj.BlastRAM()
		return m.CPU
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different state:\n%v\n%v", &a, &b)
	}
}

// TestBulkByteDrawsMatchIntn: BlastRAM and RandomizeRegion draw their
// bytes straight from the source and write them a page at a time, and
// must write exactly the bytes rng.Intn(256) draws byte by byte and
// consume the same stream: RAM matches a reference injector with the
// same seed that draws through Intn and pokes each byte, and so does
// the next draw after the bulk ones. BlastRAM draws for RAM bytes only;
// RandomizeRegion draws for every address of its region, ROM included
// (the second region starts mid-page and runs into ROM), and drops the
// draws for ROM bytes.
func TestBulkByteDrawsMatchIntn(t *testing.T) {
	a, b := testMachine(t), testMachine(t)
	ia, ib := NewInjector(a, 9), NewInjector(b, 9)
	regions := []mem.Region{
		{Name: "r", Start: 0x2000, Size: 0x300},
		{Name: "into-rom", Start: 0xEFF31, Size: 0x1F0},
	}
	ia.BlastRAM()
	for _, r := range regions {
		ia.RandomizeRegion(r)
	}
	for _, r := range b.Bus.RAMRegions() {
		for x := r.Start; x < r.End(); x++ {
			b.Bus.PokeRAM(x, byte(ib.rng.Intn(256)))
		}
	}
	for _, r := range regions {
		for x := r.Start; x < r.End(); x++ {
			b.Bus.PokeRAM(x, byte(ib.rng.Intn(256)))
		}
	}
	if !bytes.Equal(a.Bus.Snapshot(), b.Bus.Snapshot()) {
		for x := uint32(0); x < mem.AddrSpace; x++ {
			if a.Bus.Peek(x) != b.Bus.Peek(x) {
				t.Fatalf("byte %#x: bulk draw %#x, Intn draw %#x", x, a.Bus.Peek(x), b.Bus.Peek(x))
			}
		}
	}
	ia.CorruptIP()
	ib.CorruptIP()
	if a.CPU.IP != b.CPU.IP {
		t.Fatalf("next draw after the bulk draws: ip %#x, reference %#x", a.CPU.IP, b.CPU.IP)
	}
}

func TestBlastRAMPreservesROM(t *testing.T) {
	m := testMachine(t)
	inj := NewInjector(m, 5)
	inj.BlastRAM()
	for a := uint32(0xF0000); a < 0xF0100; a++ {
		if m.Bus.Peek(a) != 0 {
			t.Fatalf("ROM byte %#x changed", a)
		}
	}
}

func TestRateInjectsAndDetaches(t *testing.T) {
	m := testMachine(t)
	inj := NewInjector(m, 6)
	detach := inj.Rate(1.0) // every step
	m.Run(10)
	if len(inj.Log) != 10 {
		t.Fatalf("rate log = %d", len(inj.Log))
	}
	detach()
	m.Run(10)
	if len(inj.Log) != 10 {
		t.Fatal("detach did not stop injection")
	}
}

func TestRateChainsExistingHook(t *testing.T) {
	m := testMachine(t)
	calls := 0
	m.AfterStep = func(*machine.Machine, machine.Event) { calls++ }
	inj := NewInjector(m, 7)
	detach := inj.Rate(0)
	m.Run(5)
	detach()
	if calls != 5 {
		t.Fatalf("existing hook calls = %d", calls)
	}
}

func TestRateInTargetsRegion(t *testing.T) {
	m := testMachine(t)
	inj := NewInjector(m, 8)
	r := mem.Region{Name: "target", Start: 0x3000, Size: 0x100}
	detach := inj.RateIn(r, 1.0)
	m.Run(20)
	detach()
	if len(inj.Log) != 20 {
		t.Fatalf("rate log = %d", len(inj.Log))
	}
	for _, rec := range inj.Log {
		if rec.Addr < r.Start || rec.Addr >= r.End() {
			t.Fatalf("fault outside region: %v", rec)
		}
	}
}
