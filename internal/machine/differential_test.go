package machine

import (
	"bytes"
	"math/rand"
	"testing"

	"ssos/internal/isa"
	"ssos/internal/mem"
)

// The two-engine differential harness: the superblock engine (the
// default) and the reference interpreter (SetDecodeCache(false)) are
// driven through identical schedules and must agree on every
// architectural observable. Stats compare through Arch(): the Block*
// counters are engine telemetry and legitimately differ. The
// Step-driven suites below exercise Step's block-engine slot one step at
// a time; the Run-driven suites in superblock_test.go exercise the
// turbo lane, block chaining and the bail paths.

// engineLabels names the engines in newEnginePair order.
var engineLabels = [2]string{"superblock", "interp"}

// newEnginePair builds a block-engine and an interpreter machine over
// identical buses: a small ROM at the reset/NMI vector and otherwise
// empty RAM. Both machines see the same options.
func newEnginePair(t testing.TB, opts Options) [2]*Machine {
	t.Helper()
	rom := []byte{byte(isa.OpJmp), 0, 0}
	var p [2]*Machine
	for i := range p {
		bus := mem.NewBus()
		if _, err := bus.AddROM("rom", 0xF0000, rom); err != nil {
			t.Fatal(err)
		}
		p[i] = New(bus, opts)
	}
	p[1].SetDecodeCache(false)
	return p
}

// countdown is a test-local clock device with the dev package's
// countdown contract (dev imports machine, so these tests cannot use
// it): every period ticks it raises NMI, Tick clamps a counter outside
// [0, period), and Quiet never lets such a counter be skipped. ticks
// counts every tick it received, whether through Tick or Skip.
type countdown struct {
	period, counter uint32
	fires, ticks    uint64
}

func (c *countdown) Tick(m *Machine) {
	c.ticks++
	if c.period == 0 {
		c.period = 1
	}
	if c.counter >= c.period {
		c.counter = c.period - 1
	}
	if c.counter == 0 {
		c.fires++
		m.RaiseNMI()
		c.counter = c.period - 1
		return
	}
	c.counter--
}

func (c *countdown) Quiet() uint32 {
	if 0 < c.period && c.counter < c.period {
		return c.counter
	}
	return 0
}

func (c *countdown) Skip(k uint32) {
	c.ticks += uint64(k)
	c.counter -= k
}

// pairDo applies the same mutation to both machines.
func pairDo(p [2]*Machine, f func(m *Machine)) {
	for _, m := range p {
		f(m)
	}
}

// stepPair steps both machines once and asserts the events agree.
func stepPair(t testing.TB, p [2]*Machine, tag string) {
	t.Helper()
	evB, evI := p[0].Step(), p[1].Step()
	if evB != evI {
		t.Fatalf("%s (step %d): event diverged: superblock=%v interp=%v",
			tag, p[1].Stats.Steps, evB, evI)
	}
}

// comparePairCPU asserts register-level and architectural-stats
// agreement (cheap, used per batch).
func comparePairCPU(t testing.TB, p [2]*Machine, tag string) {
	t.Helper()
	if p[0].CPU != p[1].CPU {
		t.Fatalf("%s: CPU diverged:\nsuperblock: %+v\n    interp: %+v", tag, p[0].CPU, p[1].CPU)
	}
	if p[0].Stats.Arch() != p[1].Stats.Arch() {
		t.Fatalf("%s: stats diverged:\nsuperblock: %v\n    interp: %v", tag, p[0].Stats, p[1].Stats)
	}
}

// comparePair asserts full agreement including the memory image.
func comparePair(t testing.TB, p [2]*Machine, tag string) {
	t.Helper()
	comparePairCPU(t, p, tag)
	if !bytes.Equal(p[0].Bus.Snapshot(), p[1].Bus.Snapshot()) {
		t.Fatalf("%s: memory diverged", tag)
	}
}

// TestDecodeCacheStosbOverwritesCachedInstruction pins the classic
// stale-decode hazard with an exact program: an instruction is executed
// (and so decoded into a block), then the guest's own stosb overwrites
// it, then it is re-executed. The overwritten form must execute — an
// engine serving the stale decode would run the old instruction.
//
//	0: nop      ; executed first, decoded into a block
//	1: stosb    ; al=hlt -> es:di = cs:0, overwriting the nop
//	2: jmp 0    ; back to the (now rewritten) slot
func TestDecodeCacheStosbOverwritesCachedInstruction(t *testing.T) {
	p := newEnginePair(t, Options{ResetVector: SegOff{0x0100, 0}})
	code := []byte{byte(isa.OpNop), byte(isa.OpStosb), byte(isa.OpJmp), 0, 0}
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	for i, m := range p {
		m.CPU.R[isa.AX] = uint16(isa.OpHlt) // al = hlt
		m.CPU.R[isa.DI] = 0
		m.CPU.S[isa.ES] = 0x0100

		// nop, stosb, jmp, then the rewritten slot: it must be hlt.
		m.Run(4)
		if !m.CPU.Halted {
			t.Fatalf("%s: stale decode served: machine did not execute "+
				"the self-modified hlt (ip=%#x)", engineLabels[i], m.CPU.IP)
		}
	}
}

// TestDecodeCacheGuestStoreDifferential drives block-engine vs
// interpreter machines through byte soup that is dense in store instructions, with
// registers repeatedly pointed back at the code region so guest stores
// (StoreByte and StoreWord paths, not just Poke) land on executed
// instructions.
func TestDecodeCacheGuestStoreDifferential(t *testing.T) {
	storeOps := []isa.Op{isa.OpStosb, isa.OpMovsb, isa.OpRepMovsb, isa.OpMovMR, isa.OpMovMI}
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 30; trial++ {
		p := newEnginePair(t, Options{ResetVector: SegOff{0x0100, 0}})
		// Code soup biased toward stores, identical on both machines.
		for i := 0; i < 2048; i++ {
			var b byte
			if rng.Intn(3) == 0 {
				b = byte(storeOps[rng.Intn(len(storeOps))])
			} else {
				b = byte(rng.Intn(256))
			}
			a := 0x1000 + uint32(i)
			pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, b) })
		}
		for i := 0; i < 4000; i++ {
			if i%97 == 0 {
				// Re-aim the string/store registers at the code so the
				// soup keeps rewriting itself.
				seg, di, si := uint16(0x0100), uint16(rng.Intn(2048)), uint16(rng.Intn(2048))
				ax := uint16(rng.Intn(1 << 16))
				cx := uint16(rng.Intn(64))
				ip := uint16(rng.Intn(2048))
				for _, m := range p {
					m.CPU.S[isa.ES], m.CPU.S[isa.DS] = seg, seg
					m.CPU.R[isa.DI], m.CPU.R[isa.SI] = di, si
					m.CPU.R[isa.AX], m.CPU.R[isa.CX] = ax, cx
					m.CPU.S[isa.CS] = seg
					m.CPU.IP = ip
					m.CPU.Halted = false
				}
			}
			stepPair(t, p, "guest-store soup")
		}
		comparePair(t, p, "guest-store soup/final")
	}
}
