package machine

import (
	"bytes"
	"math/rand"
	"testing"

	"ssos/internal/asm"
	"ssos/internal/isa"
	"ssos/internal/mem"
)

// TestRandomProgramsNeverWedgeTheStepper feeds the machine fully random
// byte soup as code under every exception policy and checks the
// substrate invariants the self-stabilization results rest on: Step
// stays total (exact step accounting), ROM stays immutable, and the
// machine never panics — whatever the "program".
func TestRandomProgramsNeverWedgeTheStepper(t *testing.T) {
	romImage := make([]byte, 256)
	for i := range romImage {
		romImage[i] = byte(isa.OpNop)
	}
	romImage[0] = byte(isa.OpIret)

	policies := []ExceptionPolicy{ExceptionHalt, ExceptionVector, ExceptionIDT}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		bus := mem.NewBus()
		bus.SetROMWritePolicy(mem.ROMWriteFault)
		if _, err := bus.AddROM("rom", 0xF0000, romImage); err != nil {
			t.Fatal(err)
		}
		m := New(bus, Options{
			ResetVector:        SegOff{0x0100, 0},
			NMICounter:         trial%2 == 0,
			HardwiredNMIVector: trial%3 == 0,
			NMIVector:          SegOff{0xF000, 0},
			ExceptionPolicy:    policies[trial%len(policies)],
			ExceptionVector:    SegOff{0xF000, 0},
			MemoryProtection:   trial%5 == 0,
		})
		// Random code everywhere the PC might land.
		for i := 0; i < 4096; i++ {
			bus.PokeRAM(uint32(rng.Intn(mem.AddrSpace)), byte(rng.Intn(256)))
		}
		m.CPU.IP = uint16(rng.Intn(1 << 16))
		m.CPU.S[isa.CS] = uint16(rng.Intn(1 << 16))
		m.CPU.S[isa.SS] = uint16(rng.Intn(1 << 16))
		m.CPU.R[isa.SP] = uint16(rng.Intn(1 << 16))
		m.CPU.Flags = isa.Flags(rng.Intn(1 << 16))
		if rng.Intn(2) == 0 {
			m.RaiseNMI()
		}
		const steps = 2000
		m.Run(steps)
		if m.Stats.Steps != steps {
			t.Fatalf("trial %d: step accounting broke: %d", trial, m.Stats.Steps)
		}
		for i, b := range romImage {
			if bus.Peek(0xF0000+uint32(i)) != b {
				t.Fatalf("trial %d: ROM byte %d changed", trial, i)
			}
		}
	}
}

// FuzzDecodeCacheDifferential drives a block-engine and an interpreter
// machine in lockstep, one Step at a time, from a fuzz-chosen byte
// program: interleaved guest steps, direct bus stores, PokeRAM fault
// injections and CPU corruptions, all applied identically to both. The
// block engine must never serve a stale instruction, so the two
// machines must agree on every event and end architecturally
// bit-identical.
func FuzzDecodeCacheDifferential(f *testing.F) {
	// Seeds: plain stepping, self-modifying stosb soup, store-then-step
	// interleavings, and fault-heavy schedules.
	f.Add([]byte{1, 40, 1, 40})
	f.Add([]byte{0, 0x10, 0x02, byte(isa.OpHlt), 1, 8, 0, 0x11, 0x02, byte(isa.OpStosb), 1, 8})
	f.Add([]byte{2, 0x00, 0x10, 1, 20, 3, 0x34, 0x12, 1, 20, 4, 1, 20, 6, 1, 20})
	f.Add(bytes.Repeat([]byte{0, 0xAB, 0x05, 0x62, 1, 3}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := newEnginePair(t, Options{
			ResetVector:     SegOff{0x0100, 0},
			NMICounter:      true,
			ExceptionPolicy: ExceptionVector,
			ExceptionVector: SegOff{0xF000, 0},
		})
		// Deterministic pseudo-random background soup so short fuzz
		// inputs still execute something.
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1024; i++ {
			a := 0x1000 + uint32(i)
			v := byte(rng.Intn(256))
			pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, v) })
		}

		pop := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		steps := 0
		for steps < 50000 {
			op, ok := pop()
			if !ok {
				break
			}
			switch op % 7 {
			case 0: // poke a byte near the code region (fault injection)
				lo, _ := pop()
				hi, _ := pop()
				v, _ := pop()
				addr := 0x1000 + (uint32(hi)<<8|uint32(lo))&0x0FFF
				pairDo(p, func(m *Machine) { m.Bus.PokeRAM(addr, v) })
			case 1: // run a batch of steps, comparing events each step
				n, _ := pop()
				for i := 0; i < int(n%64)+1; i++ {
					stepPair(t, p, "fuzz")
					steps++
				}
			case 2: // corrupt IP
				lo, _ := pop()
				hi, _ := pop()
				v := uint16(hi)<<8 | uint16(lo)
				pairDo(p, func(m *Machine) { m.CPU.IP = v })
			case 3: // corrupt a register bank entry
				r, _ := pop()
				lo, _ := pop()
				v := uint16(lo) | uint16(r)<<8
				i := isa.Reg(r) % isa.NumRegs
				pairDo(p, func(m *Machine) { m.CPU.R[i] = v })
			case 4: // raise NMI on both
				pairDo(p, func(m *Machine) { m.RaiseNMI() })
			case 5: // direct word store via the bus (DMA-style)
				lo, _ := pop()
				hi, _ := pop()
				v, _ := pop()
				addr := 0x1000 + (uint32(hi)<<8|uint32(lo))&0x0FFF
				pairDo(p, func(m *Machine) { m.Bus.StoreWord(addr, uint16(v)|uint16(v)<<8) })
			case 6: // toggle halt latch
				v, _ := pop()
				h := v%2 == 0
				pairDo(p, func(m *Machine) { m.CPU.Halted = h })
			}
		}
		// Drain: a final burst so late mutations get executed.
		for i := 0; i < 256; i++ {
			stepPair(t, p, "fuzz drain")
		}
		comparePair(t, p, "fuzz final")
	})
}

// FuzzSuperblockDifferential is FuzzDecodeCacheDifferential with step
// batches driven through Run — the only path that exercises the turbo
// lane and block chaining — in fuzz-chosen sizes, so cursors are left
// mid-block across mutations. Batches run from 1 to 4096 steps, long
// enough for the lane's bulk rep movsb to matter. It shares that
// target's seed corpus, so every staleness schedule found there is
// replayed against the turbo lane too, and adds copies: rep movsb at
// 0100:0000 with si one byte below di (an overlapping forward copy),
// one whose destination runs into its own instruction bytes, and two
// forward copies of 2560 bytes across page boundaries, from poked
// source bytes, with the destination 272 bytes above the source (one
// page-sized chunk never overlaps its source) and 32 bytes above it
// (every chunk is clamped to the 32 bytes below it). It
// also adds slot-padded code at 0100:0000, each instruction followed by
// nops (zero bytes) up to the next 16-byte boundary as in the paper's
// §5.2 layout, with batches that end inside the padding and ip moved
// into it, so the lane's bulk nop runs are on the fuzzer's path from
// the first input.
//
// Both machines carry a countdown ticker that raises NMI, registered
// disarmed: its first fire lies beyond any input's steps. Op bytes from
// 0xF0 up arm it with a fuzz-chosen period (0xF0–0xF7) or load the NMI
// counter (0xF8–0xFF); every other op byte is read % 7 as before, so
// the seeds above keep their meaning. With the watchdog armed, batches
// reach the quiet-tick budget, and the lane's dead-time paths are on
// the fuzzer's path too: one seed each for a nop sled cut by watchdog
// NMIs, a halted wait the counter stretches past the fire, and code
// under a held NMI whose own iret releases it.
func FuzzSuperblockDifferential(f *testing.F) {
	f.Add([]byte{1, 40, 1, 40})
	f.Add([]byte{0, 0x10, 0x02, byte(isa.OpHlt), 1, 8, 0, 0x11, 0x02, byte(isa.OpStosb), 1, 8})
	f.Add([]byte{2, 0x00, 0x10, 1, 20, 3, 0x34, 0x12, 1, 20, 4, 1, 20, 6, 1, 20})
	f.Add(bytes.Repeat([]byte{0, 0xAB, 0x05, 0x62, 1, 3}, 24))
	// Register writes load reg%8 with lo | reg<<8, so reg 0x0A is cx =
	// 0x0Axx, 0x0C is si = 0x0Cxx and 0x0D is di = 0x0Dxx (ds = es = 0).
	repMovsb := []byte{0, 0x00, 0x00, byte(isa.OpRepMovsb)} // at 0100:0000
	f.Add(append(append([]byte{}, repMovsb...),
		3, 0x0A, 0x00, 3, 0x0C, 0xFF, 3, 0x0D, 0x00, 2, 0x00, 0x00, 1, 0xFF, 1, 0xC8))
	f.Add(append(append([]byte{}, repMovsb...),
		3, 0x0A, 0x80, 3, 0x0C, 0x00, 3, 0x0D, 0xF0, 2, 0x00, 0x00, 1, 0xF0, 1, 0x05))
	// cx = 0x0A00 and di = 0x1510, with si = 0x1400 (reg 0x14) and then
	// si = 0x14F0; the pokes put non-zero bytes in the source's first
	// page, and the batches end inside the copy three times.
	f.Add(append(append([]byte{}, repMovsb...),
		0, 0x00, 0x04, 0x5A, 0, 0x01, 0x04, 0xC3, 0, 0x07, 0x04, 0x11, 0, 0xFF, 0x04, 0x77,
		3, 0x0A, 0x00, 3, 0x14, 0x00, 3, 0x15, 0x10, 2, 0x00, 0x00, 1, 0xC8, 1, 0x20, 1, 0xD0, 1, 0xFF))
	f.Add(append(append([]byte{}, repMovsb...),
		0, 0xF0, 0x04, 0x5A, 0, 0xF1, 0x04, 0xC3, 0, 0xFE, 0x04, 0x11, 0, 0x0F, 0x05, 0x77,
		3, 0x0A, 0x00, 3, 0x14, 0xF0, 3, 0x15, 0x10, 2, 0x00, 0x00, 1, 0xC8, 1, 0x05, 1, 0xD0, 1, 0xFF))
	// Slot-padded code poked over the soup: inc ax; mov word
	// [cs:0x17], si (into its own slot's padding); inc bx; jmp 0. With
	// si = 0x0425 the store writes inc si there, which turns it into
	// dec si and back on alternate passes. Batches of 1 + n%64 steps
	// end on the first instruction, 5 and 12 nops into its padding, on
	// the slot's last nop and one past it; the second seed starts ip
	// mid-padding, twice.
	padded := asm.MustAssemble(`
%pad on
	inc ax
	mov word [cs:0x17], si
	inc bx
	jmp 0
`)
	var pokes []byte
	for i, b := range padded.Code {
		pokes = append(pokes, 0, byte(i), 0, b)
	}
	pokes = append(pokes, 3, 0x04, 0x25) // si = 0x0425
	f.Add(append(append([]byte{}, pokes...),
		2, 0x00, 0x00, 1, 0x00, 1, 0x04, 1, 0x06, 1, 0x01, 1, 0x00, 1, 0xC3))
	f.Add(append(append([]byte{}, pokes...),
		2, 0x07, 0x00, 1, 0x02, 1, 0x10, 1, 0x0E, 1, 0x3F, 2, 0x19, 0x00, 1, 0x05, 1, 0xFF))
	// Dead time. Arming takes period−1 as two bytes, lo first; the NMI
	// goes through IDT entry 2, which points at 0000:0000, so each NMI
	// itself slides over zeros until the soup at 0000:1000. A sled:
	// watchdog every 1000 ticks, ip = 0x2000 (linear 0x3000, zeros up
	// to the wrap at 0xFFFF), batches of 4096.
	f.Add([]byte{0xF0, 0xE7, 0x03, 2, 0x00, 0x20, 1, 0xFF, 1, 0xFF, 1, 0xF0, 1, 0x10, 1, 0xFF})
	// A halted wait: watchdog every 500 ticks, the counter at 0x300,
	// halted, batches of 576, 6 and 4096.
	f.Add([]byte{0xF0, 0xF3, 0x01, 0xF8, 0x00, 0x03, 6, 0x00, 1, 0xC8, 1, 0x05, 1, 0xFF})
	// A held NMI: pushf; push cs; push word 0x10; iret at 0000:1000 and
	// jmp 0 at 0000:1010, watchdog every 200 ticks, an NMI latched
	// under a counter of 0x150, batches of 64, 256 and 4096.
	held := []byte{}
	for i, b := range asm.MustAssemble("pushf\npush cs\npush word 0x10\niret\ntimes 0x10-($-$$) db 0\njmp 0").Code {
		held = append(held, 0, byte(i), 0, b)
	}
	f.Add(append(held, 0xF0, 0xC7, 0x00, 4, 0xF8, 0x50, 0x01, 1, 0x3F, 1, 0xC3, 1, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := newEnginePair(t, Options{
			ResetVector:     SegOff{0x0100, 0},
			NMICounter:      true,
			ExceptionPolicy: ExceptionVector,
			ExceptionVector: SegOff{0xF000, 0},
		})
		var cd [2]*countdown
		for i, m := range p {
			cd[i] = &countdown{period: 1 << 31, counter: 1<<31 - 1}
			m.AddTicker(cd[i])
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1024; i++ {
			a := 0x1000 + uint32(i)
			v := byte(rng.Intn(256))
			pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, v) })
		}

		pop := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		steps := 0
		for steps < 50000 {
			op, ok := pop()
			if !ok {
				break
			}
			if op >= 0xF0 {
				lo, _ := pop()
				hi, _ := pop()
				v := uint16(hi)<<8 | uint16(lo)
				if op < 0xF8 { // arm the watchdog: an NMI every v+1 ticks
					for _, c := range cd {
						c.period, c.counter = uint32(v)+1, uint32(v)
					}
				} else { // load the NMI counter
					pairDo(p, func(m *Machine) { m.CPU.NMICounter = v })
				}
				continue
			}
			switch op % 7 {
			case 0: // poke a byte near the code region (fault injection)
				lo, _ := pop()
				hi, _ := pop()
				v, _ := pop()
				addr := 0x1000 + (uint32(hi)<<8|uint32(lo))&0x0FFF
				pairDo(p, func(m *Machine) { m.Bus.PokeRAM(addr, v) })
			case 1: // run a batch, comparing state at the boundary
				n, _ := pop()
				k := int(n%64) + 1
				if n >= 0xC0 {
					k = int(n-0xBF) * 64 // long batches: 64..4096 steps
				}
				pairDo(p, func(m *Machine) { m.Run(k) })
				steps += k
				comparePairCPU(t, p, "fuzz batch")
				if *cd[0] != *cd[1] {
					t.Fatalf("fuzz batch: ticker diverged: superblock %+v, interp %+v", *cd[0], *cd[1])
				}
			case 2: // corrupt IP
				lo, _ := pop()
				hi, _ := pop()
				v := uint16(hi)<<8 | uint16(lo)
				pairDo(p, func(m *Machine) { m.CPU.IP = v })
			case 3: // corrupt a register bank entry
				reg, _ := pop()
				lo, _ := pop()
				v := uint16(lo) | uint16(reg)<<8
				i := isa.Reg(reg) % isa.NumRegs
				pairDo(p, func(m *Machine) { m.CPU.R[i] = v })
			case 4: // raise NMI on both
				pairDo(p, func(m *Machine) { m.RaiseNMI() })
			case 5: // direct word store via the bus (DMA-style)
				lo, _ := pop()
				hi, _ := pop()
				v, _ := pop()
				addr := 0x1000 + (uint32(hi)<<8|uint32(lo))&0x0FFF
				pairDo(p, func(m *Machine) { m.Bus.StoreWord(addr, uint16(v)|uint16(v)<<8) })
			case 6: // toggle halt latch
				v, _ := pop()
				h := v%2 == 0
				pairDo(p, func(m *Machine) { m.CPU.Halted = h })
			}
		}
		// Drain: a final burst so late mutations get executed.
		pairDo(p, func(m *Machine) { m.Run(256) })
		comparePair(t, p, "fuzz final")
	})
}

// TestRandomFaultStormOnEveryApproachSubstrate hammers a single machine
// with interleaved random faults and steps; the stepper must keep
// exact accounting throughout.
func TestRandomFaultStormSubstrate(t *testing.T) {
	bus := mem.NewBus()
	if _, err := bus.AddROM("rom", 0xF0000, []byte{byte(isa.OpJmp), 0, 0}); err != nil {
		t.Fatal(err)
	}
	m := New(bus, Options{
		ResetVector:        SegOff{0xF000, 0},
		NMICounter:         true,
		HardwiredNMIVector: true,
		NMIVector:          SegOff{0xF000, 0},
		ExceptionPolicy:    ExceptionVector,
		ExceptionVector:    SegOff{0xF000, 0},
	})
	rng := rand.New(rand.NewSource(7))
	var want uint64
	for i := 0; i < 5000; i++ {
		switch rng.Intn(6) {
		case 0:
			m.CPU.IP = uint16(rng.Intn(1 << 16))
		case 1:
			m.CPU.S[isa.SReg(rng.Intn(int(isa.NumSRegs)))] = uint16(rng.Intn(1 << 16))
		case 2:
			m.CPU.NMICounter = uint16(rng.Intn(1 << 16))
		case 3:
			m.RaiseNMI()
		case 4:
			m.CPU.Halted = rng.Intn(2) == 0
		case 5:
			bus.PokeRAM(uint32(rng.Intn(mem.AddrSpace)), byte(rng.Intn(256)))
		}
		n := rng.Intn(50)
		m.Run(n)
		want += uint64(n)
		if m.Stats.Steps != want {
			t.Fatalf("accounting: %d != %d", m.Stats.Steps, want)
		}
	}
}
