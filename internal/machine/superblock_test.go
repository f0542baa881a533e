package machine

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"ssos/internal/asm"
	"ssos/internal/isa"
	"ssos/internal/mem"
)

// Run-driven differential suites for the superblock engine (harness in
// differential_test.go). Where the Step-driven suites advance machines
// one Step at a time, these drive them through Run in uneven batches —
// the only path that exercises the turbo lane, block chaining and the
// bail paths inside it.

// TestSuperblockRunDifferential drives both engines through Run in
// random batch sizes from randomized any-state starts, injecting
// identical faults between batches. Most trials carry a countdown
// ticker, so the turbo lane batches quiet ticks while the interpreter
// ticks every step; batch sizes often land just before, on or just past
// a fire, and faults corrupt the counter, out-of-range values included.
// Every batch boundary asserts CPU, stats and ticker agreement; every
// trial ends with a full memory compare.
func TestSuperblockRunDifferential(t *testing.T) {
	trials, batches := 12, 400
	if testing.Short() {
		trials, batches = 4, 120
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(777000 + trial)))
		p := newEnginePair(t, Options{
			ResetVector:        SegOff{0x0100, 0},
			NMICounter:         trial%2 == 0,
			HardwiredNMIVector: trial%3 == 0,
			NMIVector:          SegOff{0xF000, 0},
			ExceptionPolicy:    []ExceptionPolicy{ExceptionHalt, ExceptionVector, ExceptionIDT}[trial%3],
			ExceptionVector:    SegOff{0xF000, 0},
			MemoryProtection:   trial%5 == 0,
		})

		// Any-state start: identical random soup in RAM and a random
		// CPU configuration on both.
		for i := 0; i < 8192; i++ {
			a := uint32(rng.Intn(mem.AddrSpace))
			v := byte(rng.Intn(256))
			pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, v) })
		}
		cpu := p[0].CPU
		for i := range cpu.R {
			cpu.R[i] = uint16(rng.Intn(1 << 16))
		}
		for i := range cpu.S {
			cpu.S[i] = uint16(rng.Intn(1 << 16))
		}
		cpu.IP = uint16(rng.Intn(1 << 16))
		cpu.Flags = isa.Flags(rng.Intn(1 << 16))
		cpu.NMICounter = uint16(rng.Intn(1 << 16))
		pairDo(p, func(m *Machine) { m.CPU = cpu })

		var cd [2]*countdown
		if trial%4 != 3 {
			period := uint32(rng.Intn(300) + 1)
			for i, m := range p {
				cd[i] = &countdown{period: period, counter: period - 1}
				m.AddTicker(cd[i])
			}
		}

		for b := 0; b < batches; b++ {
			if rng.Intn(4) == 0 {
				// Identical fault between batches.
				faults := 6
				if cd[0] != nil {
					faults++
				}
				switch rng.Intn(faults) {
				case 0:
					a := uint32(rng.Intn(mem.AddrSpace))
					v := byte(rng.Intn(256))
					pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, v) })
				case 1: // aim at the live code stream
					a := (uint32(p[0].CPU.S[isa.CS])<<4 + uint32(p[0].CPU.IP) + uint32(rng.Intn(16))) & mem.AddrMask
					v := byte(rng.Intn(256))
					pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, v) })
				case 2:
					v := uint16(rng.Intn(1 << 16))
					pairDo(p, func(m *Machine) { m.CPU.IP = v })
				case 3:
					r := isa.SReg(rng.Intn(int(isa.NumSRegs)))
					v := uint16(rng.Intn(1 << 16))
					pairDo(p, func(m *Machine) { m.CPU.S[r] = v })
				case 4:
					pairDo(p, func(m *Machine) { m.RaiseNMI() })
				case 5:
					v := rng.Intn(2) == 0
					pairDo(p, func(m *Machine) { m.CPU.Halted = v })
				case 6: // corrupt the countdown, often out of range
					v := uint32(rng.Intn(int(2*cd[0].period) + 2))
					cd[0].counter, cd[1].counter = v, v
				}
			}
			n := rng.Intn(97) + 1
			if cd[0] != nil && rng.Intn(3) == 0 {
				// Straddle the next fire: stop one short of it, on it,
				// or one or two steps past it.
				n = max(int(cd[0].Quiet())+rng.Intn(4)-1, 1)
			}
			pairDo(p, func(m *Machine) { m.Run(n) })
			comparePairCPU(t, p, "trial batch")
			if cd[0] != nil && *cd[0] != *cd[1] {
				t.Fatalf("trial %d batch %d: ticker diverged: superblock %+v, interp %+v",
					trial, b, *cd[0], *cd[1])
			}
		}
		comparePair(t, p, "trial final")
	}
}

// tickerPort registers its ticker on the third write to its port,
// recording the step that did it: a block-final port executor adding a
// clock device in the middle of a turbo batch, once the blocks around
// it are built and chained.
type tickerPort struct {
	m      *Machine
	t      *countdown
	writes int
	at     uint64
}

func (p *tickerPort) In(uint16) uint16 { return 0 }

func (p *tickerPort) Out(uint16, uint16) {
	if p.writes++; p.writes == 3 {
		p.at = p.m.Stats.Steps
		p.m.AddTicker(p.t)
	}
}

// TestSuperblockTickerRegisteredMidRun pins mid-batch ticker
// registration on both engines, with and without a ticker already
// registered: the new ticker's first tick lands on the step after the
// out that registered it — so it must receive neither the registering
// step's tick nor any tick the batch skipped before it existed — and
// from then on it ticks every step. The loop's blocks are chained by
// the third pass, so only the lane's block-boundary check can end the
// batch at the registration.
//
//	 0: mov ax, 7
//	 4: inc bx
//	 6: out 0x42, ax   ; the third write registers the ticker
//	 8: inc cx
//	10: nop
//	11: jmp 4
func TestSuperblockTickerRegisteredMidRun(t *testing.T) {
	code := prog(
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 7},
		isa.Inst{Op: isa.OpIncR, R1: r(isa.BX)},
		isa.Inst{Op: isa.OpOutI, Imm: 0x42},
		isa.Inst{Op: isa.OpIncR, R1: r(isa.CX)},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpJmp, Imm: 4},
	)
	if len(code) != 14 {
		t.Fatalf("encoding drifted: len=%d, fix the jump target", len(code))
	}
	for _, withTicker := range []bool{false, true} {
		p := newEnginePair(t, Options{ResetVector: SegOff{0x0100, 0}})
		var old [2]*countdown
		var ports [2]*tickerPort
		for i, m := range p {
			for j, b := range code {
				m.Bus.PokeRAM(0x1000+uint32(j), b)
			}
			if withTicker {
				old[i] = &countdown{period: 1000, counter: 999}
				m.AddTicker(old[i])
			}
			ports[i] = &tickerPort{m: m, t: &countdown{period: 5000, counter: 4999}}
			m.MapPort(0x42, ports[i])
			m.Run(1)   // enter the first block through Step
			m.Run(500) // the out retires inside the turbo batch
		}
		for i, m := range p {
			tag := engineLabels[i]
			if ports[i].at != 13 {
				t.Fatalf("%s: ticker registered at step %d, want 13", tag, ports[i].at)
			}
			if got, want := ports[i].t.ticks, m.Stats.Steps-ports[i].at; got != want {
				t.Fatalf("%s (ticker before: %v): new ticker got %d ticks over the %d steps after its registration",
					tag, withTicker, got, want)
			}
			if withTicker && old[i].ticks != m.Stats.Steps {
				t.Fatalf("%s: existing ticker got %d ticks over %d steps", tag, old[i].ticks, m.Stats.Steps)
			}
		}
		if *ports[0].t != *ports[1].t || (withTicker && *old[0] != *old[1]) {
			t.Fatalf("tickers diverged: new %+v vs %+v, old %+v vs %+v",
				*ports[0].t, *ports[1].t, old[0], old[1])
		}
		comparePair(t, p, "mid-run registration")
	}
}

// TestSuperblockNegativeSuccessorHint pins a chaining hazard in the
// turbo lane. Block A's succ hint names block B. A fault then makes B's
// head undecodable, and sbBuild rebuilds B's table slot in place as a
// negative block with the same head, so the hint still matches (lin, ip)
// and its span is fresh. Only the positive-block check keeps the lane
// from running entry 0 of an empty block (an index-out-of-range panic).
//
//	0100:0000  nop; nop; jmp 0x200
//	0100:0200  nop; nop; jmp 0      ; head later overwritten with 0xFF
func TestSuperblockNegativeSuccessorHint(t *testing.T) {
	p := newEnginePair(t, Options{
		ResetVector:     SegOff{0x0100, 0},
		ExceptionPolicy: ExceptionVector,
		ExceptionVector: SegOff{0x0100, 0},
	})
	blockA := prog(isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpJmp, Imm: 0x200})
	blockB := prog(isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpJmp, Imm: 0})
	pairDo(p, func(m *Machine) {
		for i, b := range blockA {
			m.Bus.PokeRAM(0x1000+uint32(i), b)
		}
		for i, b := range blockB {
			m.Bus.PokeRAM(0x1200+uint32(i), b)
		}
		m.Run(1000)
		m.Bus.PokeRAM(0x1200, 0xFF)
		m.Run(1000)
	})
	for i, m := range p {
		if m.Stats.Exceptions == 0 {
			t.Fatalf("%s: the undecodable head never raised", engineLabels[i])
		}
	}
	comparePair(t, p, "negative successor")
}

// TestSuperblockSelfModifyingStoreInsideBlock pins the hardest
// staleness case for the batched engine with an exact program: a store
// INSIDE the currently executing superblock overwrites a later entry of
// that same block. The block was decoded before the store ran, so an
// engine that skipped revalidation between entries would execute the
// stale nop; the write stamp must force a bail and the freshly written
// hlt must execute. Straight-line code, so all instructions share one
// block; the leading nop is entered through Step, so the store and the
// stale slot run back to back inside the turbo lane's continuation:
//
//	0: nop
//	1: mov word [ds:7], hlt|hlt<<8  ; overwrites entries at offsets 7,8
//	7: nop                          ; stale: now hlt
//	8: nop                          ; stale: now hlt
//	9: nop
func TestSuperblockSelfModifyingStoreInsideBlock(t *testing.T) {
	hlt := uint16(isa.OpHlt) | uint16(isa.OpHlt)<<8
	code := prog(
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpMovMI, Mem: isa.MemOp{Seg: isa.DS, Disp: 7}, Imm: hlt},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpNop},
	)
	if len(code) != 10 {
		t.Fatalf("encoding drifted: len=%d, fix the store target", len(code))
	}
	p := newEnginePair(t, Options{ResetVector: SegOff{0x0100, 0}})
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(p, func(m *Machine) {
		m.CPU.S[isa.DS] = 0x0100
		m.Run(3) // nop, mov (store into own block), then the stale slot
	})
	for i, m := range p {
		if !m.CPU.Halted {
			t.Fatalf("%s: stale block entry served: self-modified hlt "+
				"did not execute (ip=%#x)", engineLabels[i], m.CPU.IP)
		}
		if m.Stats.Steps != 3 || m.Stats.Instrs != 3 {
			t.Fatalf("%s: accounting: %v", engineLabels[i], m.Stats)
		}
	}
	comparePair(t, p, "in-block self-modify")
}

// TestSuperblockNegativeDecodeRevalidates pins the negative-caching
// regression for the engine's negative blocks, which memoize "these
// bytes do not decode". A machine parked on an invalid opcode raises (and caches the verdict);
// after the byte is overwritten with a valid instruction, the very next
// step must execute it — a stale negative verdict would raise again.
func TestSuperblockNegativeDecodeRevalidates(t *testing.T) {
	p := newEnginePair(t, Options{
		ResetVector:     SegOff{0x0100, 0},
		ExceptionPolicy: ExceptionHalt,
	})
	const invalid = 0xFF // no opcode is defined at 0xFF
	if isa.InstLen(invalid) != 0 {
		t.Fatal("0xFF unexpectedly decodes; pick another invalid byte")
	}
	pairDo(p, func(m *Machine) { m.Bus.PokeRAM(0x1000, invalid) })

	// Two steps on the invalid byte: raise, halt, raise again after
	// unhalting — the second raise is served from the negative cache.
	pairDo(p, func(m *Machine) {
		m.Run(1)
		m.CPU.Halted = false
		m.Run(1)
		m.CPU.Halted = false
	})
	for i, m := range p {
		if m.Stats.Exceptions != 2 {
			t.Fatalf("%s: exceptions = %d, want 2", engineLabels[i], m.Stats.Exceptions)
		}
	}

	// Overwrite with a valid instruction; the cached negative verdict is
	// now stale and must not be served.
	mov := prog(isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0xBEEF})
	for i, b := range mov {
		a := 0x1000 + uint32(i)
		pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(p, func(m *Machine) { m.Run(1) })
	for i, m := range p {
		if m.Stats.Exceptions != 2 || m.CPU.R[isa.AX] != 0xBEEF {
			t.Fatalf("%s: stale negative decode served: exceptions=%d ax=%#x",
				engineLabels[i], m.Stats.Exceptions, m.CPU.R[isa.AX])
		}
	}
	comparePair(t, p, "negative revalidate")
}

// TestSuperblockTelemetryCounts sanity-checks the engine telemetry on a
// known workload: a straight-line run into a tight loop must retire
// every instruction through blocks, with zero bails, and the
// interpreter must report no block telemetry at all. Step runs blocks
// too, so a machine stepped one Step at a time under an AfterStep hook
// (the way fault windows and monitors drive it) still enters blocks.
func TestSuperblockTelemetryCounts(t *testing.T) {
	code := prog(
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0}, // 4 bytes
		isa.Inst{Op: isa.OpIncR, R1: r(isa.AX)},          // at offset 4
		isa.Inst{Op: isa.OpJmp, Imm: 4},                  // loop back to the inc
	)
	p := newEnginePair(t, Options{ResetVector: SegOff{0x0100, 0}})
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	pairDo(p, func(m *Machine) { m.Run(1000) })
	if s := p[0].Stats; s.BlockInstrs != 1000 || s.Blocks == 0 || s.BlockBails != 0 {
		t.Fatalf("superblock telemetry off: %v", s)
	}
	if s := p[1].Stats; s.Blocks != 0 || s.BlockInstrs != 0 || s.BlockBails != 0 {
		t.Fatalf("interp: phantom block telemetry: %v", s)
	}
	comparePair(t, p, "telemetry")

	hooked := 0
	pairDo(p, func(m *Machine) {
		m.AfterStep = func(*Machine, Event) { hooked++ }
		m.Stats = Stats{}
		m.Run(1000)
	})
	if hooked != 2000 {
		t.Fatalf("AfterStep ran %d times, want 2000", hooked)
	}
	if s := p[0].Stats; s.Blocks == 0 || s.BlockInstrs != 1000 {
		t.Fatalf("Step-driven superblock telemetry off: %v", s)
	}
	comparePair(t, p, "telemetry/hooked")
}

// TestSuperblockBailResumesInterpreter forces a mid-block bail through
// an asynchronous CPU corruption (ip rewritten between batches while
// the cursor is mid-block) and checks the engines stay in agreement —
// the bail itself is invisible architecturally.
func TestSuperblockBailResumesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	code := make([]byte, 0, 64)
	for i := 0; i < 12; i++ {
		code = append(code, prog(
			isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: uint16(i)},
			isa.Inst{Op: isa.OpIncR, R1: r(isa.BX)},
			isa.Inst{Op: isa.OpNop},
		)...)
	}
	code = append(code, prog(isa.Inst{Op: isa.OpJmp, Imm: 0})...)
	p := newEnginePair(t, Options{ResetVector: SegOff{0x0100, 0}})
	for i, b := range code {
		a := 0x1000 + uint32(i)
		pairDo(p, func(m *Machine) { m.Bus.PokeRAM(a, b) })
	}
	for i := 0; i < 500; i++ {
		n := rng.Intn(5) + 1 // short batches leave the cursor mid-block
		pairDo(p, func(m *Machine) { m.Run(n) })
		if rng.Intn(3) == 0 {
			ip := uint16(rng.Intn(len(code)))
			pairDo(p, func(m *Machine) { m.CPU.IP = ip })
		}
		comparePairCPU(t, p, "bail batch")
	}
	if p[0].Stats.BlockBails == 0 {
		t.Fatal("schedule never produced a mid-block bail; weaken the corruption odds")
	}
	comparePair(t, p, "bail final")
}

// TestSuperblockRepMovsbBulkDifferential holds the turbo lane's bulk
// rep movsb (repMovsbBulk) against the interpreter's one iteration per
// tick. Every case runs `rep movsb; hlt` at 0100:0000 through the same
// schedule of Run batches, many of which end inside the copy, and
// compares CPU, architectural stats, ROMWriteCount and ticker state at
// every batch boundary and the whole memory at the end. The cases cover
// each way an iteration can differ from the one before it: direction,
// overlap, 16-bit and 20-bit wrap, ROM under both policies, the
// memory-protection window's edges, a copy over its own instruction
// bytes, a watchdog fire and the NMI counter's floor mid-copy, and the
// cx values at the bulk loop's bounds. The chunks/ cases put an edge
// where the bulk loop cuts a chunk inside the copy: source and
// destination at different page offsets, a destination at a page's last
// byte, a source 255, 256 and 257 bytes below its destination, a
// backward copy over two page edges, ROM starting mid-word in the first
// and in a later bitmap word of a chunk, a window ending mid-page, and
// a source crossing the top of the address space.
func TestSuperblockRepMovsbBulkDifferential(t *testing.T) {
	code := prog(isa.Inst{Op: isa.OpRepMovsb}, isa.Inst{Op: isa.OpHlt})
	iret := prog(isa.Inst{Op: isa.OpIret})
	type regs struct{ ds, si, es, di, cx uint16 }
	// The default fill repeats every 256 bytes, so a copy from 256 bytes
	// below changes nothing; the overlap cases refill with a period of
	// 251 instead.
	mod251 := func(m *Machine) {
		for a := uint32(0x20000); a < 0x30000; a++ {
			m.Bus.PokeRAM(a, byte(a%251))
		}
	}
	cases := []struct {
		name   string
		r      regs
		df     bool
		rom    uint32 // a 16-byte ROM region here, when non-zero
		policy mem.ROMWritePolicy
		window uint16 // memory protection on, window at WP = window
		nmi    uint16 // NMI counter on, loaded with nmi
		ticker uint32 // countdown period raising the NMI, 0 = none
		setup  func(m *Machine)
		bulk   bool // the copy must retire in few block entries
	}{
		{name: "forward", r: regs{0x2000, 0, 0x3000, 0, 300}, bulk: true},
		{name: "backward", r: regs{0x2000, 0x3FF, 0x3000, 0x1FF, 300}, df: true, bulk: true},
		{name: "overlap/forward/dst above src", r: regs{0x2000, 0, 0x2000, 1, 200}, bulk: true},
		{name: "overlap/forward/dst below src", r: regs{0x2000, 1, 0x2000, 0, 200}},
		{name: "overlap/backward/dst above src", r: regs{0x2000, 0x200, 0x2000, 0x201, 200}, df: true},
		{name: "overlap/backward/dst below src", r: regs{0x2000, 0x201, 0x2000, 0x200, 200}, df: true},
		{name: "offset wrap", r: regs{0x2000, 0xFFF0, 0x3000, 0xFFF8, 64}},
		{name: "offset wrap/backward", r: regs{0x2000, 0x8, 0x3000, 0x4, 64}, df: true},
		{name: "linear wrap", r: regs{0xFFFF, 0x8, 0xFFFF, 0, 64}},
		{name: "rom/ignore", r: regs{0x2000, 0, 0x3000, 0x70, 64}, rom: 0x30080, policy: mem.ROMWriteIgnore},
		{name: "rom/fault", r: regs{0x2000, 0, 0x3000, 0x70, 64}, rom: 0x30080, policy: mem.ROMWriteFault},
		{name: "rom/fault/backward", r: regs{0x2000, 0x80, 0x3000, 0xA0, 64}, df: true, rom: 0x30080, policy: mem.ROMWriteFault},
		{name: "window/inside", r: regs{0x2000, 0, 0x3000, 0x100, 300}, window: 0x3000, bulk: true},
		{name: "window/last byte", r: regs{0x2000, 0, 0x3000, 0xFF0, 32}, window: 0x3000},
		{name: "window/below base", r: regs{0x2000, 0x20, 0x3000, 0x10, 32}, df: true, window: 0x3000},
		{
			// Iteration 9 overwrites the rep movsb byte itself with a
			// nop: the next tick must run the nop, then the hlt.
			name: "own bytes/changed", r: regs{0x2000, 0x8000, 0x00FF, 0x8, 20},
			setup: func(m *Machine) {
				for i := uint32(0); i < 20; i++ {
					m.Bus.PokeRAM(0x28000+i, byte(isa.OpNop))
				}
			},
		},
		{name: "own bytes/unchanged in place", r: regs{0x0100, 0, 0x0100, 0, 600}},
		{
			name: "own bytes/unchanged from a copy", r: regs{0x2000, 0x9000, 0x0100, 0, 600},
			setup: func(m *Machine) {
				for i := uint32(0); i < 600; i++ {
					m.Bus.PokeRAM(0x29000+i, m.Bus.Peek(0x1000+i))
				}
			},
		},
		{name: "watchdog fires mid-copy", r: regs{0x2000, 0, 0x3000, 0, 500}, nmi: 1, ticker: 37},
		{name: "nmi counter reaches zero", r: regs{0x2000, 0, 0x3000, 0, 100}, nmi: 25, bulk: true},
		{name: "cx=0", r: regs{0x2000, 0, 0x3000, 0, 0}},
		{name: "cx=1", r: regs{0x2000, 0, 0x3000, 0, 1}},
		{name: "cx=2", r: regs{0x2000, 0, 0x3000, 0, 2}},
		{name: "cx=0xFFFF", r: regs{0x2000, 0, 0x4000, 0, 0xFFFF}, bulk: true},
		{name: "chunks/page offsets differ", r: regs{0x2000, 0x0F3, 0x3000, 0x0A1, 3000}, bulk: true},
		{name: "chunks/dst at offset 0xFF", r: regs{0x2000, 0x010, 0x3000, 0x0FF, 300}, bulk: true},
		// The first bulk chunk (batch 3) starts at 0x0FFF, the byte below
		// the copy's own page: it must stop there.
		{name: "chunks/dst at offset 0xFF below own page", r: regs{0x2000, 0x010, 0x00F0, 0x0FD, 300}},
		{name: "chunks/dst 255 above src", r: regs{0x2000, 0x100, 0x2000, 0x1FF, 3000}, setup: mod251, bulk: true},
		{name: "chunks/dst 256 above src", r: regs{0x2000, 0x100, 0x2000, 0x200, 3000}, setup: mod251, bulk: true},
		{name: "chunks/dst 257 above src", r: regs{0x2000, 0x100, 0x2000, 0x201, 3000}, setup: mod251, bulk: true},
		{name: "chunks/backward over two pages", r: regs{0x2000, 0x3FF, 0x3000, 0x2FF, 600}, df: true, bulk: true},
		{name: "chunks/rom mid-word in the first word", r: regs{0x2000, 0, 0x3000, 0x81, 64}, rom: 0x300A5, policy: mem.ROMWriteFault},
		{name: "chunks/rom mid-word in a later word", r: regs{0x2000, 0, 0x3000, 0x10, 300}, rom: 0x300A5, policy: mem.ROMWriteIgnore},
		{name: "chunks/window ends mid-page", r: regs{0x2000, 0, 0x3000, 0xF80, 400}, window: 0x3008},
		{
			name: "chunks/src crosses the top", r: regs{0xFFFF, 0x0, 0x3000, 0x8, 64},
			setup: func(m *Machine) {
				// The top 256 bytes and, wrapping, the bottom 256.
				for a := uint32(0xFFF00); a < 0x100100; a++ {
					m.Bus.PokeRAM(a, byte(a*37+11))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				ResetVector:        SegOff{0x0100, 0},
				ExceptionPolicy:    ExceptionVector,
				ExceptionVector:    SegOff{0xF000, 0},
				HardwiredNMIVector: true,
				NMIVector:          SegOff{0x0100, 0x40},
				NMICounter:         tc.nmi != 0,
				NMICounterMax:      8,
				MemoryProtection:   tc.window != 0,
			}
			p := newEnginePair(t, opts)
			var cd [2]*countdown
			for i, m := range p {
				if tc.rom != 0 {
					if _, err := m.Bus.AddROM("dst", tc.rom, make([]byte, 16)); err != nil {
						t.Fatal(err)
					}
				}
				m.Bus.SetROMWritePolicy(tc.policy)
				for a := uint32(0x20000); a < 0x30000; a++ {
					m.Bus.PokeRAM(a, byte(a*37+11))
				}
				for j, b := range code {
					m.Bus.PokeRAM(0x1000+uint32(j), b)
				}
				for j, b := range iret {
					m.Bus.PokeRAM(0x1040+uint32(j), b)
				}
				if tc.setup != nil {
					tc.setup(m)
				}
				c := &m.CPU
				c.S[isa.DS], c.R[isa.SI] = tc.r.ds, tc.r.si
				c.S[isa.ES], c.R[isa.DI] = tc.r.es, tc.r.di
				c.R[isa.CX] = tc.r.cx
				c.S[isa.SS], c.R[isa.SP] = 0x5000, 0x1000
				c.NMICounter = tc.nmi
				if tc.df {
					c.Flags = c.Flags.With(isa.FlagDF)
				}
				if tc.window != 0 {
					c.WP = tc.window
					c.Flags = c.Flags.With(isa.FlagWP)
				}
				if tc.ticker != 0 {
					cd[i] = &countdown{period: tc.ticker, counter: tc.ticker - 1}
					m.AddTicker(cd[i])
				}
			}
			// Batches that end inside the copy, then the rest of it.
			batches := []int{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987}
			batches = append(batches, int(tc.r.cx)+64)
			for b, n := range batches {
				pairDo(p, func(m *Machine) { m.Run(n) })
				tag := fmt.Sprintf("batch %d (+%d)", b, n)
				comparePairCPU(t, p, tag)
				if p[0].Bus.ROMWriteCount != p[1].Bus.ROMWriteCount {
					t.Fatalf("%s: ROMWriteCount diverged: superblock %d, interp %d",
						tag, p[0].Bus.ROMWriteCount, p[1].Bus.ROMWriteCount)
				}
				if cd[0] != nil && *cd[0] != *cd[1] {
					t.Fatalf("%s: ticker diverged: superblock %+v, interp %+v", tag, *cd[0], *cd[1])
				}
			}
			comparePair(t, p, "final")
			if tc.bulk && p[0].Stats.Blocks*8 > uint64(tc.r.cx) {
				t.Fatalf("copy of %d bytes took %d block entries: the bulk loop did not run",
					tc.r.cx, p[0].Stats.Blocks)
			}
		})
	}
}

// TestSuperblockSilentRefreshKeepsBlocksValid pins silent stores at the
// machine level with a Figure 1 style refresh: a refresher running from
// ROM reinstalls the OS in RAM from its ROM image. As in every shipped
// design, whose copies run in ROM handlers, the block doing the copy is
// not the block it refreshes.
//
//	0100:0000 (RAM, the OS)  X: inc bx          ; the image may hold inc dx
//	                            jmp 3000:0400
//	                            data to 0100:02FF
//	3000:0000 (ROM)             the OS image
//	3000:0400 (ROM)             ds = 0x3000, es = 0x0100, si = di = 0,
//	                            cx = image size, cld
//	                            rep movsb       ; 3000:0000 -> 0100:0000
//	                            jmp 0100:0000
//
// When the image equals RAM, as in every legal execution, the copy
// changes nothing: the OS block's span generations are unchanged
// afterwards, so the block is still valid and is not rebuilt. When the
// image differs, the very next OS instruction is the new one.
func TestSuperblockSilentRefreshKeepsBlocksValid(t *testing.T) {
	const size = 0x300
	image := func(x isa.Reg) []byte {
		img := prog(
			isa.Inst{Op: isa.OpIncR, R1: r(x)},
			isa.Inst{Op: isa.OpJmpFar, Imm: 0x3000, Imm2: 0x0400},
		)
		for i := len(img); i < size; i++ {
			img = append(img, byte(i*37+11))
		}
		return img
	}
	refresher := prog(
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0x3000},
		isa.Inst{Op: isa.OpMovSR, R1: uint8(isa.DS), R2: r(isa.AX)},
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.AX), Imm: 0x0100},
		isa.Inst{Op: isa.OpMovSR, R1: uint8(isa.ES), R2: r(isa.AX)},
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.SI), Imm: 0},
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.DI), Imm: 0},
		isa.Inst{Op: isa.OpMovRI, R1: r(isa.CX), Imm: size},
		isa.Inst{Op: isa.OpCld},
		isa.Inst{Op: isa.OpRepMovsb},
		isa.Inst{Op: isa.OpJmpFar, Imm: 0x0100, Imm2: 0},
	)
	ram := image(isa.BX)
	for _, changed := range []bool{false, true} {
		rom := ram
		if changed {
			rom = image(isa.DX)
		}
		rom = append(append(append([]byte{}, rom...), make([]byte, 0x400-size)...), refresher...)
		p := newEnginePair(t, Options{ResetVector: SegOff{0x0100, 0}})
		for _, m := range p {
			if _, err := m.Bus.AddROM("os", 0x30000, rom); err != nil {
				t.Fatal(err)
			}
			for i, b := range ram {
				m.Bus.PokeRAM(0x1000+uint32(i), b)
			}
		}
		pairDo(p, func(m *Machine) { m.Run(2) }) // X, into the refresher
		blk := p[0].sbLookup(0x1000, 0)
		if blk == nil {
			t.Fatal("no block over the OS code")
		}
		gens := blk.gens
		pairDo(p, func(m *Machine) { m.Run(8) })    // up to the rep movsb
		pairDo(p, func(m *Machine) { m.Run(size) }) // the copy
		pairDo(p, func(m *Machine) { m.Run(1) })    // back to X
		comparePairCPU(t, p, "after the copy")
		if p[0].CPU.S[isa.CS] != 0x0100 || p[0].CPU.IP != 0 {
			t.Fatalf("after the refresh: at %v, want 0100:0000", p[0].CPU.PC())
		}
		fresh := true
		for i := uint8(0); i < blk.npages; i++ {
			fresh = fresh && p[0].Bus.PageGen(blk.pages[i]<<mem.PageShift) == gens[i]
		}
		if fresh == changed {
			t.Fatalf("changed image %v: OS block valid = %v after the copy", changed, fresh)
		}
		pairDo(p, func(m *Machine) { m.Run(1) }) // X
		if bx, dx := p[0].CPU.R[isa.BX], p[0].CPU.R[isa.DX]; changed && (bx != 1 || dx != 1) ||
			!changed && (bx != 2 || dx != 0) {
			t.Fatalf("changed image %v: X ran as bx=%d dx=%d", changed, bx, dx)
		}
		if rebuilt := blk.gens != gens; rebuilt != changed {
			t.Fatalf("changed image %v: OS block rebuilt = %v", changed, rebuilt)
		}
		comparePair(t, p, "after X")
	}
}

// TestSuperblockEntrySize pins sbEntry at 32 bytes on 64-bit hosts:
// the nop-run fields sit in what was its tail padding, so recording
// them grows no block.
func TestSuperblockEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(sbEntry{}); n != 32 {
		t.Fatalf("sbEntry is %d bytes, want 32", n)
	}
}

// nopRunSrc is slot-padded code (%pad on, the paper's §5.2 layout) for
// TestSuperblockNopRunDifferential, assembled at 0100:0000: runs of
// nops of several lengths, a store that turns a later nop of its own
// run into inc ax and back, a 40-nop run wider than a block, and an NMI
// handler that returns into whatever run the NMI interrupted.
const nopRunSrc = `
patch equ 0x18
%pad on
top:
	mov bx, 0x1234          ; 0x00: the 12-nop run is 0x04..0x0F
	mov word [cs:patch], dx ; 0x10: a later nop of this slot's run
	xor dx, si              ; 0x20: dx toggles between inc ax (si) and 0
	inc cx                  ; 0x30
%pad off
long:
	times 40 db 0           ; 0x40: 40 nops, more than a block holds
%pad on
	jmp top                 ; 0x68
handler:
	inc bp                  ; 0x70
	iret                    ; 0x80
`

// TestSuperblockNopRunDifferential holds the turbo lane's bulk nop runs
// against the interpreter's one nop per tick on slot-padded code. Each
// case drives an engine pair through Run batches and compares the CPU
// and architectural stats at every batch boundary, and the memory at
// the end. The cases cover each way a run can end early or differ from
// the decoded block: a batch budget ending at every offset of a 12-nop
// run, on its last nop and one past it; the NMI counter's floor inside
// a run; a quiet ticker whose fire lands inside a run (the NMI returns
// there); a store earlier in the block rewriting a later nop of the
// run; ip moved into a run between batches; and a run wider than
// sbMaxLen, so it spans blocks.
func TestSuperblockNopRunDifferential(t *testing.T) {
	prg, err := asm.Assemble(nopRunSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prg.MustSymbol("long") != 0x40 || prg.MustSymbol("handler") != 0x70 || len(prg.Code) != 0x90 {
		t.Fatalf("layout drifted: long=%#x handler=%#x len=%#x, fix the offsets",
			prg.MustSymbol("long"), prg.MustSymbol("handler"), len(prg.Code))
	}
	incAX := uint16(isa.OpIncR) | uint16(isa.AX)<<8
	newPair := func(t *testing.T) [2]*Machine {
		p := newEnginePair(t, Options{
			ResetVector:        SegOff{0x0100, 0},
			NMICounter:         true,
			NMICounterMax:      8,
			HardwiredNMIVector: true,
			NMIVector:          SegOff{0x0100, prg.MustSymbol("handler")},
		})
		pairDo(p, func(m *Machine) {
			for i, b := range prg.Code {
				m.Bus.PokeRAM(0x1000+uint32(i), b)
			}
			m.CPU.R[isa.SI], m.CPU.R[isa.DX] = incAX, incAX
			m.CPU.S[isa.SS], m.CPU.R[isa.SP] = 0x5000, 0x1000
		})
		return p
	}
	// run drives both engines through the batch sizes, comparing at
	// every boundary.
	run := func(t *testing.T, p [2]*Machine, batches ...int) {
		t.Helper()
		for b, n := range batches {
			pairDo(p, func(m *Machine) { m.Run(n) })
			comparePairCPU(t, p, fmt.Sprintf("batch %d (+%d)", b, n))
		}
	}
	setIP := func(p [2]*Machine, ip uint16) { pairDo(p, func(m *Machine) { m.CPU.IP = ip }) }

	t.Run("batch ends", func(t *testing.T) {
		for _, warm := range []int{0, 700} {
			p := newPair(t)
			run(t, p, warm)
			for j := 0; j <= 13; j++ {
				// mov bx, then j of the run's 12 nops; 12 ends on the
				// last nop, 13 one past it.
				setIP(p, 0)
				run(t, p, 1, j, 1, 29, 101)
			}
			comparePair(t, p, "final")
		}
	})

	t.Run("nmi counter", func(t *testing.T) {
		p := newPair(t)
		for _, v := range []uint16{0, 1, 5, 4095} {
			for _, j := range []int{1, 5, 11, 12, 13, 40} {
				setIP(p, 0)
				run(t, p, 1)
				pairDo(p, func(m *Machine) { m.CPU.NMICounter = v })
				run(t, p, j)
			}
		}
		comparePair(t, p, "final")
	})

	t.Run("quiet ticker", func(t *testing.T) {
		for _, period := range []uint32{3, 7, 13, 29, 37} {
			p := newPair(t)
			var cd [2]*countdown
			for i, m := range p {
				cd[i] = &countdown{period: period, counter: period - 1}
				m.AddTicker(cd[i])
			}
			for b := 0; b < 300; b++ {
				// Straddle the next fire, and now and then run long.
				n := max(int(cd[0].Quiet())+b%4-1, 1)
				if b%5 == 0 {
					n = 3*int(period) + b%7
				}
				run(t, p, n)
				if *cd[0] != *cd[1] {
					t.Fatalf("period %d batch %d: ticker diverged: superblock %+v, interp %+v",
						period, b, *cd[0], *cd[1])
				}
			}
			if p[1].Stats.NMIs == 0 || p[1].CPU.R[isa.BP] == 0 {
				t.Fatalf("period %d: the watchdog never interrupted the loop: %v", period, p[1].Stats)
			}
			comparePair(t, p, "final")
		}
	})

	t.Run("store into the run", func(t *testing.T) {
		p := newPair(t)
		// The first pass writes inc ax over the nop at patch, in the
		// block the store runs in, the second writes the nops back,
		// and so on.
		run(t, p, 1, 12, 1, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610)
		for i, m := range p {
			if m.CPU.R[isa.AX] == 0 {
				t.Fatalf("%s: the inc ax stored into the nop run never executed", engineLabels[i])
			}
		}
		comparePair(t, p, "final")
	})

	t.Run("ip inside a run", func(t *testing.T) {
		p := newPair(t)
		run(t, p, 500)
		for ip := uint16(0x04); ip < 0x10; ip++ {
			for _, n := range []int{1, int(0x10 - ip), int(0x11 - ip), 50} {
				setIP(p, ip)
				run(t, p, n)
				setIP(p, 0x40+2*ip) // inside the 40-nop run
				run(t, p, n)
			}
		}
		comparePair(t, p, "final")
	})

	t.Run("run wider than a block", func(t *testing.T) {
		p := newPair(t)
		for _, n := range []int{1, sbMaxLen - 1, sbMaxLen, sbMaxLen + 1, 39, 40, 41, 200} {
			setIP(p, 0x40)
			run(t, p, n, 1)
		}
		comparePair(t, p, "final")
	})
}

// nmiPort latches an NMI on every write to its port: a device whose
// block-final out raises a pin in the middle of a turbo batch.
type nmiPort struct{ m *Machine }

func (p nmiPort) In(uint16) uint16   { return 0 }
func (p nmiPort) Out(uint16, uint16) { p.m.RaiseNMI() }

// TestSuperblockDeadTimeDifferential holds the three ways Run retires
// dead time in bulk against the interpreter's one tick per step: nop
// sleds over zero bytes (the lane's chain miss onto a zero byte),
// halted waits, and instructions under a latched NMI that the counter
// or the stock latch holds off. Each case drives an engine pair through
// Run batches and compares the CPU, the architectural stats and the
// ticker at every batch boundary, and the memory at the end.
//
// The sled cases run over pages of zeros (opcode 0x00 is nop) and cover
// a run across page edges, runs cut by the budget and by a watchdog
// tick due mid-sled (its NMI handler returns into the sled), runs that
// end at ip 0xFFFE and 0xFFFF, one that crosses linear 0xFFFFF, one over
// zero bytes in ROM, and sleds entered through Step with no current
// block. The halted cases wait for a watchdog NMI that the counter
// holds off for more than, exactly and less than the batch, plus the
// stock latch holding one off forever. The masked-NMI cases run with a
// counter of c over batches of c−1, c and c+1 steps, an iret inside the
// window (it zeroes the counter, so the NMI lands on the next tick), a
// port device latching an NMI mid-batch, deliverable or held, and the
// stock latch (InNMI) in place of the counter.
func TestSuperblockDeadTimeDifferential(t *testing.T) {
	const (
		iretNMI   = 0x00 // handler offsets in the ROM at E000:0000
		rejoinNMI = 0x10
	)
	handlers := asm.MustAssemble(`
	inc bp                  ; 0x00: return into whatever was interrupted
	iret
	times 0x10-($-$$) db 0
	inc bp                  ; 0x10: restart the guest after 150 ticks,
	mov cx, 150             ; leaving the counter up
wait:
	loop wait
	jmp 0x0100:0x0000
`)
	type nmi struct {
		counter bool   // NMI counter hardware (else the stock latch)
		max     uint16 // NMICounterMax
		handler uint16 // iretNMI or rejoinNMI
	}
	type cas struct {
		name    string
		nmi     nmi
		code    string // assembled at 0100:0000 unless setup places it
		setup   func(m *Machine)
		period  uint32 // a countdown raising NMI every period ticks; 0 = none
		first   uint32 // the countdown's initial counter
		port    bool   // map nmiPort at 0x42
		batches []int
		between func(b int, m *Machine) // before batch b, on both machines
		sled    bool                    // the sled must retire without a block per 32 nops
	}
	fib := []int{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181}
	iretN := nmi{counter: true, max: 8, handler: iretNMI}
	// sledLoop is zeros from 0100:0000 to a jmp back to 0100:0010, at
	// linear 0x1A00: a 2544-nop sled over pages 0x10 to 0x19.
	sledLoop := "times 0xA00 db 0\njmp 0x0010"
	atIP := func(ip uint16) func(m *Machine) { return func(m *Machine) { m.CPU.IP = ip } }
	var cases []cas
	cases = append(cases,
		cas{name: "sled/across pages", nmi: iretN, code: sledLoop, setup: atIP(0x10),
			batches: []int{1, 255, 256, 257, 2543, 2544, 2545, 10000}, sled: true},
		cas{name: "sled/cut by the budget", nmi: iretN, code: sledLoop, setup: atIP(0x10),
			batches: append(append([]int{}, fib...), 1, 2, 3, 31, 32, 33, 63, 64, 65, 7), sled: true},
		cas{name: "sled/watchdog due mid-sled", nmi: iretN, code: sledLoop, setup: atIP(0x10),
			period: 97, first: 40, batches: fib},
		cas{name: "sled/watchdog due mid-sled/long period", nmi: iretN, code: sledLoop, setup: atIP(0x10),
			period: 1000, first: 999, batches: append(append([]int{}, fib...), 10000, 10000), sled: true},
		cas{
			// Zeros from ip 0xFF00 to 0xFFFF, a jmp back at ip 0: the
			// first batch ends on ip 0xFFFE, the next two on 0xFFFF and
			// past the wrap.
			name: "sled/ends at ip 0xFFFE and 0xFFFF", nmi: iretN, code: "jmp 0xFF00", setup: atIP(0xFF00),
			batches: []int{254, 1, 1, 1, 253, 2, 300, 256, 257, 258, 1000, 5000}, sled: true,
		},
		cas{
			// cs = 0xFFFF: ip 0 is linear 0xFFFF0, ip 0x10 wraps to
			// linear 0, and a jmp 0 waits at linear 0x100 (ip 0x110).
			name: "sled/crosses linear 0xFFFFF", nmi: iretN, period: 61, first: 60,
			setup: func(m *Machine) {
				for i, b := range asm.MustAssemble("jmp 0").Code {
					m.Bus.PokeRAM(0x100+uint32(i), b)
				}
				m.CPU.S[isa.CS], m.CPU.IP = 0xFFFF, 0
			},
			batches: append(append([]int{}, fib...), 15, 16, 17, 272, 273, 1000),
		},
		cas{
			name: "sled/zero bytes in ROM", nmi: iretN, period: 211, first: 210,
			setup: func(m *Machine) {
				rom := append(make([]byte, 0x7F0), asm.MustAssemble("jmp 0").Code...)
				if _, err := m.Bus.AddROM("zeros", 0x30000, rom); err != nil {
					t.Fatal(err)
				}
				m.CPU.S[isa.CS], m.CPU.IP = 0x3000, 0
			},
			batches: append(append([]int{}, fib...), 2033, 2034, 5000),
		},
		cas{
			// A fresh machine has no current block, and every move of ip
			// strands the one it had, so each batch starts through Step.
			name: "sled/entered from Step with no current block", nmi: iretN, code: sledLoop, setup: atIP(0x10),
			batches: []int{1, 31, 32, 33, 100, 1, 500, 2600},
			between: func(b int, m *Machine) { m.CPU.IP = uint16(0x10 + 317*b) },
		},
	)
	// Halted waits: hlt; jmp 0, woken by a watchdog NMI due 31 ticks
	// into the first batch of 100, with the counter above, at and below
	// 100 and at 0.
	for _, c := range []uint16{105, 100, 95, 0} {
		cases = append(cases, cas{
			name: fmt.Sprintf("halt/counter %d over 100", c), nmi: iretN, code: "hlt\njmp 0",
			setup:  func(m *Machine) { m.CPU.Halted, m.CPU.NMICounter = true, c },
			period: 50, first: 30,
			batches: []int{100, 1, 7, 49, 50, 51, 400, 1000},
		})
	}
	cases = append(cases, cas{
		name: "halt/stock latch holds the NMI", nmi: nmi{handler: iretNMI}, code: "hlt\njmp 0",
		setup:  func(m *Machine) { m.CPU.Halted, m.CPU.InNMI = true, true },
		period: 50, first: 30,
		batches: fib,
	})
	// Masked NMIs. The loop runs an entry, a nop run and a jmp; the
	// rejoin handler leaves the counter up (1000) while the watchdog
	// latches the next NMI every 100 ticks.
	loop := "inc ax\nadd bx, ax\nnop\nnop\nnop\njmp 0"
	rejoin := nmi{counter: true, max: 1000, handler: rejoinNMI}
	for _, first := range []int{199, 200, 201} {
		cases = append(cases, cas{
			name: fmt.Sprintf("masked/counter 200 over %d", first), nmi: rejoin, code: loop,
			setup:  func(m *Machine) { m.CPU.NMICounter = 200; m.RaiseNMI() },
			period: 100, first: 99,
			batches: []int{first, 1, 2, 3, 97, 100, 101, 299, 300, 301, 1000},
		})
	}
	// The guest's own iret zeroes the counter (or clears InNMI) in the
	// middle of the window: the NMI the watchdog latched while the
	// rejoin handler ran lands on the very next tick. The iret returns
	// to the head of its own block, so the lane could chain straight on.
	iretLoop := `
	inc ax
	inc bx
	pushf
	push cs
	push word 0
	iret
`
	cases = append(cases,
		cas{name: "masked/iret inside the window", nmi: rejoin, code: iretLoop,
			setup:  func(m *Machine) { m.CPU.NMICounter = 500; m.RaiseNMI() },
			period: 100, first: 99, batches: append(append([]int{}, fib...), 1000, 1000)},
		cas{name: "masked/stock latch", nmi: nmi{handler: rejoinNMI}, code: iretLoop,
			setup:  func(m *Machine) { m.CPU.InNMI = true; m.RaiseNMI() },
			period: 100, first: 99, batches: append(append([]int{}, fib...), 1000, 1000)},
	)
	// A port device latches an NMI on every pass: deliverable when the
	// counter is 0, held (and the batch re-capped) while it is up.
	portLoop := "inc ax\nout 0x42, ax\ninc bx\nnop\nnop\njmp 0"
	for _, max := range []uint16{40, 300} {
		cases = append(cases, cas{
			name: fmt.Sprintf("masked/port latches an NMI/counter max %d", max),
			nmi:  nmi{counter: true, max: max, handler: rejoinNMI}, code: portLoop, port: true,
			batches: append(append([]int{}, fib...), 1000, 1000),
		})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newEnginePair(t, Options{
				ResetVector:        SegOff{0x0100, 0},
				NMICounter:         tc.nmi.counter,
				NMICounterMax:      tc.nmi.max,
				HardwiredNMIVector: true,
				NMIVector:          SegOff{0xE000, tc.nmi.handler},
				ExceptionPolicy:    ExceptionVector,
				ExceptionVector:    SegOff{0xF000, 0},
			})
			var cd [2]*countdown
			for i, m := range p {
				if _, err := m.Bus.AddROM("handlers", 0xE0000, handlers.Code); err != nil {
					t.Fatal(err)
				}
				if tc.code != "" {
					for j, b := range asm.MustAssemble(tc.code).Code {
						m.Bus.PokeRAM(0x1000+uint32(j), b)
					}
				}
				m.CPU.S[isa.SS], m.CPU.R[isa.SP] = 0x5000, 0x1000
				if tc.setup != nil {
					tc.setup(m)
				}
				if tc.period != 0 {
					cd[i] = &countdown{period: tc.period, counter: tc.first}
					m.AddTicker(cd[i])
				}
				if tc.port {
					m.MapPort(0x42, nmiPort{m})
				}
			}
			for b, n := range tc.batches {
				if tc.between != nil {
					pairDo(p, func(m *Machine) { tc.between(b, m) })
				}
				pairDo(p, func(m *Machine) { m.Run(n) })
				tag := fmt.Sprintf("batch %d (+%d)", b, n)
				comparePairCPU(t, p, tag)
				if cd[0] != nil && *cd[0] != *cd[1] {
					t.Fatalf("%s: ticker diverged: superblock %+v, interp %+v", tag, *cd[0], *cd[1])
				}
			}
			comparePair(t, p, "final")
			if s := p[0].Stats; tc.sled && s.Blocks*64 > s.Steps {
				t.Fatalf("%d steps took %d block entries: the sled was decoded into blocks", s.Steps, s.Blocks)
			}
		})
	}
}
