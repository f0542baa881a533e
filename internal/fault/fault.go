// Package fault implements deterministic transient-fault injection —
// the paper's soft-error model: "an arbitrary change in memory bits"
// and arbitrary changes to processor soft state (registers, flags,
// program counter, device counters). ROM is never touched: the paper
// assumes "the rom part of the memory is non volatile and its content
// is guaranteed to remain unchanged".
//
// All randomness is drawn from a seeded source so that every
// experiment is reproducible.
package fault

import (
	"fmt"
	"math/rand"

	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/mem"
	"ssos/internal/obs"
)

// Kind classifies injected faults.
type Kind uint8

// Fault kinds.
const (
	KindRAMBit     Kind = iota // single bit flip in RAM
	KindRAMByte                // whole byte randomized in RAM
	KindRegister               // one general register randomized
	KindSegment                // one segment register randomized
	KindIP                     // instruction pointer randomized
	KindFlags                  // flags word randomized
	KindSP                     // stack pointer randomized
	KindNMICounter             // NMI counter randomized
	KindIDTR                   // IDT base register randomized
	KindHaltLatch              // halt latch set
	KindInNMILatch             // stock in-NMI latch set
	KindCPUBlast               // entire register file randomized
	KindRAMRegion              // a whole RAM region randomized
)

var kindNames = map[Kind]string{
	KindRAMBit:     "ram-bit",
	KindRAMByte:    "ram-byte",
	KindRegister:   "register",
	KindSegment:    "segment",
	KindIP:         "ip",
	KindFlags:      "flags",
	KindSP:         "sp",
	KindNMICounter: "nmi-counter",
	KindIDTR:       "idtr",
	KindHaltLatch:  "halt",
	KindInNMILatch: "in-nmi",
	KindCPUBlast:   "cpu-blast",
	KindRAMRegion:  "ram-region",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record describes one injected fault.
type Record struct {
	Step uint64 // machine step at injection time
	Kind Kind
	Addr uint32 // target address for memory faults
	Note string
}

func (r Record) String() string {
	if r.Note != "" {
		return fmt.Sprintf("step %d: %v (%s)", r.Step, r.Kind, r.Note)
	}
	return fmt.Sprintf("step %d: %v @%05x", r.Step, r.Kind, r.Addr)
}

// Injector injects transient faults into a machine.
type Injector struct {
	M   *machine.Machine
	rng *rand.Rand
	// src is rng's source. Bulk byte draws read it directly (randByte);
	// every other draw goes through rng.
	src rand.Source
	// Log records every injected fault, in order.
	Log []Record
}

// NewInjector returns a deterministic injector for m.
func NewInjector(m *machine.Machine, seed int64) *Injector {
	src := rand.NewSource(seed)
	return &Injector{M: m, rng: rand.New(src), src: src}
}

// randByte draws a uniform byte. It is exactly rng.Intn(256) and
// consumes the same stream — Intn of a power of two masks Int63()>>32 —
// without the four calls Intn makes per draw.
func (in *Injector) randByte() byte { return byte(in.src.Int63() >> 32) }

func (in *Injector) record(k Kind, addr uint32, note string) {
	in.Log = append(in.Log, Record{Step: in.M.Stats.Steps, Kind: k, Addr: addr, Note: note})
	if in.M.Probe != nil {
		ev := obs.Ev(in.M.Stats.Steps, obs.TypeFaultInjected)
		// The 1-based Log ordinal is the fault id the episode
		// reconstructor keys on; the core/cluster instrumentation stamps
		// it onto every event derived during the recovery.
		ev.FaultID = uint64(len(in.Log))
		ev.Code = uint64(k)
		ev.Arg = uint64(addr)
		if note != "" {
			ev.Note = k.String() + " " + note
		} else {
			ev.Note = k.String()
		}
		in.M.Probe.Emit(ev)
	}
}

// FlipRAMBit flips one uniformly chosen bit among all RAM bytes and
// returns the affected address.
func (in *Injector) FlipRAMBit() uint32 {
	size := in.M.Bus.RAMSize()
	addr := in.M.Bus.RAMAddr(uint32(in.rng.Int63n(int64(size))))
	bit := byte(1) << uint(in.rng.Intn(8))
	in.M.Bus.PokeRAM(addr, in.M.Bus.Peek(addr)^bit)
	in.record(KindRAMBit, addr, "")
	return addr
}

// FlipRAMBitIn flips one bit inside the given region (ROM parts of the
// region are skipped; returns false if the region holds no RAM).
func (in *Injector) FlipRAMBitIn(r mem.Region) bool {
	for attempt := 0; attempt < 64; attempt++ {
		addr := r.Start + uint32(in.rng.Int63n(int64(r.Size)))
		bit := byte(1) << uint(in.rng.Intn(8))
		if in.M.Bus.PokeRAM(addr, in.M.Bus.Peek(addr)^bit) {
			in.record(KindRAMBit, addr, r.Name)
			return true
		}
	}
	return false
}

// CorruptByteIn randomizes one byte inside the region.
func (in *Injector) CorruptByteIn(r mem.Region) bool {
	for attempt := 0; attempt < 64; attempt++ {
		addr := r.Start + uint32(in.rng.Int63n(int64(r.Size)))
		if in.M.Bus.PokeRAM(addr, byte(in.rng.Intn(256))) {
			in.record(KindRAMByte, addr, r.Name)
			return true
		}
	}
	return false
}

// RandomizeRegion overwrites every RAM byte of the region with random
// values — a severe burst fault.
func (in *Injector) RandomizeRegion(r mem.Region) {
	in.randomize(r.Start, r.End())
	in.record(KindRAMRegion, r.Start, r.Name)
}

// randomize writes a random byte to every RAM address in [start, end),
// modulo the address space, a page at a time. It draws one byte per
// address, ROM included, and the bus drops the draws for ROM bytes.
func (in *Injector) randomize(start, end uint32) {
	var buf [mem.PageSize]byte
	for a := start; a < end; {
		n := min(mem.PageSize-a%mem.PageSize, end-a)
		for i := range buf[:n] {
			buf[i] = in.randByte()
		}
		in.M.Bus.WriteRAM(a&mem.AddrMask, buf[:n])
		a += n
	}
}

// CorruptIP randomizes the instruction pointer.
func (in *Injector) CorruptIP() {
	in.M.CPU.IP = uint16(in.rng.Intn(1 << 16))
	in.record(KindIP, 0, fmt.Sprintf("ip=%04x", in.M.CPU.IP))
}

// CorruptSP randomizes the stack pointer.
func (in *Injector) CorruptSP() {
	in.M.CPU.R[isa.SP] = uint16(in.rng.Intn(1 << 16))
	in.record(KindSP, 0, "")
}

// CorruptFlags randomizes the flags word.
func (in *Injector) CorruptFlags() {
	in.M.CPU.Flags = isa.Flags(in.rng.Intn(1 << 16))
	in.record(KindFlags, 0, "")
}

// CorruptRegister randomizes one uniformly chosen general register.
func (in *Injector) CorruptRegister() {
	r := isa.Reg(in.rng.Intn(isa.NumRegs))
	in.M.CPU.R[r] = uint16(in.rng.Intn(1 << 16))
	in.record(KindRegister, 0, r.String())
}

// CorruptSegment randomizes one uniformly chosen segment register.
func (in *Injector) CorruptSegment() {
	s := isa.SReg(in.rng.Intn(isa.NumSRegs))
	in.M.CPU.S[s] = uint16(in.rng.Intn(1 << 16))
	in.record(KindSegment, 0, s.String())
}

// CorruptNMICounter randomizes the NMI countdown register.
func (in *Injector) CorruptNMICounter() {
	in.M.CPU.NMICounter = uint16(in.rng.Intn(1 << 16))
	in.record(KindNMICounter, 0, "")
}

// CorruptIDTR randomizes the IDT base register (no effect under
// Options.FixedIDTR — the hardware the paper calls for).
func (in *Injector) CorruptIDTR() {
	in.M.CPU.IDTR = uint32(in.rng.Intn(mem.AddrSpace))
	in.record(KindIDTR, in.M.CPU.IDTR, "")
}

// SetHalted latches the halt state (models a spurious hlt).
func (in *Injector) SetHalted() {
	in.M.CPU.Halted = true
	in.record(KindHaltLatch, 0, "")
}

// SetInNMI latches the stock in-NMI state — the paper's masked-forever
// hazard on hardware without the NMI counter.
func (in *Injector) SetInNMI() {
	in.M.CPU.InNMI = true
	in.record(KindInNMILatch, 0, "")
}

// BlastCPU randomizes the entire processor soft state: all general and
// segment registers, ip, flags, the NMI counter and both latches. This
// realizes the paper's "started in any possible state" for the CPU.
func (in *Injector) BlastCPU() {
	c := &in.M.CPU
	for i := range c.R {
		c.R[i] = uint16(in.rng.Intn(1 << 16))
	}
	for i := range c.S {
		c.S[i] = uint16(in.rng.Intn(1 << 16))
	}
	c.IP = uint16(in.rng.Intn(1 << 16))
	c.Flags = isa.Flags(in.rng.Intn(1 << 16))
	c.IDTR = uint32(in.rng.Intn(mem.AddrSpace))
	c.NMICounter = uint16(in.rng.Intn(1 << 16))
	c.InNMI = in.rng.Intn(2) == 0
	c.Halted = in.rng.Intn(2) == 0
	in.record(KindCPUBlast, 0, "")
}

// BlastRAM randomizes every RAM byte in the machine. Together with
// BlastCPU this realizes an arbitrary initial configuration.
func (in *Injector) BlastRAM() {
	for _, r := range in.M.Bus.RAMRegions() {
		in.randomize(r.Start, r.End())
	}
	in.record(KindRAMRegion, 0, "all-ram")
}

// Random injects one uniformly chosen soft-state fault, mimicking an
// unbiased soft error.
func (in *Injector) Random() {
	switch in.rng.Intn(8) {
	case 0, 1, 2, 3: // memory faults dominate: RAM is most of the chip area
		in.FlipRAMBit()
	case 4:
		in.CorruptRegister()
	case 5:
		in.CorruptSegment()
	case 6:
		in.CorruptIP()
	case 7:
		in.CorruptFlags()
	}
}

// Rate attaches a Bernoulli fault process to the machine: after every
// step, with probability perStep, one Random fault is injected. It
// returns a detach function.
func (in *Injector) Rate(perStep float64) (detach func()) {
	return in.rate(perStep, in.Random)
}

// RateIn attaches a targeted Bernoulli fault process: after every step,
// with probability perStep, one byte inside the region is randomized.
// Use it to model the effective fault rate on a specific structure
// (e.g. the OS image) without simulating the entire chip area.
func (in *Injector) RateIn(r mem.Region, perStep float64) (detach func()) {
	return in.rate(perStep, func() { in.CorruptByteIn(r) })
}

// RateHalt attaches a Bernoulli process that latches the halt state:
// a *silent* fault that raises no exception and is recoverable only by
// an interrupt source such as the watchdog.
func (in *Injector) RateHalt(perStep float64) (detach func()) {
	return in.rate(perStep, in.SetHalted)
}

func (in *Injector) rate(perStep float64, strike func()) (detach func()) {
	prev := in.M.AfterStep
	in.M.AfterStep = func(m *machine.Machine, ev machine.Event) {
		if prev != nil {
			prev(m, ev)
		}
		if in.rng.Float64() < perStep {
			strike()
		}
	}
	return func() { in.M.AfterStep = prev }
}
