package machine

import (
	"fmt"

	"ssos/internal/isa"
	"ssos/internal/mem"
	"ssos/internal/obs"
)

// Interrupt and exception vector numbers (x86 assignments).
const (
	VecNMI           = 2  // non-maskable interrupt (when not hardwired)
	VecInvalidOpcode = 6  // undefined or malformed instruction
	VecTimer         = 8  // default timer IRQ vector
	VecGP            = 13 // general protection (e.g. store to ROM)
)

// ExceptionPolicy selects how the processor reacts to an exception
// (invalid opcode, faulting store).
type ExceptionPolicy uint8

const (
	// ExceptionHalt stops the processor, modelling an OS with no
	// recovery path: a crash. Baselines use this.
	ExceptionHalt ExceptionPolicy = iota
	// ExceptionVector transfers control to the hardwired
	// Options.ExceptionVector in ROM (the paper's default handlers
	// "reside in the appropriate addresses in rom").
	ExceptionVector
	// ExceptionIDT vectors through the interrupt descriptor table,
	// like stock hardware. A corrupted IDT then sends the processor
	// anywhere — the hazard discussed in the paper's introduction.
	ExceptionIDT
)

// Options configures the hardware variant being simulated.
type Options struct {
	// NMICounter enables the paper's proposed NMI countdown register.
	// When false the machine uses the stock InNMI latch, which is not
	// self-stabilizing.
	NMICounter bool
	// NMICounterMax is the value loaded into the counter when an NMI
	// is delivered. It must exceed the NMI handler's execution length
	// (in ticks) or the handler can be preempted by the next NMI
	// forever.
	NMICounterMax uint16
	// HardwiredNMIVector routes NMI to NMIVector directly, bypassing
	// the IDT, so that NMI entry survives arbitrary RAM corruption.
	HardwiredNMIVector bool
	// NMIVector is the NMI entry point when HardwiredNMIVector is set.
	NMIVector SegOff
	// FixedIDTR hardwires the IDT base to IDTBase, making the IDTR
	// register non-writable (the paper's assumption "the idtr register
	// value can not be changed").
	FixedIDTR bool
	// IDTBase is the hardwired IDT base when FixedIDTR is set.
	IDTBase uint32
	// ExceptionPolicy selects exception behaviour.
	ExceptionPolicy ExceptionPolicy
	// ExceptionVector is the hardwired exception entry point for
	// ExceptionVector policy.
	ExceptionVector SegOff
	// ResetVector is where execution starts after reset.
	ResetVector SegOff
	// MemoryProtection enables the store-window extension: while
	// FlagWP is set and the executing code resides in RAM, data stores
	// outside the 4 KiB window at CPU.WP<<4 raise a general-protection
	// exception. Code executing from ROM (the stabilizers) is exempt,
	// playing the role of supervisor mode. This realizes, in
	// real-mode terms, the isolation the paper defers to protected
	// mode ("the data of each process resides in a distinct separate
	// ram area" becomes hardware-enforced).
	MemoryProtection bool
}

// WPWindowSize is the size in bytes of the memory-protection window.
const WPWindowSize = 0x1000

// Event classifies what one machine step did.
type Event uint8

// Step events.
const (
	EventInstr     Event = iota // executed one instruction (or one rep iteration)
	EventNMI                    // delivered a non-maskable interrupt
	EventIRQ                    // delivered a maskable interrupt
	EventException              // raised an exception
	EventReset                  // performed a hardware reset
	EventHalted                 // idle tick while halted
)

func (e Event) String() string {
	switch e {
	case EventInstr:
		return "instr"
	case EventNMI:
		return "nmi"
	case EventIRQ:
		return "irq"
	case EventException:
		return "exception"
	case EventReset:
		return "reset"
	case EventHalted:
		return "halted"
	}
	return "unknown"
}

// Stats counts step outcomes since machine creation.
//
// The first seven counters are architectural: two engines executing the
// same configuration sequence must agree on them exactly. The Block*
// counters are engine telemetry — how much work the superblock engine
// retired and how often it had to bail — and legitimately differ
// between engines; comparisons across engines go through Arch.
type Stats struct {
	Steps      uint64 // total clock ticks
	Instrs     uint64 // instructions executed (rep iterations count once each)
	NMIs       uint64 // NMIs delivered
	IRQs       uint64 // maskable interrupts delivered
	Exceptions uint64 // exceptions raised
	Resets     uint64 // hardware resets performed
	HaltTicks  uint64 // ticks spent halted

	Blocks      uint64 // superblocks entered (span validated, first entry run)
	BlockInstrs uint64 // instructions the superblock engine retired: block entries and nop sleds
	BlockBails  uint64 // superblocks abandoned before exhaustion (stale span, diverged pc, exception)
}

// String renders every counter compactly.
func (s Stats) String() string {
	return fmt.Sprintf("steps=%d instrs=%d nmis=%d irqs=%d exceptions=%d resets=%d halt=%d blocks=%d blkinstrs=%d blkbails=%d",
		s.Steps, s.Instrs, s.NMIs, s.IRQs, s.Exceptions, s.Resets, s.HaltTicks,
		s.Blocks, s.BlockInstrs, s.BlockBails)
}

// Delta returns the per-counter difference s - prev. Take a snapshot
// before a measured interval and Delta after it to attribute counts to
// that interval (the counters only ever grow).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Steps:       s.Steps - prev.Steps,
		Instrs:      s.Instrs - prev.Instrs,
		NMIs:        s.NMIs - prev.NMIs,
		IRQs:        s.IRQs - prev.IRQs,
		Exceptions:  s.Exceptions - prev.Exceptions,
		Resets:      s.Resets - prev.Resets,
		HaltTicks:   s.HaltTicks - prev.HaltTicks,
		Blocks:      s.Blocks - prev.Blocks,
		BlockInstrs: s.BlockInstrs - prev.BlockInstrs,
		BlockBails:  s.BlockBails - prev.BlockBails,
	}
}

// Arch returns the architectural counters with the engine-telemetry
// Block* counters zeroed. Differential suites comparing execution
// engines (interpreter vs superblock) must compare Arch() values: the
// engines agree bit-for-bit on what the machine did, not on which fast
// path did it.
func (s Stats) Arch() Stats {
	s.Blocks, s.BlockInstrs, s.BlockBails = 0, 0, 0
	return s
}

// PortDevice is an I/O-port-mapped device.
type PortDevice interface {
	// In services the IN instruction for the given port.
	In(port uint16) uint16
	// Out services the OUT instruction for the given port.
	Out(port uint16, v uint16)
}

// Ticker is a device driven by the system clock. Tick is called once
// per machine step, before the processor acts, and may raise interrupt
// pins or touch memory.
//
// Quiet and Skip let Run batch the ticks that provably do nothing but
// count down. Quiet reports how many upcoming ticks are quiet: each one
// only decrements a register that no instruction can read or write (the
// device maps it to no port and no memory), raises no pin and touches no
// memory. Skip(k), for k ≤ Quiet(), applies k quiet ticks at once. No
// instruction can tell a quiet tick taken before it from one taken
// after it, so Run may retire up to Quiet() instructions and Skip their
// ticks afterwards; every other tick — and every tick of Step — goes
// through Tick. A device that cannot promise quiet ticks returns 0.
type Ticker interface {
	Tick(m *Machine)
	Quiet() uint32
	Skip(k uint32)
}

// Pin bits for Machine.pins: latched external events awaiting the
// processor's attention.
const (
	pinNMI uint8 = 1 << iota
	pinReset
	pinIRQ
)

// Machine is the full system: processor, memory and devices.
type Machine struct {
	CPU   CPU
	Bus   *mem.Bus
	Opts  Options
	Stats Stats

	// pins latches pending external events (pin* bits). A single
	// bitmask lets the step loop rule out all three with one compare.
	pins   uint8
	irqVec uint8

	// ports maps I/O ports to devices. Machines carry a handful of
	// ports at most, so a linear scan beats a map hash on the
	// per-instruction in/out path.
	ports   []portBinding
	tickers []Ticker

	// Superblock engine state (superblock.go): sblocks is the
	// direct-mapped block table (nil when SetDecodeCache(false) selects
	// the interpreter; individual blocks are allocated on demand so idle
	// replicas stay small), sbCur/sbIdx the active block cursor,
	// pageGens the bus's write-generation array (cached so span
	// validation is plain array loads), busStamp the bus's write-epoch
	// counter, and sbStamp its value when the current block's span was
	// last validated.
	sblocks  *[sbSize]*superblock
	sbCur    *superblock
	sbIdx    int
	pageGens *[mem.NumPages]uint64
	busStamp *uint64
	sbStamp  uint64

	// fetched is the scratch slot the interpreter's fetch decodes
	// into, so the step loop never allocates.
	fetched isa.Inst

	// AfterStep, when non-nil, is invoked after every step with the
	// event that occurred. Monitors and fault injectors hook here.
	AfterStep func(m *Machine, ev Event)

	// Probe, when non-nil, receives structured observability events
	// from the interrupt, exception and reset paths (never from the
	// per-instruction path, so an instrumented machine stays fast and
	// an uninstrumented one pays only a nil compare on rare paths).
	Probe obs.Probe
}

// New creates a machine with the given bus and hardware options and
// performs an initial reset.
func New(bus *mem.Bus, opts Options) *Machine {
	if opts.NMICounterMax == 0 {
		opts.NMICounterMax = 4096
	}
	m := &Machine{
		Bus:      bus,
		Opts:     opts,
		pageGens: bus.PageGens(),
		sblocks:  new([sbSize]*superblock),
		busStamp: bus.WriteStamp(),
	}
	m.Reset()
	return m
}

// Fork returns a machine that continues m's run on a copy-on-write fork
// of its memory (mem.Bus.Fork): the CPU, the options, the step
// statistics, the latched interrupt pins and the engine choice carry
// over, and from here on neither machine sees the other's stores. The
// fork has no devices and no hooks — no ports, tickers, AfterStep or
// Probe — until its caller wires its own (core.System.Fork wires copies
// of the source's devices), and its block table starts empty. m must
// not step while Fork runs.
//
// This is the replica state-transfer primitive of internal/cluster: a
// deterministic fork re-enters lockstep with its source from the next
// step onward. The pins must carry over — a watchdog NMI latched but
// not yet delivered at the fork would otherwise be delivered on m and
// silently dropped on the fork, diverging the two machines one
// handler-run later.
func (m *Machine) Fork() *Machine {
	bus := m.Bus.Fork()
	f := &Machine{
		CPU:      m.CPU,
		Bus:      bus,
		Opts:     m.Opts,
		Stats:    m.Stats,
		pins:     m.pins,
		irqVec:   m.irqVec,
		pageGens: bus.PageGens(),
		busStamp: bus.WriteStamp(),
	}
	f.SetDecodeCache(m.DecodeCache())
	return f
}

// Reset restores the architectural power-on state: registers cleared,
// interrupts disabled, execution at the reset vector. Memory is NOT
// cleared (RAM keeps whatever it held, as on real hardware).
func (m *Machine) Reset() {
	m.CPU = CPU{}
	m.CPU.S[isa.CS] = m.Opts.ResetVector.Seg
	m.CPU.IP = m.Opts.ResetVector.Off
	m.pins = 0
}

// AddTicker registers a clock-driven device. Register each device at
// most once: Quiet counts one device's ticks, while a device registered
// twice takes two ticks per step.
func (m *Machine) AddTicker(t Ticker) { m.tickers = append(m.tickers, t) }

// portBinding ties one I/O port to its device.
type portBinding struct {
	port uint16
	dev  PortDevice
}

// MapPort maps an I/O port to a device. Mapping a port twice replaces
// the previous device.
func (m *Machine) MapPort(port uint16, d PortDevice) {
	for i := range m.ports {
		if m.ports[i].port == port {
			m.ports[i].dev = d
			return
		}
	}
	m.ports = append(m.ports, portBinding{port: port, dev: d})
}

// RaiseNMI latches the NMI pin. The pin stays set until the NMI is
// delivered (level-triggered latch, as the paper's watchdog assumes).
func (m *Machine) RaiseNMI() { m.pins |= pinNMI }

// NMIPending reports whether an NMI is latched but not yet delivered.
func (m *Machine) NMIPending() bool { return m.pins&pinNMI != 0 }

// RaiseReset latches the reset pin; the next step performs a hardware
// reset. The paper's first two schemes may wire the watchdog here
// instead of to NMI.
func (m *Machine) RaiseReset() { m.pins |= pinReset }

// RaiseIRQ latches a maskable interrupt with the given IDT vector. It
// is delivered when FlagIF is set.
func (m *Machine) RaiseIRQ(vec uint8) {
	m.pins |= pinIRQ
	m.irqVec = vec
}

// IDTBase returns the effective interrupt descriptor table base,
// honouring the FixedIDTR option.
func (m *Machine) IDTBase() uint32 {
	if m.Opts.FixedIDTR {
		return m.Opts.IDTBase
	}
	return m.CPU.IDTR
}

// Linear computes the physical address of seg:off.
func (m *Machine) Linear(seg isa.SReg, off uint16) uint32 {
	return (uint32(m.CPU.S[seg])<<4 + uint32(off)) & mem.AddrMask
}

// LoadWord reads the 16-bit word at seg:off.
//
// The two bytes are addressed with 16-bit offset wrap-around within
// the segment, as on real-mode hardware. Unless the offset wraps
// (off == 0xFFFF), the second byte's linear address is the first's
// plus one modulo the address space — exactly what the bus's fused
// word load computes — so the common case does one call instead of
// two byte loads with separate segment arithmetic.
func (m *Machine) LoadWord(seg isa.SReg, off uint16) uint16 {
	if off != 0xFFFF {
		return m.Bus.LoadWord(m.Linear(seg, off))
	}
	lo := m.Bus.LoadByte(m.Linear(seg, off))
	hi := m.Bus.LoadByte(m.Linear(seg, off+1))
	return uint16(lo) | uint16(hi)<<8
}

// StoreWord writes the 16-bit word at seg:off, reporting whether the
// store succeeded (false means it targeted ROM under the fault policy).
// Like LoadWord it defers to the bus's fused word store except when
// the 16-bit offset wraps within the segment.
func (m *Machine) StoreWord(seg isa.SReg, off uint16, v uint16) bool {
	if off != 0xFFFF {
		return m.Bus.StoreWord(m.Linear(seg, off), v)
	}
	ok1 := m.Bus.StoreByte(m.Linear(seg, off), byte(v))
	ok2 := m.Bus.StoreByte(m.Linear(seg, off+1), byte(v>>8))
	return ok1 && ok2
}

// push stores v on the stack (ss:sp), decrementing sp first. Interrupt
// pushes ignore store faults: the hardware drives the bus regardless,
// and a ROM target simply swallows the value.
func (m *Machine) push(v uint16) bool {
	m.CPU.R[isa.SP] -= 2
	return m.StoreWord(isa.SS, m.CPU.R[isa.SP], v)
}

// pop loads a word from the stack (ss:sp), incrementing sp.
func (m *Machine) pop() uint16 {
	v := m.LoadWord(isa.SS, m.CPU.R[isa.SP])
	m.CPU.R[isa.SP] += 2
	return v
}

// idtEntry reads the far pointer for vector n from the IDT.
func (m *Machine) idtEntry(n uint8) SegOff {
	base := (m.IDTBase() + uint32(n)*4) & mem.AddrMask
	return SegOff{
		Off: m.Bus.LoadWord(base),
		Seg: m.Bus.LoadWord(base + 2),
	}
}

// SetIDTEntry writes the far pointer for vector n into the IDT (a
// setup-time convenience for system builders; the guest could equally
// write it with store instructions).
func (m *Machine) SetIDTEntry(n uint8, target SegOff) {
	base := (m.IDTBase() + uint32(n)*4) & mem.AddrMask
	m.Bus.Poke(base, byte(target.Off))
	m.Bus.Poke(base+1, byte(target.Off>>8))
	m.Bus.Poke(base+2, byte(target.Seg))
	m.Bus.Poke(base+3, byte(target.Seg>>8))
}

// portIn services IN; unmapped ports read as all-ones, like a floating
// bus.
func (m *Machine) portIn(port uint16) uint16 {
	for i := range m.ports {
		if m.ports[i].port == port {
			return m.ports[i].dev.In(port)
		}
	}
	return 0xFFFF
}

// portOut services OUT; writes to unmapped ports are dropped.
func (m *Machine) portOut(port uint16, v uint16) {
	for i := range m.ports {
		if m.ports[i].port == port {
			m.ports[i].dev.Out(port, v)
			return
		}
	}
}

// String summarizes the machine state and step counters.
func (m *Machine) String() string {
	return fmt.Sprintf("machine{%v %v}", &m.CPU, m.Stats)
}
