// Package machine implements the simulated processor and system of the
// paper's Section 2 model: a Pentium-real-mode-style CPU connected to a
// 1 MiB memory bus and I/O devices, executing fetch-decode-execute
// steps triggered by clock ticks.
//
// The package implements both stock hardware behaviour and the
// paper's *proposed* additions that make self-stabilization possible:
//
//   - an NMI counter register (Section 2, "Additional necessary and
//     sufficient hardware support"): the processor reacts to NMI only
//     when the counter is zero; delivering an NMI raises the counter to
//     its maximum; every clock tick decrements it; IRET zeroes it.
//     This guarantees NMIs are eventually handled from any state.
//     With the counter disabled the machine reproduces the stock
//     Pentium hazard the paper describes: an arbitrary initial state
//     may have NMIs masked forever.
//   - a hardwired NMI vector in ROM, immune to idt/idtr corruption.
//   - an optionally fixed (non-writable, effectively non-corruptible)
//     IDTR.
//
// A configuration (CPU state + memory content) is exactly the paper's
// "system configuration"; Machine.Step is the paper's "system step".
package machine

import (
	"fmt"

	"ssos/internal/isa"
)

// SegOff is a real-mode far pointer (segment and offset).
type SegOff struct {
	Seg uint16
	Off uint16
}

// Linear returns the 20-bit physical address seg*16+off.
func (s SegOff) Linear() uint32 {
	return (uint32(s.Seg)<<4 + uint32(s.Off)) & 0xFFFFF
}

func (s SegOff) String() string {
	return fmt.Sprintf("%04x:%04x", s.Seg, s.Off)
}

// CPU is the full processor state. All fields are exported: the
// self-stabilization fault model allows transient faults to assign any
// of them arbitrary values, which fault injectors (and tests) do
// directly.
type CPU struct {
	R     [isa.NumRegs]uint16  // general-purpose registers
	S     [isa.NumSRegs]uint16 // segment registers
	IP    uint16               // instruction pointer
	Flags isa.Flags            // processor status word

	// IDTR is the base linear address of the interrupt descriptor
	// table. On stock hardware a transient fault here can disable all
	// interrupt handling (the paper's idtr example); with
	// Options.FixedIDTR the register is hardwired and the field is
	// ignored.
	IDTR uint32

	// WP is the memory-protection extension's window register: with
	// Options.MemoryProtection enabled and FlagWP set, RAM-resident
	// code may store only within the 4 KiB window starting at WP<<4.
	// Loaded by the wpset instruction.
	WP uint16

	// NMICounter is the paper's proposed countdown register. The
	// processor reacts to NMI only when it is zero. Only meaningful
	// when Options.NMICounter is true.
	NMICounter uint16

	// InNMI is the stock-Pentium latch: set while an NMI handler runs,
	// cleared by IRET. An arbitrary initial state may have it set with
	// no IRET forthcoming — the stabilization hazard the NMI counter
	// removes. Only consulted when Options.NMICounter is false.
	InNMI bool

	// Halted is set by HLT; cleared by interrupt delivery or reset.
	Halted bool
}

// Reg returns the value of a 16-bit general register.
func (c *CPU) Reg(r isa.Reg) uint16 { return c.R[r] }

// SReg returns the value of a segment register.
func (c *CPU) SReg(s isa.SReg) uint16 { return c.S[s] }

// Reg8 returns the value of a byte register half.
func (c *CPU) Reg8(r isa.Reg8) uint8 {
	parent, high := r.Parent()
	if high {
		return uint8(c.R[parent] >> 8)
	}
	return uint8(c.R[parent])
}

// SetReg8 sets a byte register half.
func (c *CPU) SetReg8(r isa.Reg8, v uint8) {
	parent, high := r.Parent()
	if high {
		c.R[parent] = c.R[parent]&0x00FF | uint16(v)<<8
	} else {
		c.R[parent] = c.R[parent]&0xFF00 | uint16(v)
	}
}

// PC returns the current program-counter far pointer (cs:ip).
func (c *CPU) PC() SegOff { return SegOff{c.S[isa.CS], c.IP} }

// String renders the register file compactly for traces and debugging.
func (c *CPU) String() string {
	return fmt.Sprintf(
		"ax=%04x bx=%04x cx=%04x dx=%04x si=%04x di=%04x bp=%04x sp=%04x "+
			"cs=%04x ds=%04x es=%04x fs=%04x gs=%04x ss=%04x ip=%04x fl=%v nmic=%d halt=%v",
		c.R[isa.AX], c.R[isa.BX], c.R[isa.CX], c.R[isa.DX],
		c.R[isa.SI], c.R[isa.DI], c.R[isa.BP], c.R[isa.SP],
		c.S[isa.CS], c.S[isa.DS], c.S[isa.ES], c.S[isa.FS], c.S[isa.GS], c.S[isa.SS],
		c.IP, c.Flags, c.NMICounter, c.Halted)
}
