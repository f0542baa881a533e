package isa

import (
	"fmt"
	"strconv"
)

// BaseReg identifies the optional index register of a memory operand.
type BaseReg uint8

// Memory-operand base registers.
const (
	BaseNone BaseReg = iota
	BaseBX
	BaseSI
	BaseDI
	BaseBP

	numBases
)

// Valid reports whether b is a defined base register selector.
func (b BaseReg) Valid() bool { return b < numBases }

// Reg returns the general register used as index and whether one is used.
func (b BaseReg) Reg() (Reg, bool) {
	switch b {
	case BaseBX:
		return BX, true
	case BaseSI:
		return SI, true
	case BaseDI:
		return DI, true
	case BaseBP:
		return BP, true
	}
	return 0, false
}

func (b BaseReg) String() string {
	switch b {
	case BaseBX:
		return "bx"
	case BaseSI:
		return "si"
	case BaseDI:
		return "di"
	case BaseBP:
		return "bp"
	}
	return ""
}

// MemOp is a memory operand: an effective address seg:(base+disp).
// It encodes to three bytes: a mode byte (high nibble base selector,
// low nibble segment register) followed by a little-endian 16-bit
// displacement.
type MemOp struct {
	Seg  SReg
	Base BaseReg
	Disp uint16
}

// encodeMode packs the base and segment selectors into the mode byte.
func (m MemOp) encodeMode() byte {
	return byte(m.Base)<<4 | byte(m.Seg)
}

// decodeMemMode unpacks a mode byte; ok is false for undefined
// selectors, which the processor treats as an invalid instruction.
func decodeMemMode(mode byte) (MemOp, bool) {
	m := MemOp{Seg: SReg(mode & 0x0F), Base: BaseReg(mode >> 4)}
	return m, m.Seg.Valid() && m.Base.Valid()
}

// String renders the operand in assembly syntax. The segment is
// written unless it is ds, and always on a bp base, which the
// assembler otherwise takes as ss.
func (m MemOp) String() string {
	inner := ""
	if m.Seg != DS || m.Base == BaseBP {
		inner = m.Seg.String() + ":"
	}
	if r, ok := m.Base.Reg(); ok {
		inner += r.String()
		if m.Disp != 0 {
			inner += fmt.Sprintf("+0x%x", m.Disp)
		}
	} else {
		inner += fmt.Sprintf("0x%x", m.Disp)
	}
	return "[" + inner + "]"
}

// Inst is one decoded instruction. Interpretation of the fields depends
// on the opcode's operand kinds (Op.Operands): R1/R2 hold general-,
// segment- or byte-register ids; Imm holds an immediate, absolute jump
// offset or far segment (in Imm) and offset (in Imm2); Mem holds the
// memory operand.
type Inst struct {
	Op   Op
	R1   uint8
	R2   uint8
	Imm  uint16
	Imm2 uint16
	Mem  MemOp
}

// Size returns the encoded size of the instruction in bytes.
func (in Inst) Size() int { return in.Op.Size() }

// Encode appends the binary encoding of in to dst and returns the
// extended slice. Encoding an invalid opcode appends its bare byte.
func (in Inst) Encode(dst []byte) []byte {
	dst = append(dst, byte(in.Op))
	switch in.Op.Shape() {
	case ShapeNone:
	case ShapeR:
		dst = append(dst, in.R1)
	case ShapeRR:
		dst = append(dst, in.R1, in.R2)
	case ShapeRI:
		dst = append(dst, in.R1, byte(in.Imm), byte(in.Imm>>8))
	case ShapeRI8:
		dst = append(dst, in.R1, byte(in.Imm))
	case ShapeRM:
		dst = append(dst, in.R1, in.Mem.encodeMode(), byte(in.Mem.Disp), byte(in.Mem.Disp>>8))
	case ShapeMR:
		dst = append(dst, in.Mem.encodeMode(), byte(in.Mem.Disp), byte(in.Mem.Disp>>8), in.R1)
	case ShapeMI:
		dst = append(dst, in.Mem.encodeMode(), byte(in.Mem.Disp), byte(in.Mem.Disp>>8), byte(in.Imm), byte(in.Imm>>8))
	case ShapeI16:
		dst = append(dst, byte(in.Imm), byte(in.Imm>>8))
	case ShapeI8:
		dst = append(dst, byte(in.Imm))
	case ShapeSegOff:
		dst = append(dst, byte(in.Imm), byte(in.Imm>>8), byte(in.Imm2), byte(in.Imm2>>8))
	}
	return dst
}

// Decode decodes one instruction from the beginning of b. It returns
// the instruction, its size in bytes and whether the bytes form a valid
// instruction. Invalid encodings (undefined opcode, truncated operand
// bytes, undefined register or memory-mode selectors) return ok=false
// with size 0; the processor raises an invalid-opcode exception for
// them. Decode never panics on arbitrary input: any byte sequence is
// either a valid instruction or a well-defined fault, as the
// self-stabilization model requires.
func Decode(b []byte) (in Inst, size int, ok bool) {
	if len(b) == 0 {
		return Inst{}, 0, false
	}
	op := Op(b[0])
	entry := &instrTable[op]
	if !entry.valid {
		return Inst{}, 0, false
	}
	size = int(entry.size)
	if len(b) < size {
		return Inst{}, 0, false
	}
	in = Inst{Op: op}
	switch entry.shape {
	case ShapeNone:
	case ShapeR:
		in.R1 = b[1]
	case ShapeRR:
		in.R1, in.R2 = b[1], b[2]
	case ShapeRI:
		in.R1 = b[1]
		in.Imm = uint16(b[2]) | uint16(b[3])<<8
	case ShapeRI8:
		in.R1 = b[1]
		in.Imm = uint16(b[2])
	case ShapeRM:
		in.R1 = b[1]
		m, mok := decodeMemMode(b[2])
		if !mok {
			return Inst{}, 0, false
		}
		m.Disp = uint16(b[3]) | uint16(b[4])<<8
		in.Mem = m
	case ShapeMR:
		m, mok := decodeMemMode(b[1])
		if !mok {
			return Inst{}, 0, false
		}
		m.Disp = uint16(b[2]) | uint16(b[3])<<8
		in.Mem = m
		in.R1 = b[4]
	case ShapeMI:
		m, mok := decodeMemMode(b[1])
		if !mok {
			return Inst{}, 0, false
		}
		m.Disp = uint16(b[2]) | uint16(b[3])<<8
		in.Mem = m
		in.Imm = uint16(b[4]) | uint16(b[5])<<8
	case ShapeI16:
		in.Imm = uint16(b[1]) | uint16(b[2])<<8
	case ShapeI8:
		in.Imm = uint16(b[1])
	case ShapeSegOff:
		in.Imm = uint16(b[1]) | uint16(b[2])<<8
		in.Imm2 = uint16(b[3]) | uint16(b[4])<<8
	}
	if in.R1 >= entry.rLim[0] || in.R2 >= entry.rLim[1] {
		return Inst{}, 0, false
	}
	return in, size, true
}

// String renders the instruction in assembly syntax.
func (in Inst) String() string {
	s := in.Op.Mnemonic()
	regs, sep := [2]uint8{in.R1, in.R2}, " "
	for _, k := range in.Op.Operands() {
		s += sep
		sep = ", "
		switch k {
		case KindReg:
			s += Reg(regs[0]).String()
		case KindReg8:
			s += Reg8(regs[0]).String()
		case KindSReg:
			s += SReg(regs[0]).String()
		case KindMem:
			s += in.Mem.String()
		case KindWordMem:
			s += "word " + in.Mem.String()
		case KindImm, KindImm8:
			s += fmt.Sprintf("0x%x", in.Imm)
		case KindWordImm:
			s += fmt.Sprintf("word 0x%x", in.Imm)
		case KindCount:
			s += strconv.Itoa(int(in.Imm))
		case KindFar:
			s += fmt.Sprintf("0x%x:0x%x", in.Imm, in.Imm2)
		case KindAX:
			s += AX.String()
		case KindDX:
			s += DX.String()
		}
		if regLimit[k] != 0 {
			regs[0] = regs[1] // register operands take R1, then R2
		}
	}
	return s
}
