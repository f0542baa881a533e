package isa

import (
	"fmt"
	"testing"
)

// This file keeps reference copies of the per-opcode code the form
// table (instrDefs' operand kinds) replaced: each form's mnemonic and
// shape, Decode with its register-class switch, and String with its
// operand-format switch. The lockstep tests below hold the table-driven
// decoder and disassembler to them.

var refInstrDefs = map[Op]struct {
	name  string
	shape OperandShape
}{
	OpNop:   {"nop", ShapeNone},
	OpHlt:   {"hlt", ShapeNone},
	OpCld:   {"cld", ShapeNone},
	OpStd:   {"std", ShapeNone},
	OpSti:   {"sti", ShapeNone},
	OpCli:   {"cli", ShapeNone},
	OpIret:  {"iret", ShapeNone},
	OpPushf: {"pushf", ShapeNone},
	OpPopf:  {"popf", ShapeNone},

	OpMovRI:   {"mov", ShapeRI},
	OpMovRR:   {"mov", ShapeRR},
	OpMovSR:   {"mov", ShapeRR},
	OpMovRS:   {"mov", ShapeRR},
	OpMovRM:   {"mov", ShapeRM},
	OpMovMR:   {"mov", ShapeMR},
	OpMovMI:   {"mov", ShapeMI},
	OpMovSM:   {"mov", ShapeRM},
	OpMovMS:   {"mov", ShapeMR},
	OpMovR8I:  {"mov", ShapeRI8},
	OpMovR8R8: {"mov", ShapeRR},

	OpAddRR: {"add", ShapeRR},
	OpAddRI: {"add", ShapeRI},
	OpAddRM: {"add", ShapeRM},
	OpSubRR: {"sub", ShapeRR},
	OpSubRI: {"sub", ShapeRI},
	OpIncR:  {"inc", ShapeR},
	OpDecR:  {"dec", ShapeR},
	OpAndRR: {"and", ShapeRR},
	OpAndRI: {"and", ShapeRI},
	OpOrRR:  {"or", ShapeRR},
	OpOrRI:  {"or", ShapeRI},
	OpXorRR: {"xor", ShapeRR},
	OpCmpRR: {"cmp", ShapeRR},
	OpCmpRI: {"cmp", ShapeRI},
	OpCmpRM: {"cmp", ShapeRM},
	OpLea:   {"lea", ShapeRM},
	OpMulR8: {"mul", ShapeR},
	OpShlRI: {"shl", ShapeRI8},
	OpShrRI: {"shr", ShapeRI8},

	OpJmp:    {"jmp", ShapeI16},
	OpJmpFar: {"jmp", ShapeSegOff},
	OpJe:     {"je", ShapeI16},
	OpJne:    {"jne", ShapeI16},
	OpJb:     {"jb", ShapeI16},
	OpJbe:    {"jbe", ShapeI16},
	OpJa:     {"ja", ShapeI16},
	OpJae:    {"jae", ShapeI16},
	OpLoop:   {"loop", ShapeI16},
	OpCall:   {"call", ShapeI16},
	OpRet:    {"ret", ShapeNone},

	OpPushR: {"push", ShapeR},
	OpPopR:  {"pop", ShapeR},
	OpPushI: {"push", ShapeI16},
	OpPushS: {"push", ShapeR},
	OpPopS:  {"pop", ShapeR},

	OpMovsb:    {"movsb", ShapeNone},
	OpRepMovsb: {"rep movsb", ShapeNone},
	OpStosb:    {"stosb", ShapeNone},
	OpLodsb:    {"lodsb", ShapeNone},

	OpOutI:  {"out", ShapeI8},
	OpInI:   {"in", ShapeI8},
	OpOutDx: {"out", ShapeNone},
	OpInDx:  {"in", ShapeNone},
	OpInt:   {"int", ShapeI8},
	OpWPSet: {"wpset", ShapeR},
}

func refMnemonic(op Op) string {
	if d, ok := refInstrDefs[op]; ok {
		return d.name
	}
	return fmt.Sprintf("db 0x%02x", uint8(op))
}

func refDecode(b []byte) (in Inst, size int, ok bool) {
	if len(b) == 0 {
		return Inst{}, 0, false
	}
	op := Op(b[0])
	d, valid := refInstrDefs[op]
	if !valid {
		return Inst{}, 0, false
	}
	size = d.shape.Size()
	if len(b) < size {
		return Inst{}, 0, false
	}
	in = Inst{Op: op}
	switch d.shape {
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
	if !refRegistersValid(in) {
		return Inst{}, 0, false
	}
	return in, size, true
}

func refRegistersValid(in Inst) bool {
	switch in.Op {
	case OpMovRI, OpAddRI, OpSubRI, OpAndRI, OpOrRI, OpCmpRI, OpShlRI, OpShrRI,
		OpIncR, OpDecR, OpPushR, OpPopR, OpWPSet:
		return Reg(in.R1).Valid()
	case OpMovRR, OpAddRR, OpSubRR, OpAndRR, OpOrRR, OpXorRR, OpCmpRR:
		return Reg(in.R1).Valid() && Reg(in.R2).Valid()
	case OpMovSR:
		return SReg(in.R1).Valid() && Reg(in.R2).Valid()
	case OpMovRS:
		return Reg(in.R1).Valid() && SReg(in.R2).Valid()
	case OpMovRM, OpMovMR, OpAddRM, OpCmpRM, OpLea:
		return Reg(in.R1).Valid()
	case OpMovSM, OpMovMS:
		return SReg(in.R1).Valid()
	case OpMovR8I, OpMulR8:
		return Reg8(in.R1).Valid()
	case OpMovR8R8:
		return Reg8(in.R1).Valid() && Reg8(in.R2).Valid()
	case OpPushS, OpPopS:
		return SReg(in.R1).Valid()
	}
	return true
}

func refString(in Inst) string {
	mn := refMnemonic(in.Op)
	switch in.Op {
	case OpMovRI, OpAddRI, OpSubRI, OpAndRI, OpOrRI, OpCmpRI:
		return fmt.Sprintf("%s %s, 0x%x", mn, Reg(in.R1), in.Imm)
	case OpShlRI, OpShrRI:
		return fmt.Sprintf("%s %s, %d", mn, Reg(in.R1), in.Imm)
	case OpMovRR, OpAddRR, OpSubRR, OpAndRR, OpOrRR, OpXorRR, OpCmpRR:
		return fmt.Sprintf("%s %s, %s", mn, Reg(in.R1), Reg(in.R2))
	case OpMovSR:
		return fmt.Sprintf("%s %s, %s", mn, SReg(in.R1), Reg(in.R2))
	case OpMovRS:
		return fmt.Sprintf("%s %s, %s", mn, Reg(in.R1), SReg(in.R2))
	case OpMovRM, OpAddRM, OpCmpRM, OpLea:
		return fmt.Sprintf("%s %s, %s", mn, Reg(in.R1), in.Mem)
	case OpMovMR:
		return fmt.Sprintf("%s %s, %s", mn, in.Mem, Reg(in.R1))
	case OpMovMI:
		return fmt.Sprintf("%s word %s, 0x%x", mn, in.Mem, in.Imm)
	case OpMovSM:
		return fmt.Sprintf("%s %s, %s", mn, SReg(in.R1), in.Mem)
	case OpMovMS:
		return fmt.Sprintf("%s %s, %s", mn, in.Mem, SReg(in.R1))
	case OpMovR8I:
		return fmt.Sprintf("%s %s, 0x%x", mn, Reg8(in.R1), in.Imm)
	case OpMovR8R8:
		return fmt.Sprintf("%s %s, %s", mn, Reg8(in.R1), Reg8(in.R2))
	case OpIncR, OpDecR, OpPushR, OpPopR, OpWPSet:
		return fmt.Sprintf("%s %s", mn, Reg(in.R1))
	case OpMulR8:
		return fmt.Sprintf("%s %s", mn, Reg8(in.R1))
	case OpPushS, OpPopS:
		return fmt.Sprintf("%s %s", mn, SReg(in.R1))
	case OpJmp, OpJe, OpJne, OpJb, OpJbe, OpJa, OpJae, OpLoop, OpCall:
		return fmt.Sprintf("%s 0x%x", mn, in.Imm)
	case OpJmpFar:
		return fmt.Sprintf("%s 0x%x:0x%x", mn, in.Imm, in.Imm2)
	case OpPushI:
		return fmt.Sprintf("%s word 0x%x", mn, in.Imm)
	case OpOutI:
		return fmt.Sprintf("%s 0x%x, ax", mn, in.Imm)
	case OpInI:
		return fmt.Sprintf("%s ax, 0x%x", mn, in.Imm)
	case OpOutDx:
		return "out dx, ax"
	case OpInDx:
		return "in ax, dx"
	case OpInt:
		return fmt.Sprintf("%s 0x%x", mn, in.Imm)
	}
	return mn
}

// refRegs are the register bytes the lockstep sweeps try in R1 and R2:
// every id of every class, the first few past each, and 255.
var refRegs = func() []uint8 {
	var rs []uint8
	for r := 0; r < 16; r++ {
		rs = append(rs, uint8(r))
	}
	return append(rs, 255)
}()

// refTails are operand bytes after the register positions: valid and
// invalid memory-mode bytes (a bp base on ds and on ss among them),
// displacements and immediates.
var refTails = [][3]byte{
	{0x01, 0x00, 0x00},
	{0x41, 0x10, 0x80},
	{0x45, 0xfe, 0xff},
	{0x32, 0x34, 0x12},
	{0x6f, 0x00, 0x01},
	{0x51, 0x7f, 0x00},
	{0x06, 0xff, 0xff},
}

// TestFormTableMatchesReference holds the table-derived opcode
// metadata to the reference copy for every opcode byte.
func TestFormTableMatchesReference(t *testing.T) {
	for b := 0; b < 256; b++ {
		op := Op(b)
		d, valid := refInstrDefs[op]
		if op.Valid() != valid || op.Shape() != d.shape || op.Size() != d.shape.Size()*btoi(valid) ||
			op.Mnemonic() != refMnemonic(op) || InstLen(byte(b)) != op.Size() {
			t.Errorf("Op(%#02x): valid %v shape %v size %d %q; reference %v %v %d %q",
				b, op.Valid(), op.Shape(), op.Size(), op.Mnemonic(), valid, d.shape, d.shape.Size()*btoi(valid), refMnemonic(op))
		}
		if !valid && op.Operands() != nil {
			t.Errorf("Op(%#02x) is invalid but lists operands %v", b, op.Operands())
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDecodeAndStringMatchReference runs Decode and String in lockstep
// with the reference copies over every opcode × R1, R2 in refRegs ×
// refTails, at every length up to MaxInstrSize: the same verdict, size
// and instruction, and the same text. String must also agree on the
// undecoded instruction built from the same fields, out-of-range
// registers included.
func TestDecodeAndStringMatchReference(t *testing.T) {
	decoded := 0
	for b0 := 0; b0 < 256; b0++ {
		for _, r1 := range refRegs {
			for _, r2 := range refRegs {
				for i := 0; i < 3*len(refTails); i++ {
					// R1 sits at byte 1 (byte 4 for a memory-first
					// shape) and R2 at byte 2. Byte 1 or 2 is also the
					// memory-mode byte of a memory shape, so each tail's
					// mode byte is tried in neither, then in each.
					tail := refTails[i/3]
					buf := [MaxInstrSize]byte{byte(b0), r1, r2, tail[1], r1, tail[2]}
					if i%3 > 0 {
						buf[i%3] = tail[0]
					}
					for n := 0; n <= len(buf); n++ {
						in, size, ok := Decode(buf[:n])
						rin, rsize, rok := refDecode(buf[:n])
						if in != rin || size != rsize || ok != rok {
							t.Fatalf("Decode(% x) = %+v %d %v; reference %+v %d %v", buf[:n], in, size, ok, rin, rsize, rok)
						}
						if ok && n == len(buf) {
							decoded++
							if got, want := in.String(), refString(in); got != want {
								t.Fatalf("Decode(% x).String() = %q; reference %q", buf[:n], got, want)
							}
						}
					}
					raw := Inst{Op: Op(b0), R1: r1, R2: r2,
						Imm: uint16(tail[1]) | uint16(tail[2])<<8, Imm2: uint16(tail[2]) << 4,
						Mem: MemOp{Seg: SReg(tail[0] & 0x0F), Base: BaseReg(tail[0] >> 4), Disp: uint16(tail[1])}}
					if got, want := raw.String(), refString(raw); got != want {
						t.Fatalf("%+v.String() = %q; reference %q", raw, got, want)
					}
				}
			}
		}
	}
	if decoded == 0 {
		t.Fatal("the sweep decoded nothing")
	}
}
