package isa

import "fmt"

// Op is an instruction opcode. Each distinct instruction form (mnemonic
// plus operand shape) has its own opcode byte, giving a simple
// unambiguous variable-length encoding.
type Op uint8

// Opcodes. Gaps are reserved (decode as invalid, raising the invalid-
// opcode exception, which the paper's designs must tolerate: a corrupt
// program counter may land anywhere, including on data bytes).
const (
	OpNop   Op = 0x00
	OpHlt   Op = 0x01
	OpCld   Op = 0x02
	OpStd   Op = 0x03
	OpSti   Op = 0x04
	OpCli   Op = 0x05
	OpIret  Op = 0x06
	OpPushf Op = 0x07
	OpPopf  Op = 0x08

	OpMovRI   Op = 0x10 // mov r16, imm16
	OpMovRR   Op = 0x11 // mov r16, r16
	OpMovSR   Op = 0x12 // mov sreg, r16
	OpMovRS   Op = 0x13 // mov r16, sreg
	OpMovRM   Op = 0x14 // mov r16, [mem]
	OpMovMR   Op = 0x15 // mov [mem], r16
	OpMovMI   Op = 0x16 // mov word [mem], imm16
	OpMovSM   Op = 0x17 // mov sreg, [mem]
	OpMovMS   Op = 0x18 // mov [mem], sreg
	OpMovR8I  Op = 0x19 // mov r8, imm8
	OpMovR8R8 Op = 0x1A // mov r8, r8

	OpAddRR Op = 0x20 // add r16, r16
	OpAddRI Op = 0x21 // add r16, imm16
	OpAddRM Op = 0x22 // add r16, [mem]
	OpSubRR Op = 0x23 // sub r16, r16
	OpSubRI Op = 0x24 // sub r16, imm16
	OpIncR  Op = 0x25 // inc r16
	OpDecR  Op = 0x26 // dec r16
	OpAndRR Op = 0x27 // and r16, r16
	OpAndRI Op = 0x28 // and r16, imm16
	OpOrRR  Op = 0x29 // or r16, r16
	OpOrRI  Op = 0x2A // or r16, imm16
	OpXorRR Op = 0x2B // xor r16, r16
	OpCmpRR Op = 0x2C // cmp r16, r16
	OpCmpRI Op = 0x2D // cmp r16, imm16
	OpCmpRM Op = 0x2E // cmp r16, [mem]
	OpLea   Op = 0x2F // lea r16, [mem]
	OpMulR8 Op = 0x30 // mul r8 (ax = al * r8)
	OpShlRI Op = 0x31 // shl r16, imm8
	OpShrRI Op = 0x32 // shr r16, imm8

	OpJmp    Op = 0x40 // jmp imm16 (absolute offset within cs)
	OpJmpFar Op = 0x41 // jmp seg16:off16
	OpJe     Op = 0x42
	OpJne    Op = 0x43
	OpJb     Op = 0x44
	OpJbe    Op = 0x45
	OpJa     Op = 0x46
	OpJae    Op = 0x47
	OpLoop   Op = 0x48 // dec cx; jmp if cx != 0
	OpCall   Op = 0x49 // push ip; jmp imm16
	OpRet    Op = 0x4A // pop ip

	OpPushR Op = 0x50 // push r16
	OpPopR  Op = 0x51 // pop r16
	OpPushI Op = 0x52 // push imm16
	OpPushS Op = 0x53 // push sreg
	OpPopS  Op = 0x54 // pop sreg

	OpMovsb    Op = 0x60 // copy byte ds:si -> es:di, advance si/di
	OpRepMovsb Op = 0x61 // movsb repeated cx times (resumable)
	OpStosb    Op = 0x62 // store al at es:di, advance di
	OpLodsb    Op = 0x63 // load al from ds:si, advance si

	OpOutI  Op = 0x70 // out imm8, ax
	OpInI   Op = 0x71 // in ax, imm8
	OpOutDx Op = 0x72 // out dx, ax
	OpInDx  Op = 0x73 // in ax, dx
	OpInt   Op = 0x74 // int imm8 (software interrupt through idt)

	OpWPSet Op = 0x76 // wpset r16: load the write-protection window register
)

// OperandShape describes the operand bytes that follow an opcode.
type OperandShape uint8

// Operand shapes. The shape fully determines instruction length.
const (
	ShapeNone   OperandShape = iota // op
	ShapeR                          // op reg
	ShapeRR                         // op reg reg
	ShapeRI                         // op reg imm16
	ShapeRI8                        // op reg imm8
	ShapeRM                         // op reg mem(3)
	ShapeMR                         // op mem(3) reg
	ShapeMI                         // op mem(3) imm16
	ShapeI16                        // op imm16
	ShapeI8                         // op imm8
	ShapeSegOff                     // op seg16 off16
)

// Size returns the total encoded instruction size for the shape,
// including the opcode byte.
func (s OperandShape) Size() int {
	switch s {
	case ShapeNone:
		return 1
	case ShapeR:
		return 2
	case ShapeRR:
		return 3
	case ShapeRI:
		return 4
	case ShapeRI8:
		return 3
	case ShapeRM, ShapeMR:
		return 5
	case ShapeMI:
		return 6
	case ShapeI16:
		return 3
	case ShapeI8:
		return 2
	case ShapeSegOff:
		return 5
	}
	return 0
}

// instrInfo is the static description of one instruction form.
type instrInfo struct {
	name  string
	shape OperandShape
}

// instrDefs lists every defined instruction form; init expands it into
// the dense dispatch table the decoder indexes on the fetch path.
var instrDefs = map[Op]instrInfo{
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

// serializingOps lists the opcodes after which straight-line execution
// cannot be assumed to continue at ip+size, or after which arbitrary
// machine state may have changed outside the instruction's own
// semantics. These are the superblock serialize points: a predecoded
// run must end at (and include) any such instruction.
//
//   - control transfers: the next ip is computed, conditional, or
//     popped from memory (jmp/jcc/loop/call/ret/iret/int), so the
//     successor cannot be chained statically;
//   - rep movsb: resumable — ip re-targets the instruction itself
//     while cx counts down, a data-dependent successor;
//   - hlt: the processor leaves the fetch loop entirely;
//   - port I/O: devices run host code that may mutate memory,
//     registers, pins or the machine's caching mode.
//
// Writes to cs (mov/pop into a segment register) also retarget the
// code stream, but whether an instance targets cs is an operand
// property, not an opcode property — the machine's block builder
// checks that case itself.
var serializingOps = []Op{
	OpHlt, OpIret,
	OpJmp, OpJmpFar, OpJe, OpJne, OpJb, OpJbe, OpJa, OpJae,
	OpLoop, OpCall, OpRet,
	OpRepMovsb,
	OpOutI, OpInI, OpOutDx, OpInDx, OpInt,
}

// instrTable is the dense dispatch table: one slot per opcode byte,
// populated from instrDefs at init. Decode indexes it on every fetch,
// so it must not be a map.
var instrTable [256]struct {
	instrInfo
	valid  bool
	serial bool
	size   uint8
}

func init() {
	for op, info := range instrDefs {
		instrTable[op].instrInfo = info
		instrTable[op].valid = true
		instrTable[op].size = uint8(info.shape.Size())
	}
	for _, op := range serializingOps {
		if !instrTable[op].valid {
			panic("isa: serializing op not defined")
		}
		instrTable[op].serial = true
	}
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return instrTable[op].valid }

// Shape returns the operand shape of op. Invalid opcodes have ShapeNone.
func (op Op) Shape() OperandShape { return instrTable[op].shape }

// Size returns the encoded size in bytes of an instruction with opcode
// op, or 0 if op is invalid.
func (op Op) Size() int { return int(instrTable[op].size) }

// Serializing reports whether op is a superblock serialize point (see
// serializingOps). Invalid opcodes report true: they raise an exception,
// which certainly ends straight-line execution.
func (op Op) Serializing() bool { return instrTable[op].serial || !instrTable[op].valid }

// InstLen returns the full encoded length implied by an instruction's
// first byte, or 0 when the byte is not a defined opcode.
//
// This is the cacheability contract the machine's superblock engine
// is built on: encoded length is a pure function of the first byte,
// and Decode's result depends on exactly the bytes
// [0, InstLen(b[0])) — never on later bytes. A decoded block entry
// therefore stays valid for as long as that byte range is unwritten, which the
// memory bus tracks with page write-generations.
func InstLen(b byte) int { return int(instrTable[b].size) }

// Mnemonic returns the assembly mnemonic for op.
func (op Op) Mnemonic() string {
	if instrTable[op].valid {
		return instrTable[op].name
	}
	return fmt.Sprintf("db 0x%02x", uint8(op))
}

// MaxInstrSize is the largest encoded instruction size. The paper's
// Section 5.2 padding scheme requires every instruction to fit in a
// SlotSize-byte slot; MaxInstrSize <= SlotSize guarantees this.
const MaxInstrSize = 6

// SlotSize is the fixed instruction-slot size used by padded (pad16)
// code, matching the paper's ip masking to multiples of 16.
const SlotSize = 16
