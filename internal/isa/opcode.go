package isa

import "fmt"

// Op is an instruction opcode. Each distinct instruction form (mnemonic
// plus operand shape) has its own opcode byte, giving a simple
// unambiguous variable-length encoding.
type Op uint8

// Opcodes. Gaps are reserved (decode as invalid, raising the invalid-
// opcode exception, which the paper's designs must tolerate: a corrupt
// program counter may land anywhere, including on data bytes). Each
// opcode's mnemonic and operands are listed once, in instrDefs; the
// names spell the operands (R r16, R8 r8, S sreg, M memory, I
// immediate).
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

	OpMovRI   Op = 0x10
	OpMovRR   Op = 0x11
	OpMovSR   Op = 0x12
	OpMovRS   Op = 0x13
	OpMovRM   Op = 0x14
	OpMovMR   Op = 0x15
	OpMovMI   Op = 0x16
	OpMovSM   Op = 0x17
	OpMovMS   Op = 0x18
	OpMovR8I  Op = 0x19
	OpMovR8R8 Op = 0x1A

	OpAddRR Op = 0x20
	OpAddRI Op = 0x21
	OpAddRM Op = 0x22
	OpSubRR Op = 0x23
	OpSubRI Op = 0x24
	OpIncR  Op = 0x25
	OpDecR  Op = 0x26
	OpAndRR Op = 0x27
	OpAndRI Op = 0x28
	OpOrRR  Op = 0x29
	OpOrRI  Op = 0x2A
	OpXorRR Op = 0x2B
	OpCmpRR Op = 0x2C
	OpCmpRI Op = 0x2D
	OpCmpRM Op = 0x2E
	OpLea   Op = 0x2F
	OpMulR8 Op = 0x30 // ax = al * r8
	OpShlRI Op = 0x31
	OpShrRI Op = 0x32

	OpJmp    Op = 0x40 // absolute offset within cs
	OpJmpFar Op = 0x41
	OpJe     Op = 0x42
	OpJne    Op = 0x43
	OpJb     Op = 0x44
	OpJbe    Op = 0x45
	OpJa     Op = 0x46
	OpJae    Op = 0x47
	OpLoop   Op = 0x48 // dec cx; jmp if cx != 0
	OpCall   Op = 0x49 // push ip; jmp imm16
	OpRet    Op = 0x4A // pop ip

	OpPushR Op = 0x50
	OpPopR  Op = 0x51
	OpPushI Op = 0x52
	OpPushS Op = 0x53
	OpPopS  Op = 0x54

	OpMovsb    Op = 0x60 // copy byte ds:si -> es:di, advance si/di
	OpRepMovsb Op = 0x61 // movsb repeated cx times (resumable)
	OpStosb    Op = 0x62 // store al at es:di, advance di
	OpLodsb    Op = 0x63 // load al from ds:si, advance si

	OpOutI  Op = 0x70
	OpInI   Op = 0x71
	OpOutDx Op = 0x72
	OpInDx  Op = 0x73
	OpInt   Op = 0x74 // software interrupt through idt

	OpWPSet Op = 0x76 // load the write-protection window register
)

// OperandKind is the kind of one instruction operand. Each form lists
// its operands' kinds in assembly order, and that list fixes everything
// else about the form: its encoded shape and size, which Inst field
// each operand fills, Decode's register check, the disassembly text,
// and which parsed operands the assembler accepts for it.
type OperandKind uint8

// Operand kinds. Register operands fill R1, then R2; memory operands
// fill Mem; immediates fill Imm, and a far pointer Imm (segment) and
// Imm2 (offset). Operands are encoded in assembly order: a register in
// one byte, a memory operand in three, a 16-bit immediate in two, an
// 8-bit one in one and a far pointer in four.
const (
	KindReg     OperandKind = iota + 1 // general register (r16)
	KindReg8                           // byte register (r8)
	KindSReg                           // segment register
	KindMem                            // memory operand
	KindWordMem                        // memory operand, written with the word keyword
	KindImm                            // 16-bit immediate
	KindWordImm                        // 16-bit immediate, written with the word keyword
	KindImm8                           // 8-bit immediate: a value, a port or a vector
	KindCount                          // 8-bit shift count, written in decimal
	KindFar                            // far pointer seg:off
	KindAX                             // the fixed ax of in and out, not encoded
	KindDX                             // the fixed dx of in and out, not encoded

	numKinds
)

// OperandShape describes the operand bytes that follow an opcode. A
// form's shape is derived from its operand kinds.
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

// shapes maps a form's encoded operands, one letter each in assembly
// order (r register, m memory, i 16-bit immediate, b 8-bit immediate,
// f far pointer), to its shape.
var shapes = map[string]OperandShape{
	"": ShapeNone, "r": ShapeR, "rr": ShapeRR, "ri": ShapeRI, "rb": ShapeRI8,
	"rm": ShapeRM, "mr": ShapeMR, "mi": ShapeMI, "i": ShapeI16, "b": ShapeI8, "f": ShapeSegOff,
}

// encodedAs is each operand kind's letter in shapes; fixed operands
// are not encoded.
var encodedAs = [numKinds]string{
	KindReg: "r", KindReg8: "r", KindSReg: "r",
	KindMem: "m", KindWordMem: "m",
	KindImm: "i", KindWordImm: "i",
	KindImm8: "b", KindCount: "b",
	KindFar: "f",
}

// regLimit is the number of registers of each register kind: Decode
// rejects a register byte at or above it.
var regLimit = [numKinds]uint8{KindReg: NumRegs, KindReg8: NumRegs8, KindSReg: NumSRegs}

// instrInfo is the static description of one instruction form.
type instrInfo struct {
	name  string
	opnds kinds
}

// kinds is a form's operand list, in assembly order.
type kinds []OperandKind

// instrDefs lists every defined instruction form by opcode (an empty
// name leaves the opcode undefined); init expands it into the dense
// dispatch table the decoder indexes on the fetch path.
var instrDefs = [256]instrInfo{
	OpNop:   {"nop", nil},
	OpHlt:   {"hlt", nil},
	OpCld:   {"cld", nil},
	OpStd:   {"std", nil},
	OpSti:   {"sti", nil},
	OpCli:   {"cli", nil},
	OpIret:  {"iret", nil},
	OpPushf: {"pushf", nil},
	OpPopf:  {"popf", nil},

	OpMovRI:   {"mov", kinds{KindReg, KindImm}},
	OpMovRR:   {"mov", kinds{KindReg, KindReg}},
	OpMovSR:   {"mov", kinds{KindSReg, KindReg}},
	OpMovRS:   {"mov", kinds{KindReg, KindSReg}},
	OpMovRM:   {"mov", kinds{KindReg, KindMem}},
	OpMovMR:   {"mov", kinds{KindMem, KindReg}},
	OpMovMI:   {"mov", kinds{KindWordMem, KindImm}},
	OpMovSM:   {"mov", kinds{KindSReg, KindMem}},
	OpMovMS:   {"mov", kinds{KindMem, KindSReg}},
	OpMovR8I:  {"mov", kinds{KindReg8, KindImm8}},
	OpMovR8R8: {"mov", kinds{KindReg8, KindReg8}},

	OpAddRR: {"add", kinds{KindReg, KindReg}},
	OpAddRI: {"add", kinds{KindReg, KindImm}},
	OpAddRM: {"add", kinds{KindReg, KindMem}},
	OpSubRR: {"sub", kinds{KindReg, KindReg}},
	OpSubRI: {"sub", kinds{KindReg, KindImm}},
	OpIncR:  {"inc", kinds{KindReg}},
	OpDecR:  {"dec", kinds{KindReg}},
	OpAndRR: {"and", kinds{KindReg, KindReg}},
	OpAndRI: {"and", kinds{KindReg, KindImm}},
	OpOrRR:  {"or", kinds{KindReg, KindReg}},
	OpOrRI:  {"or", kinds{KindReg, KindImm}},
	OpXorRR: {"xor", kinds{KindReg, KindReg}},
	OpCmpRR: {"cmp", kinds{KindReg, KindReg}},
	OpCmpRI: {"cmp", kinds{KindReg, KindImm}},
	OpCmpRM: {"cmp", kinds{KindReg, KindMem}},
	OpLea:   {"lea", kinds{KindReg, KindMem}},
	OpMulR8: {"mul", kinds{KindReg8}},
	OpShlRI: {"shl", kinds{KindReg, KindCount}},
	OpShrRI: {"shr", kinds{KindReg, KindCount}},

	OpJmp:    {"jmp", kinds{KindImm}},
	OpJmpFar: {"jmp", kinds{KindFar}},
	OpJe:     {"je", kinds{KindImm}},
	OpJne:    {"jne", kinds{KindImm}},
	OpJb:     {"jb", kinds{KindImm}},
	OpJbe:    {"jbe", kinds{KindImm}},
	OpJa:     {"ja", kinds{KindImm}},
	OpJae:    {"jae", kinds{KindImm}},
	OpLoop:   {"loop", kinds{KindImm}},
	OpCall:   {"call", kinds{KindImm}},
	OpRet:    {"ret", nil},

	OpPushR: {"push", kinds{KindReg}},
	OpPopR:  {"pop", kinds{KindReg}},
	OpPushI: {"push", kinds{KindWordImm}},
	OpPushS: {"push", kinds{KindSReg}},
	OpPopS:  {"pop", kinds{KindSReg}},

	OpMovsb:    {"movsb", nil},
	OpRepMovsb: {"rep movsb", nil},
	OpStosb:    {"stosb", nil},
	OpLodsb:    {"lodsb", nil},

	OpOutI:  {"out", kinds{KindImm8, KindAX}},
	OpInI:   {"in", kinds{KindAX, KindImm8}},
	OpOutDx: {"out", kinds{KindDX, KindAX}},
	OpInDx:  {"in", kinds{KindAX, KindDX}},
	OpInt:   {"int", kinds{KindImm8}},
	OpWPSet: {"wpset", kinds{KindReg}},
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
	shape  OperandShape
	valid  bool
	serial bool
	size   uint8
	// rLim holds Decode's limits for R1 and R2: the register count of
	// the kind that fills each, or 1 where no register does (the field
	// then decodes as 0).
	rLim [2]uint8
}

func init() {
	for op, info := range instrDefs {
		if info.name == "" {
			continue
		}
		e := &instrTable[op]
		e.instrInfo, e.valid, e.rLim = info, true, [2]uint8{1, 1}
		enc, nreg := "", 0
		for _, k := range info.opnds {
			enc += encodedAs[k]
			if lim := regLimit[k]; lim != 0 {
				e.rLim[nreg] = lim
				nreg++
			}
		}
		shape, ok := shapes[enc]
		if !ok {
			panic("isa: no shape for the operands of " + info.name)
		}
		e.shape, e.size = shape, uint8(shape.Size())
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

// Operands returns the kinds of op's operands in assembly order, or
// nil if op is invalid.
func (op Op) Operands() []OperandKind { return instrTable[op].opnds }

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
