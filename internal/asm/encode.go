package asm

import (
	"fmt"

	"ssos/internal/isa"
)

// bareOps maps the operand-less mnemonics to their opcodes. It is
// built once: both assembler passes consult it for every statement.
var bareOps = map[string]isa.Op{
	"nop": isa.OpNop, "hlt": isa.OpHlt, "cld": isa.OpCld,
	"std": isa.OpStd, "sti": isa.OpSti, "cli": isa.OpCli,
	"iret": isa.OpIret, "pushf": isa.OpPushf, "popf": isa.OpPopf,
	"movsb": isa.OpMovsb, "rep movsb": isa.OpRepMovsb,
	"stosb": isa.OpStosb, "lodsb": isa.OpLodsb, "ret": isa.OpRet,
}

// matchInstr selects the opcode for a mnemonic and operand-kind
// combination. Selection never depends on expression values, so
// instruction sizes are known in pass one.
func matchInstr(mn string, ops []operand) (isa.Op, error) {
	k := func(i int) operandKind { return ops[i].kind }
	bad := func() (isa.Op, error) {
		return 0, fmt.Errorf("unsupported operand combination for %q", mn)
	}
	// Operand-less mnemonics reject stray operands.
	if bare, ok := bareOps[mn]; ok {
		if len(ops) != 0 {
			return 0, fmt.Errorf("%s takes no operands", mn)
		}
		return bare, nil
	}

	switch mn {
	case "wpset":
		if len(ops) == 1 && ops[0].kind == opndReg {
			return isa.OpWPSet, nil
		}
		return bad()

	case "mov":
		if len(ops) != 2 {
			return bad()
		}
		switch {
		case k(0) == opndReg && k(1) == opndImm:
			return isa.OpMovRI, nil
		case k(0) == opndReg && k(1) == opndReg:
			return isa.OpMovRR, nil
		case k(0) == opndSReg && k(1) == opndReg:
			return isa.OpMovSR, nil
		case k(0) == opndReg && k(1) == opndSReg:
			return isa.OpMovRS, nil
		case k(0) == opndReg && k(1) == opndMem:
			return isa.OpMovRM, nil
		case k(0) == opndMem && k(1) == opndReg:
			return isa.OpMovMR, nil
		case k(0) == opndMem && k(1) == opndImm:
			return isa.OpMovMI, nil
		case k(0) == opndSReg && k(1) == opndMem:
			return isa.OpMovSM, nil
		case k(0) == opndMem && k(1) == opndSReg:
			return isa.OpMovMS, nil
		case k(0) == opndReg8 && k(1) == opndImm:
			return isa.OpMovR8I, nil
		case k(0) == opndReg8 && k(1) == opndReg8:
			return isa.OpMovR8R8, nil
		}
		return bad()

	case "add":
		if len(ops) != 2 || k(0) != opndReg {
			return bad()
		}
		switch k(1) {
		case opndReg:
			return isa.OpAddRR, nil
		case opndImm:
			return isa.OpAddRI, nil
		case opndMem:
			return isa.OpAddRM, nil
		}
		return bad()
	case "sub":
		if len(ops) != 2 || k(0) != opndReg {
			return bad()
		}
		switch k(1) {
		case opndReg:
			return isa.OpSubRR, nil
		case opndImm:
			return isa.OpSubRI, nil
		}
		return bad()
	case "inc":
		if len(ops) == 1 && k(0) == opndReg {
			return isa.OpIncR, nil
		}
		return bad()
	case "dec":
		if len(ops) == 1 && k(0) == opndReg {
			return isa.OpDecR, nil
		}
		return bad()
	case "and":
		if len(ops) != 2 || k(0) != opndReg {
			return bad()
		}
		switch k(1) {
		case opndReg:
			return isa.OpAndRR, nil
		case opndImm:
			return isa.OpAndRI, nil
		}
		return bad()
	case "or":
		if len(ops) != 2 || k(0) != opndReg {
			return bad()
		}
		switch k(1) {
		case opndReg:
			return isa.OpOrRR, nil
		case opndImm:
			return isa.OpOrRI, nil
		}
		return bad()
	case "xor":
		if len(ops) == 2 && k(0) == opndReg && k(1) == opndReg {
			return isa.OpXorRR, nil
		}
		return bad()
	case "cmp":
		if len(ops) != 2 || k(0) != opndReg {
			return bad()
		}
		switch k(1) {
		case opndReg:
			return isa.OpCmpRR, nil
		case opndImm:
			return isa.OpCmpRI, nil
		case opndMem:
			return isa.OpCmpRM, nil
		}
		return bad()
	case "lea":
		if len(ops) == 2 && k(0) == opndReg && k(1) == opndMem {
			return isa.OpLea, nil
		}
		return bad()
	case "mul":
		if len(ops) == 1 && k(0) == opndReg8 {
			return isa.OpMulR8, nil
		}
		return bad()
	case "shl":
		if len(ops) == 2 && k(0) == opndReg && k(1) == opndImm {
			return isa.OpShlRI, nil
		}
		return bad()
	case "shr":
		if len(ops) == 2 && k(0) == opndReg && k(1) == opndImm {
			return isa.OpShrRI, nil
		}
		return bad()

	case "jmp":
		if len(ops) != 1 {
			return bad()
		}
		switch k(0) {
		case opndImm:
			return isa.OpJmp, nil
		case opndFar:
			return isa.OpJmpFar, nil
		}
		return bad()
	case "je", "jz":
		return matchJcc(isa.OpJe, ops)
	case "jne", "jnz":
		return matchJcc(isa.OpJne, ops)
	case "jb", "jc":
		return matchJcc(isa.OpJb, ops)
	case "jbe":
		return matchJcc(isa.OpJbe, ops)
	case "ja":
		return matchJcc(isa.OpJa, ops)
	case "jae", "jnc":
		return matchJcc(isa.OpJae, ops)
	case "loop":
		return matchJcc(isa.OpLoop, ops)
	case "call":
		return matchJcc(isa.OpCall, ops)

	case "push":
		if len(ops) != 1 {
			return bad()
		}
		switch k(0) {
		case opndReg:
			return isa.OpPushR, nil
		case opndSReg:
			return isa.OpPushS, nil
		case opndImm:
			return isa.OpPushI, nil
		}
		return bad()
	case "pop":
		if len(ops) != 1 {
			return bad()
		}
		switch k(0) {
		case opndReg:
			return isa.OpPopR, nil
		case opndSReg:
			return isa.OpPopS, nil
		}
		return bad()

	case "out":
		if len(ops) != 2 {
			return bad()
		}
		if k(1) != opndReg || ops[1].reg != isa.AX {
			return 0, fmt.Errorf("out source must be ax")
		}
		switch {
		case k(0) == opndImm:
			return isa.OpOutI, nil
		case k(0) == opndReg && ops[0].reg == isa.DX:
			return isa.OpOutDx, nil
		}
		return bad()
	case "in":
		if len(ops) != 2 {
			return bad()
		}
		if k(0) != opndReg || ops[0].reg != isa.AX {
			return 0, fmt.Errorf("in destination must be ax")
		}
		switch {
		case k(1) == opndImm:
			return isa.OpInI, nil
		case k(1) == opndReg && ops[1].reg == isa.DX:
			return isa.OpInDx, nil
		}
		return bad()
	case "int":
		if len(ops) == 1 && k(0) == opndImm {
			return isa.OpInt, nil
		}
		return bad()
	}
	return 0, fmt.Errorf("unknown mnemonic %q", mn)
}

func matchJcc(op isa.Op, ops []operand) (isa.Op, error) {
	if len(ops) == 1 && ops[0].kind == opndImm {
		return op, nil
	}
	return 0, fmt.Errorf("%s wants one immediate target", op.Mnemonic())
}

// buildInst evaluates operand expressions and produces the final
// instruction for encoding.
func buildInst(op isa.Op, ops []operand, ctx *evalCtx) (isa.Inst, error) {
	in := isa.Inst{Op: op}

	evalU16 := func(e exprNode) (uint16, error) {
		if e == nil {
			return 0, nil
		}
		v, err := e.eval(ctx)
		if err != nil {
			return 0, err
		}
		return uint16(v), nil // 16-bit two's-complement truncation, as in nasm
	}
	setMem := func(m memOperand) error {
		d, err := evalU16(m.disp)
		if err != nil {
			return err
		}
		in.Mem = isa.MemOp{Seg: m.seg, Base: m.base, Disp: d}
		return nil
	}

	switch op.Shape() {
	case isa.ShapeNone:
		return in, nil
	case isa.ShapeR:
		switch ops[0].kind {
		case opndReg:
			in.R1 = uint8(ops[0].reg)
		case opndSReg:
			in.R1 = uint8(ops[0].sreg)
		case opndReg8:
			in.R1 = uint8(ops[0].reg8)
		}
		return in, nil
	case isa.ShapeRR:
		regByte := func(o operand) uint8 {
			switch o.kind {
			case opndReg:
				return uint8(o.reg)
			case opndSReg:
				return uint8(o.sreg)
			default:
				return uint8(o.reg8)
			}
		}
		in.R1, in.R2 = regByte(ops[0]), regByte(ops[1])
		return in, nil
	case isa.ShapeRI, isa.ShapeRI8:
		switch ops[0].kind {
		case opndReg:
			in.R1 = uint8(ops[0].reg)
		case opndReg8:
			in.R1 = uint8(ops[0].reg8)
		}
		v, err := evalU16(ops[1].imm)
		if err != nil {
			return in, err
		}
		in.Imm = v
		return in, nil
	case isa.ShapeRM:
		switch ops[0].kind {
		case opndReg:
			in.R1 = uint8(ops[0].reg)
		case opndSReg:
			in.R1 = uint8(ops[0].sreg)
		}
		return in, setMem(ops[1].mem)
	case isa.ShapeMR:
		switch ops[1].kind {
		case opndReg:
			in.R1 = uint8(ops[1].reg)
		case opndSReg:
			in.R1 = uint8(ops[1].sreg)
		}
		return in, setMem(ops[0].mem)
	case isa.ShapeMI:
		if err := setMem(ops[0].mem); err != nil {
			return in, err
		}
		v, err := evalU16(ops[1].imm)
		if err != nil {
			return in, err
		}
		in.Imm = v
		return in, nil
	case isa.ShapeI16, isa.ShapeI8:
		if len(ops) == 0 {
			return in, nil
		}
		// out/in use the first or second operand for the port.
		src := ops[0]
		if src.kind != opndImm && len(ops) > 1 {
			src = ops[1]
		}
		v, err := evalU16(src.imm)
		if err != nil {
			return in, err
		}
		in.Imm = v
		return in, nil
	case isa.ShapeSegOff:
		seg, err := evalU16(ops[0].far[0])
		if err != nil {
			return in, err
		}
		off, err := evalU16(ops[0].far[1])
		if err != nil {
			return in, err
		}
		in.Imm, in.Imm2 = seg, off
		return in, nil
	}
	return in, fmt.Errorf("internal: unhandled shape for %v", op)
}
