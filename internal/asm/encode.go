package asm

import (
	"fmt"

	"ssos/internal/isa"
)

// forms indexes every instruction form by mnemonic, in opcode order,
// and the jcc aliases by the forms of the jumps they spell. It is built
// once: the parser matches every instruction against it.
var forms = func() map[string][]isa.Op {
	m := make(map[string][]isa.Op)
	for b := 0; b < 256; b++ {
		if op := isa.Op(b); op.Valid() {
			m[op.Mnemonic()] = append(m[op.Mnemonic()], op)
		}
	}
	for alias, mn := range jccAliases {
		m[alias] = m[mn]
	}
	return m
}()

// jccAliases are the alternative spellings of conditional jumps.
var jccAliases = map[string]string{"jz": "je", "jnz": "jne", "jc": "jb", "jnc": "jae"}

// parsedAs is the parsed operand kind each form operand kind accepts.
var parsedAs = [...]operandKind{
	isa.KindReg: opndReg, isa.KindReg8: opndReg8, isa.KindSReg: opndSReg,
	isa.KindMem: opndMem, isa.KindWordMem: opndMem,
	isa.KindImm: opndImm, isa.KindWordImm: opndImm, isa.KindImm8: opndImm, isa.KindCount: opndImm,
	isa.KindFar: opndFar, isa.KindAX: opndReg, isa.KindDX: opndReg,
}

// matchInstr selects the opcode for a mnemonic and operand-kind
// combination: the first form, in opcode order, whose operands the
// parsed ones fit. Selection never depends on expression values, so
// the parser matches each instruction once and its size is known in
// pass one.
func matchInstr(mn string, ops []operand) (isa.Op, error) {
	cands, ok := forms[mn]
	if !ok {
		return 0, fmt.Errorf("unknown mnemonic %q", mn)
	}
	for _, op := range cands {
		if fits(op.Operands(), ops) {
			return op, nil
		}
	}
	return 0, fmt.Errorf("unsupported operand combination for %q", mn)
}

// fits reports whether the parsed operands fit a form's operand kinds.
func fits(kinds []isa.OperandKind, ops []operand) bool {
	if len(kinds) != len(ops) {
		return false
	}
	for i, k := range kinds {
		o := &ops[i]
		if o.kind != parsedAs[k] ||
			k == isa.KindAX && isa.Reg(o.reg) != isa.AX ||
			k == isa.KindDX && isa.Reg(o.reg) != isa.DX {
			return false
		}
	}
	return true
}

// buildInst evaluates operand expressions and produces the final
// instruction for encoding. Register operands fill R1, then R2; the
// others fill their own fields.
func buildInst(op isa.Op, ops []operand, ctx *evalCtx) (isa.Inst, error) {
	in := isa.Inst{Op: op}
	regs := 0
	for i, k := range op.Operands() {
		o := &ops[i]
		var err error
		switch k {
		case isa.KindReg, isa.KindReg8, isa.KindSReg:
			if regs == 0 {
				in.R1 = o.reg
			} else {
				in.R2 = o.reg
			}
			regs++
		case isa.KindMem, isa.KindWordMem:
			in.Mem = isa.MemOp{Seg: o.mem.seg, Base: o.mem.base}
			in.Mem.Disp, err = evalWord(o.mem.disp, ctx)
		case isa.KindImm, isa.KindWordImm:
			in.Imm, err = evalWord(o.imm, ctx)
		case isa.KindImm8, isa.KindCount:
			var v byte
			v, err = evalByte(o.imm, ctx)
			in.Imm = uint16(v)
		case isa.KindFar:
			if in.Imm, err = evalWord(o.far[0], ctx); err == nil {
				in.Imm2, err = evalWord(o.far[1], ctx)
			}
		}
		if err != nil {
			return in, err
		}
	}
	return in, nil
}

// evalWord evaluates a 16-bit operand; nil means 0. Out-of-range values
// keep their low 16 bits (two's-complement truncation, as in nasm).
func evalWord(e exprNode, ctx *evalCtx) (uint16, error) {
	if e == nil {
		return 0, nil
	}
	v, err := e.eval(ctx)
	return uint16(v), err
}

// evalByte evaluates an 8-bit operand or db item, which must lie in
// -128..255: a byte read either as signed or as unsigned.
func evalByte(e exprNode, ctx *evalCtx) (byte, error) {
	v, err := e.eval(ctx)
	if err != nil {
		return 0, err
	}
	if v < -128 || v > 255 {
		return 0, fmt.Errorf("value %d does not fit in a byte (-128..255)", v)
	}
	return byte(v), nil
}
