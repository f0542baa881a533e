package asm

import (
	"fmt"
	"sort"
	"testing"

	"ssos/internal/isa"
)

// This file keeps a reference copy of the per-mnemonic matcher the form
// table replaced (its operand-less table, its mnemonic switch and its
// conditional-jump helper), adapted only to the parser's single
// register id. TestMatcherMatchesReference holds matchInstr to it.

var refBareOps = map[string]isa.Op{
	"nop": isa.OpNop, "hlt": isa.OpHlt, "cld": isa.OpCld,
	"std": isa.OpStd, "sti": isa.OpSti, "cli": isa.OpCli,
	"iret": isa.OpIret, "pushf": isa.OpPushf, "popf": isa.OpPopf,
	"movsb": isa.OpMovsb, "rep movsb": isa.OpRepMovsb,
	"stosb": isa.OpStosb, "lodsb": isa.OpLodsb, "ret": isa.OpRet,
}

func refMatchInstr(mn string, ops []operand) (isa.Op, error) {
	k := func(i int) operandKind { return ops[i].kind }
	bad := func() (isa.Op, error) {
		return 0, fmt.Errorf("unsupported operand combination for %q", mn)
	}
	if bare, ok := refBareOps[mn]; ok {
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
		return refMatchJcc(isa.OpJe, ops)
	case "jne", "jnz":
		return refMatchJcc(isa.OpJne, ops)
	case "jb", "jc":
		return refMatchJcc(isa.OpJb, ops)
	case "jbe":
		return refMatchJcc(isa.OpJbe, ops)
	case "ja":
		return refMatchJcc(isa.OpJa, ops)
	case "jae", "jnc":
		return refMatchJcc(isa.OpJae, ops)
	case "loop":
		return refMatchJcc(isa.OpLoop, ops)
	case "call":
		return refMatchJcc(isa.OpCall, ops)

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
		if k(1) != opndReg || isa.Reg(ops[1].reg) != isa.AX {
			return 0, fmt.Errorf("out source must be ax")
		}
		switch {
		case k(0) == opndImm:
			return isa.OpOutI, nil
		case k(0) == opndReg && isa.Reg(ops[0].reg) == isa.DX:
			return isa.OpOutDx, nil
		}
		return bad()
	case "in":
		if len(ops) != 2 {
			return bad()
		}
		if k(0) != opndReg || isa.Reg(ops[0].reg) != isa.AX {
			return 0, fmt.Errorf("in destination must be ax")
		}
		switch {
		case k(1) == opndImm:
			return isa.OpInI, nil
		case k(1) == opndReg && isa.Reg(ops[1].reg) == isa.DX:
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

func refMatchJcc(op isa.Op, ops []operand) (isa.Op, error) {
	if len(ops) == 1 && ops[0].kind == opndImm {
		return op, nil
	}
	return 0, fmt.Errorf("%s wants one immediate target", op.Mnemonic())
}

// TestMatcherMatchesReference runs matchInstr in lockstep with the
// reference matcher: for every mnemonic (each form's, the jcc aliases
// and an unknown one) and every list of up to two parsed operands drawn
// from r16, ax, dx, sreg, r8, mem, imm and far, both must select the
// same opcode or both must reject.
func TestMatcherMatchesReference(t *testing.T) {
	kinds := []operand{
		{kind: opndReg, reg: uint8(isa.BX)},
		{kind: opndReg, reg: uint8(isa.AX)},
		{kind: opndReg, reg: uint8(isa.DX)},
		{kind: opndSReg, reg: uint8(isa.DS)},
		{kind: opndReg8, reg: uint8(isa.AH)},
		{kind: opndMem},
		{kind: opndImm},
		{kind: opndFar},
	}
	lists := [][]operand{nil}
	for _, a := range kinds {
		lists = append(lists, []operand{a})
		for _, b := range kinds {
			lists = append(lists, []operand{a, b})
		}
	}
	mnemonics := []string{"jz", "jnz", "jc", "jnc", "bogus", "db", "rep"}
	for mn := range forms {
		mnemonics = append(mnemonics, mn)
	}
	sort.Strings(mnemonics)
	matched := 0
	for _, mn := range mnemonics {
		for _, ops := range lists {
			got, err := matchInstr(mn, ops)
			want, refErr := refMatchInstr(mn, ops)
			if (err == nil) != (refErr == nil) || err == nil && got != want {
				t.Errorf("matchInstr(%q, %+v) = %v, %v; reference %v, %v", mn, ops, got, err, want, refErr)
			}
			if err == nil {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("nothing matched")
	}
}
