package imglint

import (
	"ssos/internal/isa"
)

// Abstract interpretation over the lifted CFG, used to prove the
// no-ROM-targeting-stores invariant (and, through the shared transfer
// function, to drive the ranking-certificate walker in cert.go). PR 5
// used a flat constant domain; this is the interval/set domain of
// interval.go, which tracks bounded-but-not-constant values — the shape
// every guest normalization sequence produces from an arbitrary word.
//
// The analysis is sound for the rom-store check's purpose: a store is
// reported only when the *entire provable* target window of the store
// intersects a ROM range. Unknown segments never produce findings;
// narrower value abstractions only shrink the provable window, so the
// domain upgrade can retire false positives but never invent one.

// absState is the abstract register file, plus one instruction of
// cmp-operand tracking for conditional-branch refinement: cmpL/cmpR
// remember which general register each cmp operand was read from (-1
// when it was not a plain register), so the out-edges of an immediately
// following jcc can narrow that register. Any other instruction clears
// the tracking — in every guest source the cmp directly precedes its
// jcc, and clearing keeps the state soundly conservative elsewhere.
type absState struct {
	regs  [isa.NumRegs]aval
	sregs [isa.NumSRegs]aval

	cmpValid   bool
	cmpL, cmpR int8
	cmpLV      aval
	cmpRV      aval
}

// topState is the any-state entry abstraction.
func topState() absState {
	var s absState
	for i := range s.regs {
		s.regs[i] = avTop()
	}
	for i := range s.sregs {
		s.sregs[i] = avTop()
	}
	return s
}

func (s absState) eq(o absState) bool {
	for i := range s.regs {
		if !s.regs[i].eq(o.regs[i]) {
			return false
		}
	}
	for i := range s.sregs {
		if !s.sregs[i].eq(o.sregs[i]) {
			return false
		}
	}
	if s.cmpValid != o.cmpValid {
		return false
	}
	if s.cmpValid {
		if s.cmpL != o.cmpL || s.cmpR != o.cmpR ||
			!s.cmpLV.eq(o.cmpLV) || !s.cmpRV.eq(o.cmpRV) {
			return false
		}
	}
	return true
}

// joinState joins element-wise; cmp tracking survives only when both
// sides carry the identical comparison.
func (s absState) joinState(o absState, widen bool) absState {
	var out absState
	for i := range s.regs {
		if widen {
			out.regs[i] = s.regs[i].widen(o.regs[i])
		} else {
			out.regs[i] = s.regs[i].join(o.regs[i])
		}
	}
	for i := range s.sregs {
		if widen {
			out.sregs[i] = s.sregs[i].widen(o.sregs[i])
		} else {
			out.sregs[i] = s.sregs[i].join(o.sregs[i])
		}
	}
	if s.cmpValid && o.cmpValid && s.cmpL == o.cmpL && s.cmpR == o.cmpR {
		out.cmpValid = true
		out.cmpL, out.cmpR = s.cmpL, s.cmpR
		out.cmpLV = s.cmpLV.join(o.cmpLV)
		out.cmpRV = s.cmpRV.join(o.cmpRV)
	}
	return out
}

func (s *absState) getR(r uint8) aval {
	if int(r) < len(s.regs) {
		return s.regs[r]
	}
	return avTop()
}

func (s *absState) setR(r uint8, v aval) {
	if int(r) < len(s.regs) {
		s.regs[r] = v
		// A write to a tracked cmp operand invalidates the tracking.
		if s.cmpValid && (int8(r) == s.cmpL || int8(r) == s.cmpR) {
			s.cmpValid = false
		}
	}
}

func (s *absState) getS(r uint8) aval {
	if int(r) < len(s.sregs) {
		return s.sregs[r]
	}
	return avTop()
}

func (s *absState) setS(r uint8, v aval) {
	if int(r) < len(s.sregs) {
		s.sregs[r] = v
	}
}

// transfer applies one instruction to the abstract register state, in
// place. Memory is not tracked here (loads produce top): the global
// fixpoint must stay sound for arbitrary images whose stores it cannot
// resolve. The certificate walker layers word-tracked memory on top
// (cert.go).
func transfer(in isa.Inst, s *absState) {
	clearCmp := true
	binop := func(r uint8, rhs aval, f func(a, b aval) aval) {
		s.setR(r, f(s.getR(r), rhs))
	}

	switch in.Op {
	case isa.OpNop, isa.OpCld, isa.OpStd, isa.OpSti, isa.OpCli,
		isa.OpOutI, isa.OpOutDx, isa.OpWPSet,
		isa.OpJmp, isa.OpJmpFar, isa.OpJe, isa.OpJne, isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
		// No register effect. Conditional jumps preserve cmp tracking so
		// edge refinement (refineEdge) can use it, and nop preserves it
		// because slot padding places nop runs between a cmp and its jcc
		// (nop does not touch the flags).
		switch in.Op {
		case isa.OpNop, isa.OpJe, isa.OpJne, isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
			clearCmp = false
		}
	case isa.OpCmpRR:
		s.cmpValid = true
		s.cmpL, s.cmpR = int8(in.R1), int8(in.R2)
		s.cmpLV, s.cmpRV = s.getR(in.R1), s.getR(in.R2)
		clearCmp = false
	case isa.OpCmpRI:
		s.cmpValid = true
		s.cmpL, s.cmpR = int8(in.R1), -1
		s.cmpLV, s.cmpRV = s.getR(in.R1), avConst(in.Imm)
		clearCmp = false
	case isa.OpCmpRM:
		s.cmpValid = true
		s.cmpL, s.cmpR = int8(in.R1), -1
		s.cmpLV, s.cmpRV = s.getR(in.R1), avTop()
		clearCmp = false
	case isa.OpMovRI:
		s.setR(in.R1, avConst(in.Imm))
	case isa.OpMovRR:
		s.setR(in.R1, s.getR(in.R2))
	case isa.OpMovSR:
		s.setS(in.R1, s.getR(in.R2))
	case isa.OpMovRS:
		s.setR(in.R1, s.getS(in.R2))
	case isa.OpMovRM, isa.OpAddRM, isa.OpPopR, isa.OpInI, isa.OpInDx:
		switch in.Op {
		case isa.OpInI, isa.OpInDx:
			s.setR(uint8(isa.AX), avTop())
		default:
			s.setR(in.R1, avTop())
		}
	case isa.OpMovSM, isa.OpPopS:
		s.setS(in.R1, avTop())
	case isa.OpMovR8I, isa.OpMovR8R8:
		// A byte-half write invalidates the containing word register.
		if r8 := isa.Reg8(in.R1); r8.Valid() {
			parent, _ := r8.Parent()
			s.setR(uint8(parent), avTop())
		}
	case isa.OpMulR8:
		s.setR(uint8(isa.AX), avTop())
	case isa.OpAddRI:
		binop(in.R1, avConst(in.Imm), avAdd)
	case isa.OpSubRI:
		binop(in.R1, avConst(in.Imm), avSub)
	case isa.OpAndRI:
		binop(in.R1, avConst(in.Imm), avAnd)
	case isa.OpOrRI:
		binop(in.R1, avConst(in.Imm), avOr)
	case isa.OpShlRI:
		s.setR(in.R1, avShl(s.getR(in.R1), in.Imm))
	case isa.OpShrRI:
		s.setR(in.R1, avShr(s.getR(in.R1), in.Imm))
	case isa.OpAddRR:
		binop(in.R1, s.getR(in.R2), avAdd)
	case isa.OpSubRR:
		binop(in.R1, s.getR(in.R2), avSub)
	case isa.OpAndRR:
		binop(in.R1, s.getR(in.R2), avAnd)
	case isa.OpOrRR:
		binop(in.R1, s.getR(in.R2), avOr)
	case isa.OpXorRR:
		if in.R1 == in.R2 {
			s.setR(in.R1, avConst(0))
		} else {
			binop(in.R1, s.getR(in.R2), avXor)
		}
	case isa.OpIncR:
		binop(in.R1, avConst(1), avAdd)
	case isa.OpDecR:
		binop(in.R1, avConst(1), avSub)
	case isa.OpLea:
		base := avConst(in.Mem.Disp)
		if r, ok := in.Mem.Base.Reg(); ok {
			base = avAdd(base, s.getR(uint8(r)))
		}
		s.setR(in.R1, base)
	case isa.OpMovsb, isa.OpLodsb:
		// Pointer step with unknown direction flag: unknown.
		s.setR(uint8(isa.SI), avTop())
		if in.Op == isa.OpMovsb {
			s.setR(uint8(isa.DI), avTop())
		} else {
			s.setR(uint8(isa.AX), avTop())
		}
	case isa.OpStosb:
		s.setR(uint8(isa.DI), avTop())
	case isa.OpRepMovsb:
		s.setR(uint8(isa.SI), avTop())
		s.setR(uint8(isa.DI), avTop())
		s.setR(uint8(isa.CX), avConst(0))
	case isa.OpInt:
		// A software-interrupt handler may clobber anything.
		*s = topState()
		return
	case isa.OpCall:
		s.setR(uint8(isa.SP), avTop())
	case isa.OpPushR, isa.OpPushI, isa.OpPushS, isa.OpPushf, isa.OpPopf:
		s.setR(uint8(isa.SP), avTop())
	}
	if clearCmp {
		s.cmpValid = false
	}
}

// jccRelation maps a conditional-jump opcode to the relation that holds
// on its taken edge (unsigned comparisons, matching the machine's
// flags).
func jccRelation(op isa.Op) (rel string, ok bool) {
	switch op {
	case isa.OpJe:
		return "eq", true
	case isa.OpJne:
		return "ne", true
	case isa.OpJb:
		return "b", true
	case isa.OpJbe:
		return "be", true
	case isa.OpJa:
		return "a", true
	case isa.OpJae:
		return "ae", true
	}
	return "", false
}

// negateRel returns the relation holding on the fall-through edge.
func negateRel(rel string) string {
	switch rel {
	case "eq":
		return "ne"
	case "ne":
		return "eq"
	case "b":
		return "ae"
	case "ae":
		return "b"
	case "be":
		return "a"
	case "a":
		return "be"
	}
	return rel
}

// refineEdge narrows, in place, the state flowing along one out-edge
// of a conditional jump, using the tracked cmp operands. taken selects
// the jump-taken edge (the relation holds) vs the fall-through (its
// negation holds).
func refineEdge(s *absState, op isa.Op, taken bool) {
	rel, ok := jccRelation(op)
	if !ok || !s.cmpValid {
		return
	}
	if !taken {
		rel = negateRel(rel)
	}
	if s.cmpL >= 0 {
		s.regs[s.cmpL] = refine(s.cmpLV, s.cmpRV, rel)
	}
	if s.cmpR >= 0 {
		s.regs[s.cmpR] = refine(s.cmpRV, s.cmpLV, negateSides(rel))
	}
	s.cmpValid = false
}

// negateSides converts `a rel b` into the relation `b rel' a`.
func negateSides(rel string) string {
	switch rel {
	case "b":
		return "a"
	case "a":
		return "b"
	case "be":
		return "ae"
	case "ae":
		return "be"
	}
	return rel // eq and ne are symmetric
}

// widenAfter is the per-offset join budget of the fixpoint: past this
// many state updates at one offset, joins switch to widening so the
// tall interval lattice cannot produce long ascending chains.
const widenAfter = 8

// fixpoint computes the input state of every lifted node by forward
// propagation to a fixed point, refining conditional-branch edges. The
// states are indexed by node id; reached reports which nodes any state
// flowed into. Nop runs are propagated node by node: skipping them
// would change how many updates each node sees, and with them where
// widening starts.
func fixpoint(g *graph) (in []absState, reached []bool) {
	in = make([]absState, len(g.order))
	reached = make([]bool, len(g.order))
	updates := make([]int, len(g.order))
	var work []*node
	for _, e := range g.entries {
		n := g.at(e)
		if n == nil {
			continue
		}
		in[n.id] = topState() // any machine state at entry
		reached[n.id] = true
		work = append(work, n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[n.id]
		transfer(n.inst, &out)
		_, conditional := jccRelation(n.inst.Op)
		for si, succ := range n.succs {
			m := g.at(succ)
			if m == nil {
				continue
			}
			edge := out
			if conditional {
				// lift appends the taken edge first, the fall-through
				// second (cfg.go).
				edge = in[n.id]
				refineEdge(&edge, n.inst.Op, si == 0)
			}
			next := edge
			if reached[m.id] {
				next = in[m.id].joinState(edge, updates[m.id] > widenAfter)
			}
			if !reached[m.id] || !next.eq(in[m.id]) {
				in[m.id] = next
				reached[m.id] = true
				updates[m.id]++
				work = append(work, m)
			}
		}
	}
	return in, reached
}

// checkStores runs the abstract interpretation and reports every store
// whose entire provable target window intersects a ROM range.
func checkStores(img *Image, g *graph, report func(string, int, string, ...any)) {
	states, reached := fixpoint(g)
	for id, off := range g.order {
		if !reached[id] {
			continue
		}
		lo, hi, known := storeTarget(g.nodes[off].inst, &states[id])
		if !known {
			continue
		}
		for _, r := range img.ROM {
			if lo < r.End && r.Start < hi {
				report("rom-store", off, "store provably targets ROM %s [%05x..%05x)", r.Name, r.Start, r.End)
				break
			}
		}
	}
}

// storeTarget returns the linear byte range a store instruction may
// write, when the abstract state pins the segment down. A bounded
// offset narrows the window; an unbounded one widens it to the
// segment's full 64 KiB window — still a proof, since real-mode offsets
// cannot leave it.
func storeTarget(in isa.Inst, s *absState) (lo, hi uint32, known bool) {
	segWindow := func(seg aval) (uint32, uint32, bool) {
		sv, ok := seg.constVal()
		if !ok {
			return 0, 0, false
		}
		base := uint32(sv) << 4
		return base, base + 0x10000, true
	}
	memTarget := func(m isa.MemOp, width uint32) (uint32, uint32, bool) {
		seg := s.getS(uint8(m.Seg))
		sv, ok := seg.constVal()
		if !ok {
			return 0, 0, false
		}
		off := avConst(m.Disp)
		if r, rok := m.Base.Reg(); rok {
			off = avAdd(off, s.getR(uint8(r)))
		}
		if off.isTop() {
			return segWindow(seg)
		}
		olo, ohi := off.bounds()
		base := uint32(sv) << 4
		return base + uint32(olo), base + uint32(ohi) + width, true
	}

	switch in.Op {
	case isa.OpMovMR, isa.OpMovMI, isa.OpMovMS:
		return memTarget(in.Mem, 2)
	case isa.OpStosb:
		seg := s.getS(uint8(isa.ES))
		sv, ok := seg.constVal()
		if !ok {
			return 0, 0, false
		}
		di := s.getR(uint8(isa.DI))
		if di.isTop() {
			return segWindow(seg)
		}
		dlo, dhi := di.bounds()
		base := uint32(sv) << 4
		return base + uint32(dlo), base + uint32(dhi) + 1, true
	case isa.OpMovsb, isa.OpRepMovsb:
		return segWindow(s.getS(uint8(isa.ES)))
	}
	return 0, 0, false
}
