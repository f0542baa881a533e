package imglint

import "ssos/internal/isa"

// node is one decoded instruction in the lifted CFG.
type node struct {
	inst isa.Inst
	size int
	// id is the node's position in graph.order: the analyses keep
	// per-node data in slices by id.
	id int
	// succs are intra-image successor offsets in decode order.
	succs []int
	// pred is the unique fall-through predecessor, or -1. It lets the
	// iret check walk back through the pushes that built the frame.
	pred int
}

// graph is the control-flow graph lifted from an image's entries.
type graph struct {
	// nodes is indexed by code offset: nodes[off] is the instruction
	// decoded at off, nil where no lifted path decodes one.
	nodes []*node
	// order is the visited offsets in ascending order, for
	// deterministic iteration.
	order []int
	// entries are the lift roots.
	entries []int
}

// lift decodes the image from every declared entry, following jumps and
// fall-throughs, and reports undecodable instructions, out-of-code jump
// targets and fall-through past the code boundary. Reachability is
// computed over [0, ce) only: the fill and data regions have their own
// checks.
func lift(img *Image, ce int, report func(string, int, string, ...any)) *graph {
	g := &graph{nodes: make([]*node, ce)}
	var work []int
	seen := make([]bool, ce)
	push := func(off int) {
		if !seen[off] {
			seen[off] = true
			work = append(work, off)
		}
	}
	for _, e := range img.Entries {
		if int(e.Off) < ce {
			push(int(e.Off))
			g.entries = append(g.entries, int(e.Off))
		}
	}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		in, size, ok := isa.Decode(img.Bytes[off:ce])
		if !ok {
			report("reachability", off, "reachable offset does not decode to a valid instruction (byte %#02x)", img.Bytes[off])
			continue
		}
		n := &node{inst: in, size: size, pred: -1}
		g.nodes[off] = n

		jump := func(target uint16) {
			if int(target) >= ce {
				report("reachability", off, "jump target %#x outside the code region [0, %#x)", target, ce)
				return
			}
			n.succs = append(n.succs, int(target))
			push(int(target))
		}
		fall := func() {
			next := off + size
			if next >= ce {
				report("reachability", off, "execution falls through the code boundary %#x", ce)
				return
			}
			n.succs = append(n.succs, next)
			push(next)
		}

		switch in.Op {
		case isa.OpJmp:
			jump(in.Imm)
		case isa.OpJe, isa.OpJne, isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae, isa.OpLoop:
			jump(in.Imm)
			fall()
		case isa.OpCall:
			jump(in.Imm)
			fall()
		case isa.OpJmpFar:
			// Far transfer: intra-image only when it targets this
			// image's own segment.
			if in.Imm == img.Seg {
				jump(in.Imm2)
			}
		case isa.OpIret, isa.OpRet:
			// Terminal: the continuation comes from a stack frame the
			// static image does not determine.
		default:
			fall()
		}
	}

	for off, n := range g.nodes {
		if n != nil {
			n.id = len(g.order)
			g.order = append(g.order, off)
		}
	}
	// Record unique fall-through predecessors (offset order makes the
	// result deterministic; a second fall-through predecessor clears
	// the link).
	for _, off := range g.order {
		n := g.nodes[off]
		if isJump(n.inst.Op) {
			continue
		}
		if m := g.at(off + n.size); m != nil {
			if m.pred == -1 {
				m.pred = off
			} else {
				m.pred = -2 // ambiguous
			}
		}
	}
	return g
}

// at returns the instruction lifted at off, or nil.
func (g *graph) at(off int) *node {
	if off < 0 || off >= len(g.nodes) {
		return nil
	}
	return g.nodes[off]
}

// isJump reports whether op transfers control away from the next
// instruction unconditionally.
func isJump(op isa.Op) bool {
	return op == isa.OpJmp || op == isa.OpJmpFar
}

// checkStraightLine enforces the §5.1 process restrictions over the
// CFG: only forward control transfers (the sole exception is the final
// `jmp FillTarget` closing the chain), and none of the instruction
// classes the paper forbids for primitive processes.
func checkStraightLine(img *Image, g *graph, report func(string, int, string, ...any)) {
	for _, off := range g.order {
		n := g.nodes[off]
		switch n.inst.Op {
		case isa.OpHlt, isa.OpCall, isa.OpRet, isa.OpLoop, isa.OpIret, isa.OpInt,
			isa.OpPushR, isa.OpPushI, isa.OpPushS, isa.OpPushf,
			isa.OpPopR, isa.OpPopS, isa.OpPopf:
			report("loop-freedom", off, "straight-line process uses forbidden instruction %q", n.inst.Op.Mnemonic())
		}
		for _, s := range n.succs {
			if s <= off && s != int(img.FillTarget) {
				report("loop-freedom", off, "backward edge to %#x (only `jmp %#x` may go back)", s, img.FillTarget)
			}
		}
	}
}

// checkSlotTargets requires every explicit jump target in a slot-padded
// image to be slot-aligned, so the scheduler's ip masking can never
// construct an ip the program itself would not reach.
func checkSlotTargets(img *Image, g *graph, report func(string, int, string, ...any)) {
	for _, off := range g.order {
		n := g.nodes[off]
		switch n.inst.Op {
		case isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae, isa.OpLoop, isa.OpCall:
			if n.inst.Imm%isa.SlotSize != 0 {
				report("slot-align", off, "jump target %#x is not slot-aligned", n.inst.Imm)
			}
		}
	}
}

// checkCS verifies cs confinement: far jumps must target an allowed
// segment, and an iret whose frame was built from constant pushes must
// push an allowed cs (the Figure-1 `push flags/cs/ip; iret` launch).
func checkCS(img *Image, g *graph, report func(string, int, string, ...any)) {
	allowed := func(seg uint16) bool {
		if seg == img.Seg {
			return true
		}
		for _, s := range img.CSAllowed {
			if s == seg {
				return true
			}
		}
		return false
	}
	for _, off := range g.order {
		n := g.nodes[off]
		switch n.inst.Op {
		case isa.OpJmpFar:
			if !allowed(n.inst.Imm) {
				report("cs-confinement", off, "far jump to segment %#x not in the allowed set", n.inst.Imm)
			}
		case isa.OpIret:
			// Walk back through unique fall-through predecessors
			// collecting the last three constant pushes; the middle
			// one is the cs the iret will load.
			var pushes []uint16
			cur := off
			for steps := 0; steps < 16 && len(pushes) < 3; steps++ {
				p := g.nodes[cur].pred
				if p < 0 {
					break
				}
				pn := g.nodes[p]
				if pn.inst.Op == isa.OpPushI {
					// Walking backward, pushes accumulate in reverse:
					// ip first, then cs, then flags.
					pushes = append(pushes, pn.inst.Imm)
				}
				cur = p
			}
			if len(pushes) >= 2 && !allowed(pushes[1]) {
				report("cs-confinement", off, "iret frame pushes cs %#x not in the allowed set", pushes[1])
			}
		}
	}
}
