package imglint

import (
	"fmt"
	"reflect"
)

// referenceFixpoint is the offset-keyed fixpoint the id-indexed one
// replaced, kept as its specification: the same worklist, join order
// and widening counts, over maps.
func referenceFixpoint(g *graph) map[int]absState {
	in := map[int]absState{}
	seen := map[int]bool{}
	updates := map[int]int{}
	var work []int
	for _, e := range g.entries {
		if g.at(e) == nil {
			continue
		}
		in[e] = topState()
		seen[e] = true
		work = append(work, e)
	}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		n := g.nodes[off]
		out := in[off]
		transfer(n.inst, &out)
		_, conditional := jccRelation(n.inst.Op)
		for si, succ := range n.succs {
			if g.at(succ) == nil {
				continue
			}
			edge := out
			if conditional {
				edge = in[off]
				refineEdge(&edge, n.inst.Op, si == 0)
			}
			var next absState
			if seen[succ] {
				next = in[succ].joinState(edge, updates[succ] > widenAfter)
			} else {
				next = edge
			}
			if !seen[succ] || !next.eq(in[succ]) {
				in[succ] = next
				seen[succ] = true
				updates[succ]++
				work = append(work, succ)
			}
		}
	}
	return in
}

// FixpointMatchesReference lifts img as Check does and compares the
// fixpoint's input state at every lifted node with the reference's. It
// describes the first difference, or returns "" when they agree.
func FixpointMatchesReference(img Image) string {
	if len(img.Bytes) == 0 {
		return ""
	}
	ce := min(img.codeEnd(), len(img.Bytes))
	g := lift(&img, ce, func(string, int, string, ...any) {})
	want := referenceFixpoint(g)
	got, reached := fixpoint(g)
	states := 0
	for id, off := range g.order {
		w, ok := want[off]
		if reached[id] != ok {
			return fmt.Sprintf("%s+%#x: reached %v, reference %v", img.Name, off, reached[id], ok)
		}
		if !ok {
			continue
		}
		states++
		if !reflect.DeepEqual(got[id], w) {
			return fmt.Sprintf("%s+%#x: state %+v, reference %+v", img.Name, off, got[id], w)
		}
	}
	if states != len(want) {
		return fmt.Sprintf("%s: %d states, reference %d", img.Name, states, len(want))
	}
	return ""
}
