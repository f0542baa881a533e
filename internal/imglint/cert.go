package imglint

import (
	"fmt"

	"ssos/internal/isa"
	"ssos/internal/model"
)

// Ranking-certificate checker: a static convergence prover for mailbox
// token-ring guest images.
//
// A certificate (RingCert) names N node images, the shared ring slots
// they own, each slot's canonical value domain, and the declared legal
// set over ring configurations. The checker proves, from the shipped
// ROM bytes alone:
//
//  1. Termination discipline (graph obligations): lifting each image's
//     CFG from EVERY slot boundary — the arbitrary entry points the
//     scheduler's ip masking can construct — yields a graph whose only
//     cycles pass through offset 0 and that contains no instruction
//     that could park or escape (hlt, iret, ret, int, call, loop,
//     byte-string ops). So an arbitrary mid-image entry always reaches
//     the iteration head within one pass.
//
//  2. Normalization discipline (fork walk): one abstract loop
//     iteration from offset 0 with arbitrary registers and arbitrary
//     slot contents (top). Every store must target the node's own slot
//     or its own data window, every own-slot store must land inside
//     the slot's canonical domain, every conditional branch must test
//     values the abstraction has bounded (i.e. values that passed a
//     normalization sequence — a branch on an unnormalized word would
//     make behaviour depend on unobservable state), and every path
//     must return to offset 0. This is the soundness premise under
//     which the node's observable behaviour factors through the
//     canonical domains.
//
//  3. Move extraction (singleton walks): for every canonical
//     (self, left, right) triple, an abstract iteration with those
//     singleton slot values. All branches decide, so the walk is
//     deterministic and yields the node's exact move: whether it
//     writes its slot and which value. The extracted table is the
//     transition relation OF THE BYTES, checked against the declared
//     protocol moves when the certificate supplies them.
//
//  4. Ranking (product): over the product of the canonical domains,
//     the extracted relation must keep the declared legal set closed,
//     leave no illegal state deadlocked, and have no illegal cycle.
//     One model.System.Heights walk of the relation decides the last
//     and ranks every state by its exact steps-to-legal height; the
//     largest height is the longest illegal path — a machine-checked
//     steps-to-legal bound for the shipped images. On a finite,
//     deadlock-free graph heights exist iff some strictly decreasing
//     ranking does, so no declared ranking function is needed.
//
// The reported bound adds N grace steps to the ranked bound: an
// arbitrary mid-image entry can execute at most one stray pass per
// node before reaching the iteration head (obligation 1), and a stray
// pass with arbitrary registers is equivalent to one more adversarial
// fault — self-stabilization from an arbitrary state absorbs it, at
// the price of one activation per node (the same sequential
// composition argument PR 8's layered bound uses).
//
// Known incompletenesses are documented in DESIGN.md: the certificate
// is at composite atomicity (the read/write-atomicity refinement is
// covered by the model's delay systems and the dynamic stuttering-
// refinement tests), and state spaces past DefaultMaxStates get
// obligations 1-3 only (Mode "local").

// RingNode is one certified node image and its footprint.
type RingNode struct {
	// Image is the node's ROM image spec (Bytes, Seg, CodeEnd used).
	Image Image
	// Slot is the index (into RingCert.Slots) of the slot this node
	// owns — the only slot it may write.
	Slot int
	// Left and Right are the slot indices the node reads, -1 for an
	// unused side. A two-node ring may read the same slot on both
	// sides.
	Left, Right int
	// DataLo, DataHi bound the node's private data window (linear
	// addresses, half-open): scratch stores land here.
	DataLo, DataHi uint32
}

// RingCert is a convergence certificate for a ring of node images: the
// ring's layout and the declared protocol it must implement. The
// ranking is not declared; the checker computes it from the bytes.
type RingCert struct {
	// Name labels the certificate and its findings.
	Name string
	// N is the ring size; Nodes and Slots both have N entries.
	N int
	// Slots are the linear addresses of the shared ring slots.
	Slots []uint32
	// Domains are the canonical value domains per slot, strictly
	// ascending.
	Domains [][]uint16
	// Nodes are the certified images.
	Nodes []RingNode

	// Moves, when non-nil, is the declared protocol move of node i on a
	// canonical triple; the extracted moves must match exactly.
	Moves func(node int, self, left, right uint16) (write bool, value uint16)
	// Legal is the declared legal set over canonical configurations;
	// nil selects Mode "local" (obligations only, no product).
	Legal func(x []uint16) bool
}

// DefaultMaxStates caps the product enumeration; larger spaces fall
// back to Mode "local".
const DefaultMaxStates = 200_000

// CertResult is the outcome of checking one certificate.
type CertResult struct {
	// Name and N echo the certificate.
	Name string `json:"name"`
	N    int    `json:"n"`
	// Mode is "ranking" (full product certificate) or "local"
	// (per-image obligations only).
	Mode string `json:"mode"`
	// States is the product state count ("ranking" mode only).
	States int `json:"states"`
	// RankBound is the longest illegal path of the extracted relation;
	// Bound adds the N-step mid-entry grace. Both are -1 in "local"
	// mode or when findings prevented ranking.
	RankBound int `json:"rank_bound"`
	Bound     int `json:"bound"`
	// Findings are the violated obligations (empty for a proved
	// certificate).
	Findings []Finding `json:"findings,omitempty"`
}

// Proved reports whether the certificate checked out: no findings,
// and in ranking mode a finite bound.
func (r CertResult) Proved() bool {
	if len(r.Findings) != 0 {
		return false
	}
	return r.Mode == "local" || r.Bound >= 0
}

// walk budgets. A slot-padded iteration is ~45 instructions spread
// over 16-byte slots (so ~16 CFG nodes each including nop padding);
// the budgets are an order of magnitude above.
const (
	walkMaxSteps = 8192 // abstract steps per path
	walkMaxForks = 512  // live paths per fork walk
)

// certEnv is the per-node walking context.
type certEnv struct {
	cert   *RingCert
	node   *RingNode
	g      *graph
	report func(check string, off int, format string, args ...any)
}

// move is one extracted node behaviour: whether the node writes its
// slot, and the written value's position in the slot's domain.
type move struct {
	write bool
	to    int
}

// moveTable is one node's extracted moves, indexed by the domain
// positions of its (self, left, right) triple: entry
// (self·nl + left)·nr + right, where an unused side's domain is {0}.
type moveTable struct {
	nl, nr int
	moves  []move
}

// wpath is one in-flight abstract walk path.
type wpath struct {
	off int
	st  absState
	// mem holds the node data-window words written this pass; nil
	// until the path's first data-window store.
	mem    map[uint32]aval
	writes []aval // own-slot stores, in order
	steps  int
}

func (w *wpath) clone() *wpath {
	var mem map[uint32]aval
	if w.mem != nil {
		mem = make(map[uint32]aval, len(w.mem))
		for k, v := range w.mem {
			mem[k] = v
		}
	}
	return &wpath{
		off:    w.off,
		st:     w.st,
		mem:    mem,
		writes: append([]aval(nil), w.writes...),
		steps:  w.steps,
	}
}

// CheckRingCert verifies one certificate. It never panics; malformed
// certificates and violating images yield findings.
func CheckRingCert(c RingCert) CertResult {
	res := CertResult{Name: c.Name, N: c.N, Mode: "local", RankBound: -1, Bound: -1}
	report := func(image, check string, off int, format string, args ...any) {
		res.Findings = append(res.Findings, Finding{
			Image:  image,
			Check:  check,
			Offset: off,
			Msg:    fmt.Sprintf(format, args...),
		})
	}

	if c.N < 1 || len(c.Nodes) != c.N || len(c.Slots) != c.N || len(c.Domains) != c.N {
		report(c.Name, "cert-spec", -1, "certificate needs N=%d nodes, slots and domains (got %d/%d/%d)",
			c.N, len(c.Nodes), len(c.Slots), len(c.Domains))
		return res
	}
	for i, d := range c.Domains {
		if len(d) == 0 {
			report(c.Name, "cert-spec", -1, "slot %d has an empty domain", i)
			return res
		}
		for j := 1; j < len(d); j++ {
			if d[j] <= d[j-1] {
				// A repeated value would alias two product positions.
				report(c.Name, "cert-spec", -1, "slot %d domain is not strictly ascending", i)
				return res
			}
		}
	}

	// Per-node obligations and move extraction.
	moves := make([]moveTable, c.N)
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Slot < 0 || n.Slot >= c.N {
			report(n.Image.Name, "cert-spec", -1, "node %d owns out-of-range slot %d", i, n.Slot)
			return res
		}
		env, ok := liftCertGraph(c, n, report)
		if !ok {
			continue
		}
		env.checkGraphObligations()
		env.forkWalk()
		moves[i] = env.extractMoves(i)
	}
	if len(res.Findings) > 0 {
		return res
	}

	// Product ranking.
	states := 1
	for _, d := range c.Domains {
		if states > DefaultMaxStates/len(d)+1 {
			states = DefaultMaxStates + 1
			break
		}
		states *= len(d)
	}
	if c.Legal == nil || states > DefaultMaxStates {
		return res // Mode "local": obligations proved, no product bound
	}
	res.Mode = "ranking"
	res.States = states
	rankProduct(&c, moves, &res, report)
	return res
}

// liftCertGraph lifts a node image's CFG from every slot boundary —
// the entry set the scheduler's ip masking can reach.
func liftCertGraph(c RingCert, n *RingNode, report func(string, string, int, string, ...any)) (*certEnv, bool) {
	img := n.Image // copy: we augment the entry set
	if len(img.Bytes) == 0 {
		report(img.Name, "cert-spec", -1, "node image is empty")
		return nil, false
	}
	ce := img.codeEnd()
	if ce > len(img.Bytes) {
		report(img.Name, "cert-spec", -1, "CodeEnd %#x exceeds image size %#x", ce, len(img.Bytes))
		return nil, false
	}
	var entries []Entry
	for off := 0; off < ce; off += isa.SlotSize {
		entries = append(entries, Entry{Name: "slot", Off: uint16(off)})
	}
	img.Entries = entries
	rep := func(check string, off int, format string, args ...any) {
		report(img.Name, check, off, format, args...)
	}
	g := lift(&img, ce, rep)
	if g.at(0) == nil {
		rep("cert-entry", 0, "iteration head (offset 0) is not a decodable instruction")
		return nil, false
	}
	return &certEnv{cert: &c, node: n, g: g, report: rep}, true
}

// checkGraphObligations proves mid-entry termination: no parking or
// escaping instruction anywhere reachable, and every cycle passes
// through offset 0 (the graph minus node 0 is acyclic), so any entry
// reaches the iteration head within one acyclic pass.
func (e *certEnv) checkGraphObligations() {
	for _, off := range e.g.order {
		switch e.g.nodes[off].inst.Op {
		case isa.OpHlt, isa.OpIret, isa.OpRet, isa.OpInt, isa.OpCall, isa.OpLoop,
			isa.OpMovsb, isa.OpStosb, isa.OpLodsb, isa.OpRepMovsb:
			e.report("cert-termination", off, "certified image uses forbidden instruction %q",
				e.g.nodes[off].inst.Op.Mnemonic())
		}
	}
	// Cycle check over the graph with node 0 removed: iterative DFS
	// with colours by node id (0 white, 1 on stack, 2 done).
	colour := make([]uint8, len(e.g.order))
	var stack []int
	for _, root := range e.g.order {
		if root == 0 || colour[e.g.nodes[root].id] != 0 {
			continue
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			off := stack[len(stack)-1]
			if n := e.g.nodes[off]; colour[n.id] == 0 {
				colour[n.id] = 1
				for _, s := range n.succs {
					if s == 0 {
						continue
					}
					m := e.g.at(s)
					if m == nil {
						continue
					}
					switch colour[m.id] {
					case 0:
						stack = append(stack, s)
					case 1:
						e.report("cert-termination", off,
							"cycle avoiding the iteration head: back edge to %#x", s)
						colour[m.id] = 2
					}
				}
			} else {
				colour[n.id] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
}

// readMem resolves one abstract memory read.
func (e *certEnv) readMem(p *wpath, m isa.MemOp, slotVals []aval) aval {
	lin, ok := e.resolve(&p.st, m)
	if !ok {
		return avTop()
	}
	for j, addr := range e.cert.Slots {
		if lin == addr {
			// The node's own slot reflects its own earlier write (the
			// discipline writes it at most once, at the end, but stay
			// exact anyway).
			if j == e.node.Slot && len(p.writes) > 0 {
				return p.writes[len(p.writes)-1]
			}
			return slotVals[j]
		}
	}
	if lin >= e.node.DataLo && lin+1 < e.node.DataHi {
		if v, ok := p.mem[lin]; ok {
			return v
		}
	}
	return avTop()
}

// resolve turns a memory operand into a linear address when the
// abstract state pins both segment and offset to constants.
func (e *certEnv) resolve(st *absState, m isa.MemOp) (uint32, bool) {
	sv, ok := st.getS(uint8(m.Seg)).constVal()
	if !ok {
		return 0, false
	}
	off := avConst(m.Disp)
	if r, rok := m.Base.Reg(); rok {
		off = avAdd(off, st.getR(uint8(r)))
	}
	ov, ok := off.constVal()
	if !ok {
		return 0, false
	}
	return uint32(sv)<<4 + uint32(ov), true
}

// writeMem applies one abstract store, enforcing write confinement and
// the own-slot domain.
func (e *certEnv) writeMem(p *wpath, off int, m isa.MemOp, v aval) {
	lin, ok := e.resolve(&p.st, m)
	if !ok {
		e.report("cert-confinement", off, "store with unresolvable target (segment or offset not provably constant)")
		return
	}
	for j, addr := range e.cert.Slots {
		// The 2-byte store [lin, lin+1] vs the slot word [addr, addr+1].
		if lin+1 < addr || lin > addr+1 {
			continue
		}
		if lin == addr && j == e.node.Slot {
			dom := e.cert.Domains[j]
			if !v.subsetOfWords(dom) {
				e.report("cert-domain", off, "own-slot store not confined to the canonical domain %v", dom)
			}
			p.writes = append(p.writes, v)
			return
		}
		e.report("cert-confinement", off, "store overlaps slot %d at %#06x, owned by another node", j, addr)
		return
	}
	if lin >= e.node.DataLo && lin+1 < e.node.DataHi {
		if p.mem == nil {
			p.mem = map[uint32]aval{}
		}
		p.mem[lin] = v
		return
	}
	e.report("cert-confinement", off, "store to %#06x outside the node's slot and data window [%#06x,%#06x)",
		lin, e.node.DataLo, e.node.DataHi)
}

// step executes one abstract instruction on path p, in place, and
// returns its successor paths, forking on undecided branches when fork
// is true. A nil first ends the path; second is set only by a fork
// whose two edges both continue. done is set when the path has
// completed the iteration (reached offset 0 again).
func (e *certEnv) step(p *wpath, slotVals []aval, fork bool) (first, second *wpath, done bool) {
	n := e.g.nodes[p.off]
	// A run of nops is crossed in one loop: a nop leaves the abstract
	// state as it is (transfer keeps even the cmp tracking across it)
	// and has one successor, so each costs only its step, charged to
	// the budget. The loop stops at a nop whose step would report or
	// end the path — past the budget, without an edge, back at offset
	// 0, or at an unlifted target — and that nop takes the ordinary
	// path below, so every finding lands where it would.
	for n.inst.Op == isa.OpNop && p.steps < walkMaxSteps && len(n.succs) > 0 {
		next := n.succs[0]
		m := e.g.at(next)
		if next == 0 || m == nil {
			break
		}
		p.steps++
		p.off, n = next, m
	}
	in := n.inst
	p.steps++
	if p.steps > walkMaxSteps {
		e.report("cert-termination", p.off, "abstract walk exceeded %d steps without completing the iteration", walkMaxSteps)
		return nil, nil, false
	}

	// Memory-aware effects first; everything else delegates to the
	// shared transfer function.
	switch in.Op {
	case isa.OpMovRM:
		v := e.readMem(p, in.Mem, slotVals)
		p.st.setR(in.R1, v)
		p.st.cmpValid = false
	case isa.OpAddRM:
		v := e.readMem(p, in.Mem, slotVals)
		p.st.setR(in.R1, avAdd(p.st.getR(in.R1), v))
		p.st.cmpValid = false
	case isa.OpCmpRM:
		v := e.readMem(p, in.Mem, slotVals)
		p.st.cmpValid = true
		p.st.cmpL, p.st.cmpR = int8(in.R1), -1
		p.st.cmpLV, p.st.cmpRV = p.st.getR(in.R1), v
	case isa.OpMovMR:
		e.writeMem(p, p.off, in.Mem, p.st.getR(in.R1))
	case isa.OpMovMI:
		e.writeMem(p, p.off, in.Mem, avConst(in.Imm))
	case isa.OpMovMS:
		e.writeMem(p, p.off, in.Mem, p.st.getS(in.R1))
	case isa.OpMovSM:
		p.st.setS(in.R1, e.readMem(p, in.Mem, slotVals))
	default:
		transfer(in, &p.st)
	}

	// Successor selection.
	rel, conditional := jccRelation(in.Op)
	if !conditional {
		if len(n.succs) == 0 {
			e.report("cert-termination", p.off, "path ends without returning to the iteration head")
			return nil, nil, false
		}
		next := n.succs[0]
		if next == 0 {
			return nil, nil, true
		}
		if e.g.at(next) == nil {
			return nil, nil, false // lift already reported it
		}
		p.off = next
		return p, nil, false
	}

	// Conditional: decide (or fork) on the tracked cmp operands.
	if !p.st.cmpValid {
		e.report("cert-normalization", p.off, "conditional branch without a tracked cmp in view")
		return nil, nil, false
	}
	if p.st.cmpLV.isTop() || p.st.cmpRV.isTop() {
		e.report("cert-normalization", p.off, "conditional branch on an unnormalized (unbounded) value")
		return nil, nil, false
	}
	takenOK := feasible(p.st.cmpLV, p.st.cmpRV, rel)
	fallOK := feasible(p.st.cmpLV, p.st.cmpRV, negateRel(rel))
	if takenOK && fallOK && !fork {
		e.report("cert-extraction", p.off, "branch undecided on a canonical singleton input — behaviour depends on unobservable state")
		return nil, nil, false
	}
	follow := func(p *wpath, si int, taken bool) (*wpath, bool) {
		if si >= len(n.succs) {
			return nil, false
		}
		next := n.succs[si]
		refineEdge(&p.st, in.Op, taken)
		if next == 0 {
			return nil, true
		}
		if e.g.at(next) == nil {
			return nil, false
		}
		p.off = next
		return p, false
	}
	// lift appends the taken edge first, the fall-through second.
	if takenOK && fallOK {
		q := p.clone()
		s1, d1 := follow(p, 0, true)
		s2, d2 := follow(q, 1, false)
		if s1 == nil {
			s1, s2 = s2, nil
		}
		return s1, s2, d1 || d2
	}
	if takenOK {
		first, done = follow(p, 0, true)
	} else {
		first, done = follow(p, 1, false)
	}
	return first, nil, done
}

// runWalk drives paths from offset 0 to completion, returning every
// completed path's own-slot writes.
func (e *certEnv) runWalk(slotVals []aval, fork bool) [][]aval {
	paths := []*wpath{{off: 0, st: topState()}}
	var results [][]aval
	forks := 0
	for len(paths) > 0 {
		p := paths[len(paths)-1]
		paths = paths[:len(paths)-1]
		first, second, done := e.step(p, slotVals, fork)
		if done {
			results = append(results, p.writes)
		}
		if second != nil {
			forks++
			if forks > walkMaxForks {
				e.report("cert-termination", p.off, "fork walk exceeded %d forks", walkMaxForks)
				return results
			}
		}
		if first != nil {
			paths = append(paths, first)
		}
		if second != nil {
			paths = append(paths, second)
		}
	}
	return results
}

// forkWalk runs obligation 2: one iteration from arbitrary registers
// and arbitrary slot contents.
func (e *certEnv) forkWalk() {
	slotVals := make([]aval, e.cert.N)
	for i := range slotVals {
		slotVals[i] = avTop()
	}
	results := e.runWalk(slotVals, true)
	for _, writes := range results {
		if len(writes) > 1 {
			e.report("cert-extraction", -1, "iteration writes the node's slot %d times (at most one guarded store allowed)", len(writes))
		}
	}
}

// extractMoves runs obligation 3: singleton walks over every canonical
// triple, yielding the node's move table.
func (e *certEnv) extractMoves(nodeIdx int) moveTable {
	n := e.node
	c := e.cert
	selfDom := c.Domains[n.Slot]
	leftDom := []uint16{0}
	if n.Left >= 0 {
		leftDom = c.Domains[n.Left]
	}
	rightDom := []uint16{0}
	if n.Right >= 0 {
		rightDom = c.Domains[n.Right]
	}
	sameSide := n.Left >= 0 && n.Left == n.Right

	t := moveTable{nl: len(leftDom), nr: len(rightDom),
		moves: make([]move, len(selfDom)*len(leftDom)*len(rightDom))}
	slotVals := make([]aval, c.N)
	for ps, self := range selfDom {
		for pl, l := range leftDom {
			for pr, r := range rightDom {
				if sameSide && r != l {
					continue // one shared neighbour slot: l and r coincide
				}
				rr := r
				if sameSide {
					rr = l
				}
				for i := range slotVals {
					slotVals[i] = avTop()
				}
				slotVals[n.Slot] = avConst(self)
				if n.Left >= 0 {
					slotVals[n.Left] = avConst(l)
				}
				if n.Right >= 0 {
					slotVals[n.Right] = avConst(rr)
				}
				results := e.runWalk(slotVals, false)
				if len(results) != 1 {
					e.report("cert-extraction", -1,
						"triple (self=%d,l=%d,r=%d) yielded %d completed paths, want exactly 1", self, l, rr, len(results))
					continue
				}
				var mv move
				var value uint16
				if len(results[0]) == 1 {
					v, ok := results[0][0].constVal()
					if !ok {
						e.report("cert-extraction", -1,
							"triple (self=%d,l=%d,r=%d) writes a non-constant value", self, l, rr)
						continue
					}
					// The domain check has already reported a value off
					// the domain; it ranks as position 0.
					mv.write, value = true, v
					for j, w := range selfDom {
						if w == v {
							mv.to = j
							break
						}
					}
				} else if len(results[0]) > 1 {
					e.report("cert-extraction", -1,
						"triple (self=%d,l=%d,r=%d) writes the slot %d times", self, l, rr, len(results[0]))
					continue
				}
				if c.Moves != nil {
					wantW, wantV := c.Moves(nodeIdx, self, l, rr)
					if wantW != mv.write || (wantW && wantV != value) {
						e.report("cert-extraction", -1,
							"triple (self=%d,l=%d,r=%d): extracted move (write=%v value=%d) differs from declared (write=%v value=%d)",
							self, l, rr, mv.write, value, wantW, wantV)
					}
				}
				t.moves[(ps*t.nl+pl)*t.nr+pr] = mv
			}
		}
	}
	return t
}

// rankProduct runs obligation 4 over the extracted relation. States are
// ids in mixed radix over the domains, slot 0 the least significant
// digit: a state's id is the sum of each slot's value position times
// the slot's stride. A node's move changes one digit, so a successor's
// id is the state's plus (to − self)·stride[slot], with no decoding.
func rankProduct(c *RingCert, moves []moveTable, res *CertResult, report func(string, string, int, string, ...any)) {
	stride := make([]int, c.N)
	s := 1
	for i, d := range c.Domains {
		stride[i] = s
		s *= len(d)
	}
	decode := func(id int, x []uint16) {
		for i, d := range c.Domains {
			x[i] = d[id%len(d)]
			id /= len(d)
		}
	}
	pos := make([]int, c.N)
	succs := func(id int, out []int) []int {
		q := id
		for i, d := range c.Domains {
			pos[i] = q % len(d)
			q /= len(d)
		}
		for i := range c.Nodes {
			n, t := &c.Nodes[i], &moves[i]
			self, l, r := pos[n.Slot], 0, 0
			if n.Left >= 0 {
				l = pos[n.Left]
			}
			if n.Right >= 0 {
				r = pos[n.Right]
			}
			if mv := t.moves[(self*t.nl+l)*t.nr+r]; mv.write {
				out = append(out, id+(mv.to-self)*stride[n.Slot])
			}
		}
		return out
	}

	total := res.States
	x := make([]uint16, c.N)
	y := make([]uint16, c.N)
	var scratch []int

	// The declared legal set, evaluated once per state.
	legal := make([]bool, total)
	for id := range total {
		decode(id, x)
		legal[id] = c.Legal(x)
	}

	// Closure and illegal deadlock. Heights would rank a deadlocked
	// illegal state 1, so it is ruled out here first.
	violations := 0
	const maxViolations = 8 // enough to debug, bounded output
	for id := 0; id < total && violations < maxViolations; id++ {
		scratch = succs(id, scratch[:0])
		if legal[id] {
			for _, sid := range scratch {
				if !legal[sid] {
					decode(id, x)
					decode(sid, y)
					report(c.Name, "cert-closure", -1, "legal state %v steps to illegal %v", x, y)
					violations++
				}
			}
			continue
		}
		if len(scratch) == 0 {
			decode(id, x)
			report(c.Name, "cert-ranking", -1, "illegal state %v is deadlocked (no privileged node)", x)
			violations++
		}
	}
	if violations > 0 {
		return
	}

	// The exact longest illegal path: the heights of the extracted
	// relation, which exist iff its illegal part is acyclic.
	ids := make([]int, total)
	for id := range ids {
		ids[id] = id
	}
	sys := model.System[int]{
		States: ids,
		Index:  func(id int) int { return id },
		Next:   succs,
		Legal:  func(id int) bool { return legal[id] },
	}
	heights, witness, ok := sys.Heights()
	if !ok {
		decode(witness, x)
		report(c.Name, "cert-ranking", -1, "illegal cycle reachable from state %v", x)
		return
	}
	rank := 0
	for _, h := range heights {
		rank = max(rank, h)
	}
	res.RankBound = rank
	res.Bound = rank + c.N
}
