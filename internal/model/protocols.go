package model

// The mailbox token-ring protocols: Dijkstra's K-state and 3-state
// rings and Ghosh's 4-state chain, modelled at the same abstraction
// level as internal/guest runs them. Each guest node owns one word
// ("mailbox slot") in a shared RAM region; a node reads a neighbour's
// slot, projects it onto the owner's value domain, parks the result in
// a register word of its own data segment, and finally performs the
// guarded test-and-write on its own slot. The models below cover both
// granularities: the composite-atomicity system (guard and move in one
// step, the classic proofs' setting) and the read/write-atomicity
// "delay" system whose states carry the parked register words and a
// per-node program counter — the granularity the scheduler actually
// provides, since a node can be preempted between its loads and its
// write.

// Protocol is one token-passing protocol, given once as the rules of
// its three node roles: the root (node 0), the interior nodes, and the
// last node (node n-1) — the bot, template and top nodes of the
// parameterized proofs. Every other layer derives what it needs from
// the roles: the guest's node programs read their sides, the
// certificates declare their moves and legal set, and the core and
// cluster observers project mailbox words through their Norm.
type Protocol struct {
	// Name identifies the protocol ("kstate", "dijkstra3", "ghosh4").
	Name string
	// K bounds the per-slot value domain: canonical values are a subset
	// of 0..K-1.
	K uint8
	// Root, Interior and Last are the node roles. A two-node ring has a
	// root and a last node only.
	Root, Interior, Last Role
}

// Role is the rule set of one node role. Norm and Move are total and
// allocation-free: Norm accepts any 16-bit word, Move any triple (the
// callers pass canonical values only).
type Role struct {
	// Left and Right report whether the node reads that neighbour's
	// slot (left is (i-1+n)%n, right is (i+1)%n; chain protocols simply
	// never read across the wrap).
	Left, Right bool
	// Norm projects an arbitrary word read from the node's slot onto
	// its value domain. It is idempotent and the identity on canonical
	// values; the guest applies the identical projection in assembly.
	Norm func(v uint16) uint8
	// Move evaluates the node's guards on its own value and the values
	// of the sides it reads (unused sides receive zero). privs counts
	// the held privileges, one per guard: a Ghosh interior node
	// watching both neighbours can hold two at once. Every protocol
	// here writes the same value whichever guard fired, so to is that
	// new slot value, and 0 when privs is 0.
	Move func(self, left, right uint8) (privs int, to uint8)
}

// Role returns the role of node i in an n-node ring.
func (p Protocol) Role(i, n int) Role {
	switch i {
	case 0:
		return p.Root
	case n - 1:
		return p.Last
	}
	return p.Interior
}

// Norm projects an arbitrary word read from node i's slot onto node
// i's value domain.
func (p Protocol) Norm(i, n int, v uint16) uint8 { return p.Role(i, n).Norm(v) }

// KStateProtocol is Dijkstra's K-state unidirectional ring in mailbox
// form: every node reads only its left (predecessor) slot; the root
// (node 0) increments modulo k when its value matches its
// predecessor's, every other node copies a differing predecessor.
// K >= 2n-1 keeps the ring self-stabilizing even under read/write
// atomicity (the guest uses k=16 for up to 8 nodes).
func KStateProtocol(k uint8) Protocol {
	norm := func(v uint16) uint8 { return uint8(v % uint16(k)) }
	copyLeft := Role{Left: true, Norm: norm, Move: func(self, left, _ uint8) (int, uint8) {
		if self != left {
			return 1, left
		}
		return 0, 0
	}}
	return Protocol{
		Name: "kstate",
		K:    k,
		Root: Role{Left: true, Norm: norm, Move: func(self, left, _ uint8) (int, uint8) {
			if self == left {
				return 1, (self + 1) % k
			}
			return 0, 0
		}},
		Interior: copyLeft,
		Last:     copyLeft,
	}
}

// mod3 projects a word onto 0..2 without division, exactly as the
// guest's instruction sequence does: mask to 0..3, then map 3 to 0.
func mod3(v uint16) uint8 {
	m := uint8(v & 3)
	if m == 3 {
		return 0
	}
	return m
}

// Dijkstra3Protocol is Dijkstra's 3-state ring: values modulo 3,
// bidirectional reads. The bottom (node 0) moves by +2 when its
// successor is one ahead; the top (node n-1) moves to left+1 when its
// two neighbours agree and it is not already one ahead of them; every
// other node moves to self+1 when either neighbour is one ahead (one
// rule, hence one privilege, even when both sides fire). Note the ring
// topology: the top's right neighbour is the bottom.
func Dijkstra3Protocol() Protocol {
	return Protocol{
		Name: "dijkstra3",
		K:    3,
		Root: Role{Right: true, Norm: mod3, Move: func(self, _, right uint8) (int, uint8) {
			if (self+1)%3 == right {
				return 1, (self + 2) % 3
			}
			return 0, 0
		}},
		Interior: Role{Left: true, Right: true, Norm: mod3, Move: func(self, left, right uint8) (int, uint8) {
			if up := (self + 1) % 3; up == left || up == right {
				return 1, up
			}
			return 0, 0
		}},
		Last: Role{Left: true, Right: true, Norm: mod3, Move: func(self, left, right uint8) (int, uint8) {
			if up := (left + 1) % 3; left == right && up != self {
				return 1, up
			}
			return 0, 0
		}},
	}
}

// Ghosh4Protocol is Ghosh's 4-state chain: values modulo 4 with
// parity-anchored end domains — the bottom (node 0) holds odd values
// {1,3}, the top (node n-1) even values {0,2}, interior nodes any of
// 0..3. A node holds a privilege per neighbour that is one ahead of it
// (the ends each watch their single neighbour; interior nodes watch
// both and can hold two privileges). The ends move by +2, preserving
// their anchored parity; an interior node copies the neighbour that is
// one ahead (self+1 — the same value whichever side fired). The
// anchoring is what rules out the all-even deadlock configuration.
// There is no wraparound: the chain's ends never read across.
func Ghosh4Protocol() Protocol {
	return Protocol{
		Name: "ghosh4",
		K:    4,
		Root: Role{Right: true, Norm: func(v uint16) uint8 { return uint8(v&2) | 1 },
			Move: func(self, _, right uint8) (int, uint8) {
				if right == (self+1)%4 {
					return 1, (self + 2) % 4
				}
				return 0, 0
			}},
		Interior: Role{Left: true, Right: true, Norm: func(v uint16) uint8 { return uint8(v & 3) },
			Move: func(self, left, right uint8) (int, uint8) {
				up, privs := (self+1)%4, 0
				if left == up {
					privs++
				}
				if right == up {
					privs++
				}
				if privs == 0 {
					return 0, 0
				}
				return privs, up
			}},
		Last: Role{Left: true, Norm: func(v uint16) uint8 { return uint8(v & 2) },
			Move: func(self, left, _ uint8) (int, uint8) {
				if left == (self+1)%4 {
					return 1, (self + 2) % 4
				}
				return 0, 0
			}},
	}
}

// Domain returns node i's canonical value domain in ascending order.
func (p Protocol) Domain(i, n int) []uint8 {
	var out []uint8
	for v := 0; v < int(p.K); v++ {
		if p.Norm(i, n, uint16(v)) == uint8(v) {
			out = append(out, uint8(v))
		}
	}
	return out
}

// neighbours returns the left and right indices of node i on the ring.
func neighbours(i, n int) (l, r int) { return (i + n - 1) % n, (i + 1) % n }

// moveAt evaluates node i's move in configuration x.
func (p Protocol) moveAt(x RingState, i, n int) (privs int, to uint8) {
	r := p.Role(i, n)
	l, rt := neighbours(i, n)
	var left, right uint8
	if r.Left {
		left = x[l]
	}
	if r.Right {
		right = x[rt]
	}
	return r.Move(x[i], left, right)
}

// Legal reports whether configuration x (entries 0..n-1 used; values
// must be canonical) holds exactly one privilege, counted per guard:
// the protocols' shared legal set.
func (p Protocol) Legal(x RingState, n int) bool {
	held := 0
	for i := 0; i < n && held <= 1; i++ {
		privs, _ := p.moveAt(x, i, n)
		held += privs
	}
	return held == 1
}

// Privileges returns the privileged nodes of configuration x, one entry
// per held guard — a node watching both neighbours may appear twice.
// It is for reports; Legal decides legality.
func (p Protocol) Privileges(x RingState, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		privs, _ := p.moveAt(x, i, n)
		for ; privs > 0; privs-- {
			out = append(out, i)
		}
	}
	return out
}

// valuePositions maps every byte value to its position in dom, and to
// -1 when dom does not hold it.
func valuePositions(dom []uint8) (pos [256]int16) {
	for v := range pos {
		pos[v] = -1
	}
	for j, v := range dom {
		pos[v] = int16(j)
	}
	return pos
}

// System builds the protocol's n-node composite-atomicity system under
// the adversarial central daemon: any privileged node may perform its
// guarded move in one atomic step (one successor per privileged node).
// Legal states have exactly one privilege. Next is total — a deadlocked
// configuration self-loops, so closure/convergence checking flags it as
// a reachable illegal cycle rather than silently skipping it.
//
// States run in mixed radix: node 0 is the most significant digit, and
// each digit is the node's value's position in its domain.
func (p Protocol) System(n int) *System[RingState] {
	if n < 2 || n > MaxRingNodes {
		panic("model: protocol ring size out of range")
	}
	doms := make([][]uint8, n)
	pos := make([][256]int16, n)
	for i := range doms {
		doms[i] = p.Domain(i, n)
		pos[i] = valuePositions(doms[i])
	}
	var states []RingState
	var enum func(i int, cur RingState)
	enum = func(i int, cur RingState) {
		if i == n {
			states = append(states, cur)
			return
		}
		for _, v := range doms[i] {
			cur[i] = v
			enum(i+1, cur)
		}
	}
	enum(0, RingState{})
	index := func(s RingState) int {
		id := 0
		for i := 0; i < n; i++ {
			j := int(pos[i][s[i]])
			if j < 0 {
				return -1
			}
			id = id*len(doms[i]) + j
		}
		for _, v := range s[n:] {
			if v != 0 {
				return -1
			}
		}
		return id
	}
	next := func(s RingState, out []RingState) []RingState {
		start := len(out)
		for i := 0; i < n; i++ {
			if privs, to := p.moveAt(s, i, n); privs > 0 {
				ns := s
				ns[i] = to
				out = append(out, ns)
			}
		}
		if len(out) == start {
			out = append(out, s) // deadlock: visible as an illegal cycle
		}
		return out
	}
	legal := func(s RingState) bool { return p.Legal(s, n) }
	return &System[RingState]{States: states, Index: index, Next: next, Legal: legal}
}

// MailboxState is a protocol configuration under read/write atomicity,
// as the scheduler executes it: the mailbox slots X, each node's parked
// register reads of its left and right neighbours (only the sides the
// node uses are meaningful), and a per-node program counter over the
// node's action sequence (loads in left-right order, then the guarded
// write).
type MailboxState struct {
	X    RingState
	RegL RingState
	RegR RingState
	PC   RingState
}

// phases returns the length of the role's atomic-action sequence.
func (r Role) phases() int {
	ph := 1 // the guarded write
	if r.Left {
		ph++
	}
	if r.Right {
		ph++
	}
	return ph
}

// DelayStep performs node i's next atomic action: a normalized
// neighbour load into the corresponding register, or the guarded
// test-and-write using the (possibly stale) registers.
func (p Protocol) DelayStep(n int, s MailboxState, i int) MailboxState {
	ns := s
	role := p.Role(i, n)
	l, r := neighbours(i, n)
	phase := 0
	if role.Left {
		if int(s.PC[i]) == phase {
			ns.RegL[i] = p.Norm(l, n, uint16(s.X[l]))
			ns.PC[i]++
			return ns
		}
		phase++
	}
	if role.Right {
		if int(s.PC[i]) == phase {
			ns.RegR[i] = p.Norm(r, n, uint16(s.X[r]))
			ns.PC[i]++
			return ns
		}
	}
	if privs, to := role.Move(s.X[i], s.RegL[i], s.RegR[i]); privs > 0 {
		ns.X[i] = to
	}
	ns.PC[i] = 0
	return ns
}

// DelaySystem builds the protocol's n-node read/write-atomicity system
// under the adversarial daemon: any node may take its next atomic
// action. The syntactic legality candidate ("one privilege in X") is
// generally NOT closed here — stale registers can re-create privileges
// — so callers refine it with GreatestClosedSubset. For the K-state
// ring at n=3 this is Dolev & Herman's read/write setting, the ring as
// the 5.2 scheduler runs it.
//
// States run in mixed radix, node 0 the most significant digit: node
// i's digit is ((x·|regL| + regL)·|regR| + regR)·phases + pc over the
// positions of its slot value and registers in their domains (an
// unused register's domain is {0}).
func (p Protocol) DelaySystem(n int) *System[MailboxState] {
	states := p.delayStates(n)
	type digit struct {
		x, l, r        [256]int16 // value positions
		nl, nr, phases int
		radix          int // the digit's range
	}
	digits := make([]digit, n)
	for i := range digits {
		role := p.Role(i, n)
		l, r := neighbours(i, n)
		regLs, regRs := []uint8{0}, []uint8{0}
		if role.Left {
			regLs = p.Domain(l, n)
		}
		if role.Right {
			regRs = p.Domain(r, n)
		}
		xs := p.Domain(i, n)
		digits[i] = digit{
			x: valuePositions(xs), l: valuePositions(regLs), r: valuePositions(regRs),
			nl: len(regLs), nr: len(regRs), phases: role.phases(),
			radix: len(xs) * len(regLs) * len(regRs) * role.phases(),
		}
	}
	index := func(s MailboxState) int {
		id := 0
		for i := range digits {
			dg := &digits[i]
			x, l, r := int(dg.x[s.X[i]]), int(dg.l[s.RegL[i]]), int(dg.r[s.RegR[i]])
			if x < 0 || l < 0 || r < 0 || int(s.PC[i]) >= dg.phases {
				return -1
			}
			id = id*dg.radix + ((x*dg.nl+l)*dg.nr+r)*dg.phases + int(s.PC[i])
		}
		for i := n; i < MaxRingNodes; i++ {
			if s.X[i]|s.RegL[i]|s.RegR[i]|s.PC[i] != 0 {
				return -1
			}
		}
		return id
	}
	next := func(s MailboxState, out []MailboxState) []MailboxState {
		for i := 0; i < n; i++ {
			out = append(out, p.DelayStep(n, s, i))
		}
		return out
	}
	legal := func(s MailboxState) bool { return p.Legal(s.X, n) }
	return &System[MailboxState]{States: states, Index: index, Next: next, Legal: legal}
}

// DelayLabeledNext returns the actor-labelled transition function of
// the delay system, for fairness analysis.
func (p Protocol) DelayLabeledNext(n int) func(MailboxState) []Labeled[MailboxState] {
	return func(s MailboxState) []Labeled[MailboxState] {
		out := make([]Labeled[MailboxState], 0, n)
		for i := 0; i < n; i++ {
			out = append(out, Labeled[MailboxState]{To: p.DelayStep(n, s, i), Actor: i})
		}
		return out
	}
}

// delayStates enumerates the delay system's state space: canonical slot
// values, registers over the watched neighbour's domain (zero for
// unused sides), and program counters over each node's action sequence.
func (p Protocol) delayStates(n int) []MailboxState {
	var states []MailboxState
	var enum func(i int, cur MailboxState)
	enum = func(i int, cur MailboxState) {
		if i == n {
			states = append(states, cur)
			return
		}
		role := p.Role(i, n)
		l, r := neighbours(i, n)
		regLs := []uint8{0}
		if role.Left {
			regLs = p.Domain(l, n)
		}
		regRs := []uint8{0}
		if role.Right {
			regRs = p.Domain(r, n)
		}
		for _, x := range p.Domain(i, n) {
			cur.X[i] = x
			for _, rl := range regLs {
				cur.RegL[i] = rl
				for _, rr := range regRs {
					cur.RegR[i] = rr
					for pc := 0; pc < role.phases(); pc++ {
						cur.PC[i] = uint8(pc)
						enum(i+1, cur)
					}
				}
			}
		}
	}
	enum(0, MailboxState{})
	return states
}

// ObsSuccessors returns every abstract state reachable from s by one
// observable action of one node, ignoring program counters: a
// normalized neighbour load into the node's register word, or the
// node's guarded write. The refinement tests use this as the abstract
// step relation a machine trace must stutter-refine: it is a sound
// superset of the PC-ful delay relation's observable effects, because
// each node's observable behaviour is a function of the observable
// words alone (the guest reloads its registers from RAM immediately
// before the test-and-write).
func (p Protocol) ObsSuccessors(n int, s MailboxState) []MailboxState {
	var out []MailboxState
	for i := 0; i < n; i++ {
		role := p.Role(i, n)
		l, r := neighbours(i, n)
		if role.Left {
			ns := s
			ns.RegL[i] = p.Norm(l, n, uint16(s.X[l]))
			out = append(out, ns)
		}
		if role.Right {
			ns := s
			ns.RegR[i] = p.Norm(r, n, uint16(s.X[r]))
			out = append(out, ns)
		}
		if privs, to := role.Move(s.X[i], s.RegL[i], s.RegR[i]); privs > 0 {
			ns := s
			ns.X[i] = to
			out = append(out, ns)
		}
	}
	return out
}
