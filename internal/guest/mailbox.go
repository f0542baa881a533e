package guest

import (
	"fmt"

	"ssos/internal/asm"
	"ssos/internal/model"
)

// Mailbox token-ring workloads: Dijkstra's K-state and 3-state rings
// and Ghosh's 4-state chain, each node a scheduled process whose only
// shared state is one 16-bit slot in a dedicated RAM region (the
// "mailbox"). A node never addresses another process's data segment:
// node i owns slot i, reads its neighbours' slots, and parks the
// normalized reads in register words of its own data segment before
// the guarded test-and-write. That discipline is what makes the
// workloads distributable: on the cluster a replica runs a single
// node, and a relay shim copies neighbour slots between the replicas'
// mailboxes (internal/cluster).
//
// The mailbox programs implement internal/model's Protocol roles
// (RingVariant.Protocol) instruction for instruction; a node reads
// exactly the sides its model.Role reads, and:
//
//   - every value read from slot j is immediately projected onto slot
//     j's canonical domain by the owner's normalization sequence
//     (model.Role.Norm);
//   - the parked register words are reloaded from RAM and re-normalized
//     right before the guarded write, so the node's observable
//     behaviour is a function of the observable words alone — the
//     soundness premise of model.Protocol.ObsSuccessors and the
//     refinement tests;
//   - a store to the node's own slot happens only under the protocol
//     guard, and writes the exact value model.Role.Move gives.
//
// Each iteration ends with a beat: the node increments a counter in
// its data segment and reports it on its port, so the standard
// process-heartbeat machinery observes liveness.

// MailboxSeg is the segment of the shared mailbox region. It lies in
// otherwise-unused RAM, outside every process region, the OS image and
// the stacks — corruption of a slot is an application-layer fault that
// only the protocol itself heals.
const MailboxSeg = 0xA000

// MailboxNodes is the ring size of the single-machine configuration:
// the scheduler's worker slots, with the refresher keeping its place.
const MailboxNodes = RefresherIndex

// MailboxK is the K of the K-state variant: a power of two (the guard
// masks with K-1) with K >= 2n-1 for every n up to model.MaxRingNodes,
// the bound under which the K-state ring stabilizes even at
// read/write atomicity.
const MailboxK = 16

// Data-segment offsets of a mailbox node process. Offset 0 is unused.
const (
	MailboxBeatOff = 2 // iteration counter, reported on the node's port
	MailboxRegLOff = 4 // parked normalized read of the left neighbour
	MailboxRegROff = 6 // parked normalized read of the right neighbour
)

// MailboxAddr returns the linear address of ring slot i.
func MailboxAddr(i int) uint32 { return uint32(MailboxSeg)<<4 + uint32(2*i) }

// MailboxRegLAddr returns the linear address of the parked left-read
// word of the process in scheduler slot proc.
func MailboxRegLAddr(proc int) uint32 { return uint32(ProcDataSeg(proc))<<4 + MailboxRegLOff }

// MailboxRegRAddr returns the linear address of the parked right-read
// word of the process in scheduler slot proc.
func MailboxRegRAddr(proc int) uint32 { return uint32(ProcDataSeg(proc))<<4 + MailboxRegROff }

// RingVariant selects a mailbox token-ring protocol.
type RingVariant uint8

const (
	// VariantKState is Dijkstra's K-state unidirectional ring (K =
	// MailboxK).
	VariantKState RingVariant = iota
	// VariantDijkstra3 is Dijkstra's bidirectional 3-state ring.
	VariantDijkstra3
	// VariantGhosh4 is Ghosh's 4-state chain with parity-anchored ends.
	VariantGhosh4
)

var ringVariantNames = [...]string{
	VariantKState:    "kstate",
	VariantDijkstra3: "dijkstra3",
	VariantGhosh4:    "ghosh4",
}

func (v RingVariant) String() string {
	if int(v) < len(ringVariantNames) {
		return ringVariantNames[v]
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// RingVariants lists every variant, in catalog order.
func RingVariants() []RingVariant {
	return []RingVariant{VariantKState, VariantDijkstra3, VariantGhosh4}
}

// ParseRingVariant resolves a variant name as used by the CLIs.
func ParseRingVariant(s string) (RingVariant, error) {
	for v, name := range ringVariantNames {
		if s == name {
			return RingVariant(v), nil
		}
	}
	return 0, fmt.Errorf("unknown ring variant %q (kstate|dijkstra3|ghosh4)", s)
}

// Protocol returns the variant's model protocol: the one definition of
// its node roles that the node programs' read sides, the convergence
// certificates, and the core and cluster observers all derive from.
func (v RingVariant) Protocol() model.Protocol {
	switch v {
	case VariantDijkstra3:
		return model.Dijkstra3Protocol()
	case VariantGhosh4:
		return model.Ghosh4Protocol()
	default:
		return model.KStateProtocol(MailboxK)
	}
}

// normAsm emits the instruction sequence projecting reg onto the value
// domain of slot owner (node `owner` of n) — the assembly twin of
// model.Role.Norm. lbl supplies unique label suffixes.
func (v RingVariant) normAsm(owner, n int, reg string, lbl *int) string {
	switch v {
	case VariantKState:
		return fmt.Sprintf("\tand %s, %d\n", reg, MailboxK-1)
	case VariantDijkstra3:
		*lbl++
		return fmt.Sprintf(`	and %[1]s, 3
	cmp %[1]s, 3
	jne norm_%[2]d
	mov %[1]s, 0
norm_%[2]d:
`, reg, *lbl)
	default: // VariantGhosh4: parity-anchored end domains
		switch owner {
		case 0:
			return fmt.Sprintf("\tand %[1]s, 2\n\tor %[1]s, 1\n", reg)
		case n - 1:
			return fmt.Sprintf("\tand %s, 2\n", reg)
		default:
			return fmt.Sprintf("\tand %s, 3\n", reg)
		}
	}
}

// incModAsm emits dx := (reg+1) mod base, for base 3 or 4. lbl supplies
// unique label suffixes (mod 3 needs a branch; mod 4 is a mask).
func incModAsm(reg string, base int, lbl *int) string {
	if base == 4 {
		return fmt.Sprintf("\tmov dx, %s\n\tinc dx\n\tand dx, 3\n", reg)
	}
	*lbl++
	return fmt.Sprintf(`	mov dx, %s
	inc dx
	cmp dx, 3
	jne succ_%[2]d
	mov dx, 0
succ_%[2]d:
`, reg, *lbl)
}

// guardAsm emits node i's guarded test-and-write — the assembly twin of
// model.Role.Move. On entry ax holds the node's canonical slot
// value, bx/cx the canonical left/right register words (for the sides
// the node uses). A store to [MY_OFF] happens iff a guard holds; either
// way control falls through or jumps to the `beat` label.
func (v RingVariant) guardAsm(i, n int, lbl *int) string {
	switch v {
	case VariantKState:
		if i == 0 {
			// Root: privileged when self == left; step: self+1 mod K.
			return fmt.Sprintf(`	cmp ax, bx
	jne beat
	inc ax
	and ax, %d
	mov [MY_OFF], ax
`, MailboxK-1)
		}
		// Member: privileged when self != left; step: copy left.
		return `	cmp ax, bx
	je beat
	mov [MY_OFF], bx
`
	case VariantDijkstra3:
		switch i {
		case 0:
			// Bottom: right == self+1 -> self := self+2 (mod 3).
			return incModAsm("ax", 3, lbl) + `	cmp dx, cx
	jne beat
	add ax, 2
	cmp ax, 3
	jb store_ok
	sub ax, 3
store_ok:
	mov [MY_OFF], ax
`
		case n - 1:
			// Top: left == right and left+1 != self -> self := left+1.
			return "\tcmp bx, cx\n\tjne beat\n" + incModAsm("bx", 3, lbl) + `	cmp dx, ax
	je beat
	mov [MY_OFF], dx
`
		default:
			// Normal: either neighbour == self+1 -> self := self+1.
			return incModAsm("ax", 3, lbl) + `	cmp dx, bx
	je do_move
	cmp dx, cx
	jne beat
do_move:
	mov [MY_OFF], dx
`
		}
	default: // VariantGhosh4
		switch i {
		case 0:
			// Bottom: right == self+1 -> self := self+2 (stays odd).
			return incModAsm("ax", 4, lbl) + `	cmp dx, cx
	jne beat
	add ax, 2
	and ax, 3
	mov [MY_OFF], ax
`
		case n - 1:
			// Top: left == self+1 -> self := self+2 (stays even).
			return incModAsm("ax", 4, lbl) + `	cmp dx, bx
	jne beat
	add ax, 2
	and ax, 3
	mov [MY_OFF], ax
`
		default:
			// Interior: a neighbour is one ahead -> copy it (self+1,
			// the same value whichever side fired).
			return incModAsm("ax", 4, lbl) + `	cmp dx, bx
	je do_move
	cmp dx, cx
	jne beat
do_move:
	mov [MY_OFF], dx
`
		}
	}
}

// mailboxNodeSource builds the source of ring node `node` of n, running
// in scheduler slot proc (the single machine runs node i in slot i;
// a cluster replica runs its one node in slot 0).
func mailboxNodeSource(v RingVariant, node, n, proc int) string {
	role := v.Protocol().Role(node, n)
	left := (node + n - 1) % n
	right := (node + 1) % n
	header := fmt.Sprintf(`
MAILBOX   equ %#x
MY_DATA   equ %#x
MY_PORT   equ %#x
MY_OFF    equ %d
LEFT_OFF  equ %d
RIGHT_OFF equ %d
REG_L     equ %d
REG_R     equ %d
BEAT      equ %d
%%pad on
start:
`, MailboxSeg, ProcDataSeg(proc), PortProc0+proc,
		2*node, 2*left, 2*right,
		MailboxRegLOff, MailboxRegROff, MailboxBeatOff)

	lbl := 0
	body := ""
	// Load phase: read each used neighbour slot, normalize it onto the
	// owner's domain, park it in this node's data segment.
	if role.Left {
		body += `	mov ax, MAILBOX
	mov ds, ax
	mov ax, [LEFT_OFF]
` + v.normAsm(left, n, "ax", &lbl) + `	mov bx, ax
	mov ax, MY_DATA
	mov ds, ax
	mov [REG_L], bx
`
	}
	if role.Right {
		body += `	mov ax, MAILBOX
	mov ds, ax
	mov ax, [RIGHT_OFF]
` + v.normAsm(right, n, "ax", &lbl) + `	mov cx, ax
	mov ax, MY_DATA
	mov ds, ax
	mov [REG_R], cx
`
	}
	// Write phase: reload the parked words from RAM (they may have been
	// corrupted since the loads) and re-normalize, so the guarded write
	// depends only on the observable words; then read and normalize the
	// node's own slot and run the guard.
	body += "	mov ax, MY_DATA\n	mov ds, ax\n"
	if role.Left {
		body += "	mov bx, [REG_L]\n" + v.normAsm(left, n, "bx", &lbl)
	}
	if role.Right {
		body += "	mov cx, [REG_R]\n" + v.normAsm(right, n, "cx", &lbl)
	}
	body += `	mov ax, MAILBOX
	mov ds, ax
	mov ax, [MY_OFF]
` + v.normAsm(node, n, "ax", &lbl) + v.guardAsm(node, n, &lbl)

	footer := `beat:
	mov ax, MY_DATA
	mov ds, ax
	mov ax, [BEAT]
	inc ax
	mov [BEAT], ax
	out MY_PORT, ax
	jmp start
`
	return header + body + footer
}

// assembleInto assembles src as the process in slot i of set.
func assembleInto(set *ProcSet, i int, src string) error {
	p, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	img, err := FillRegion(p.Code, ProcRegionSize)
	if err != nil {
		return err
	}
	set.Progs[i] = p
	set.Images[i] = img
	return nil
}

// BuildMailboxProcesses assembles the single-machine mailbox ring of
// variant v: MailboxNodes node processes in slots 0..MailboxNodes-1
// plus the standard ROM refresher.
func BuildMailboxProcesses(v RingVariant) (*ProcSet, error) {
	set := &ProcSet{}
	for i := 0; i < NumProcs; i++ {
		var src string
		if i == RefresherIndex {
			src = refresherSource()
		} else {
			src = mailboxNodeSource(v, i, MailboxNodes, i)
		}
		if err := assembleInto(set, i, src); err != nil {
			return nil, fmt.Errorf("mailbox %v process %d: %w", v, i, err)
		}
	}
	return set, nil
}

// BuildNodeProcesses assembles the one-node-per-replica process set:
// slot 0 runs ring node `node` of n, slots 1..RefresherIndex-1 run the
// standard counter workers, and the refresher keeps its slot. The
// node's neighbour slots are filled in by the cluster's relay shim.
func BuildNodeProcesses(v RingVariant, node, n int) (*ProcSet, error) {
	set, err := buildNodeProcess(v, node, n)
	if err != nil {
		return nil, err
	}
	for i := 1; i < NumProcs; i++ {
		src := procWorkerSource(i)
		if i == RefresherIndex {
			src = refresherSource()
		}
		if err := assembleInto(set, i, src); err != nil {
			return nil, fmt.Errorf("mailbox %v node %d/%d process %d: %w", v, node, n, i, err)
		}
	}
	return set, nil
}

// buildNodeProcess assembles slot 0 of BuildNodeProcesses(v, node, n),
// the ring node itself, and leaves the other slots empty: the lint and
// certificate catalogs check only the node.
func buildNodeProcess(v RingVariant, node, n int) (*ProcSet, error) {
	if n < 2 || n > model.MaxRingNodes {
		return nil, fmt.Errorf("mailbox ring size %d out of range 2..%d", n, model.MaxRingNodes)
	}
	if node < 0 || node >= n {
		return nil, fmt.Errorf("mailbox node %d out of range 0..%d", node, n-1)
	}
	set := &ProcSet{}
	if err := assembleInto(set, 0, mailboxNodeSource(v, node, n, 0)); err != nil {
		return nil, fmt.Errorf("mailbox %v node %d/%d process 0: %w", v, node, n, err)
	}
	return set, nil
}
