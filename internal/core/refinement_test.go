package core

import (
	"fmt"
	"testing"

	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/machine"
	"ssos/internal/mem"
	"ssos/internal/model"
)

// readObs extracts α of the machine's observable mailbox words: every
// slot projected onto its owner's domain and every parked register word
// projected onto the watched neighbour's domain. The projection is
// sound because the guest re-normalizes each register right after
// reloading it for the guarded write — the guard only ever sees the
// projected value, whatever raw bits are parked.
func readObs(s *System, p model.Protocol, n int) model.MailboxState {
	var st model.MailboxState
	for i := 0; i < n; i++ {
		st.X[i] = p.Norm(i, n, s.MailboxSlot(i))
		role := p.Role(i, n)
		l, r := (i+n-1)%n, (i+1)%n
		if role.Left {
			st.RegL[i] = p.Norm(l, n, s.M.Bus.LoadWord(guest.MailboxRegLAddr(i)))
		}
		if role.Right {
			st.RegR[i] = p.Norm(r, n, s.M.Bus.LoadWord(guest.MailboxRegRAddr(i)))
		}
	}
	return st
}

// refinementChecker verifies, step by step, that the machine's
// observable mailbox trace is a stuttering refinement of the abstract
// protocol's step relation (model.Protocol.ObsSuccessors, split into
// its two action kinds):
//
//   - A guarded write to slot i must be exactly the move the protocol
//     allows from the CURRENT observable words. This is an exact check:
//     only node i writes slot i and its own registers, so none of the
//     guard's inputs can change between the guest's reload and store.
//   - A register store by node i must carry the projection of some
//     value the watched neighbour slot has held since i's previous
//     observable action. The slack is necessary, not a test weakness:
//     the load and the park-store are separate instructions, and a
//     quantum boundary between them lets the neighbour move first —
//     the read/write-atomicity delay the model's register words exist
//     to represent.
//
// Steps with no observable change (the overwhelming majority: scheduler
// bookkeeping, beat counters, the other approaches' machinery) are
// stutters and ignored.
type refinementChecker struct {
	t     *testing.T
	s     *System
	p     model.Protocol
	n     int
	prev  model.MailboxState
	seenL []map[uint8]bool // Norm(X[l]) values since node i's last action
	seenR []map[uint8]bool
	fly   []bool // node may have a pre-fault action in flight
	moves int    // observable actions checked
	bad   int
}

func newRefinementChecker(t *testing.T, s *System, p model.Protocol, n int) *refinementChecker {
	c := &refinementChecker{t: t, s: s, p: p, n: n,
		seenL: make([]map[uint8]bool, n), seenR: make([]map[uint8]bool, n),
		fly: make([]bool, n)}
	c.prev = readObs(s, p, n)
	for i := 0; i < n; i++ {
		c.reset(i, c.prev)
	}
	return c
}

// rebase re-reads the observable state, clears the in-flight load sets
// and grants every node one unchecked action — called right after a
// fault injection. The grace is sound, not slack: a fault landing
// between a node's neighbour load (or register reload) and the
// corresponding store leaves pre-fault values in CPU registers that α
// cannot observe, so the node's first post-fault store belongs to the
// faulted configuration, exactly like the arbitrary parked words the
// model's "any initial state" already covers. Every action after that
// first one is fully checked.
func (c *refinementChecker) rebase() {
	c.prev = readObs(c.s, c.p, c.n)
	for i := 0; i < c.n; i++ {
		c.reset(i, c.prev)
		c.fly[i] = true
	}
}

func (c *refinementChecker) reset(i int, st model.MailboxState) {
	l, r := (i+c.n-1)%c.n, (i+1)%c.n
	c.seenL[i] = map[uint8]bool{st.X[l]: true}
	c.seenR[i] = map[uint8]bool{st.X[r]: true}
}

func (c *refinementChecker) fail(format string, args ...interface{}) {
	c.bad++
	if c.bad <= 5 {
		c.t.Errorf(format, args...)
	}
}

func (c *refinementChecker) observe(_ *machine.Machine, _ machine.Event) {
	cur := readObs(c.s, c.p, c.n)
	if cur == c.prev {
		return
	}
	step := c.s.Steps()
	changes := 0
	for i := 0; i < c.n; i++ {
		if cur.X[i] != c.prev.X[i] {
			changes++
			c.moves++
			if c.fly[i] {
				c.fly[i] = false
			} else {
				privs, to := c.p.Role(i, c.n).Move(c.prev.X[i], c.prev.RegL[i], c.prev.RegR[i])
				if privs == 0 {
					c.fail("step %d: node %d wrote %d with no privilege held (state %v)",
						step, i, cur.X[i], c.prev)
				} else if cur.X[i] != to {
					c.fail("step %d: node %d wrote %d, protocol move is %d (state %v)",
						step, i, cur.X[i], to, c.prev)
				}
			}
			c.reset(i, cur)
			// The write is visible to the neighbours watching slot i.
			for j := 0; j < c.n; j++ {
				if (j+c.n-1)%c.n == i {
					c.seenL[j][cur.X[i]] = true
				}
				if (j+1)%c.n == i {
					c.seenR[j][cur.X[i]] = true
				}
			}
		}
		if cur.RegL[i] != c.prev.RegL[i] {
			changes++
			c.moves++
			if c.fly[i] {
				c.fly[i] = false
			} else if !c.seenL[i][cur.RegL[i]] {
				c.fail("step %d: node %d parked left read %d, neighbour slot never held it (seen %v)",
					step, i, cur.RegL[i], c.seenL[i])
			}
			c.reset(i, cur)
		}
		if cur.RegR[i] != c.prev.RegR[i] {
			changes++
			c.moves++
			if c.fly[i] {
				c.fly[i] = false
			} else if !c.seenR[i][cur.RegR[i]] {
				c.fail("step %d: node %d parked right read %d, neighbour slot never held it (seen %v)",
					step, i, cur.RegR[i], c.seenR[i])
			}
			c.reset(i, cur)
		}
	}
	if changes > 1 {
		c.fail("step %d: %d observable words changed in one machine step", step, changes)
	}
	// Legality verdicts agree between the machine helper and the model
	// on every observable transition.
	machineLegal := c.s.MailboxLegal()
	modelLegal := c.p.Legal(cur.X, c.n)
	if machineLegal != modelLegal {
		c.fail("step %d: legality disagreement machine=%v model=%v state=%v",
			step, machineLegal, modelLegal, cur.X)
	}
	c.prev = cur
}

func TestMailboxTraceRefinesModel(t *testing.T) {
	for _, w := range mailboxWorkloads() {
		w := w
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			s := newMailbox(t, w)
			p, ok := s.MailboxProtocol()
			if !ok {
				t.Fatal("no protocol")
			}
			n := guest.MailboxNodes
			c := newRefinementChecker(t, s, p, n)
			s.M.AfterStep = c.observe

			// Legal segment: from boot through convergence and beyond.
			s.Run(400000)

			// Illegal segment: scramble the algorithm layer and check the
			// refinement holds through the entire recovery too — the
			// abstract relation covers every configuration, not just
			// legal ones.
			inj := fault.NewInjector(s.M, 13)
			inj.RandomizeRegion(mailboxRegion())
			for i := 0; i < n; i++ {
				inj.RandomizeRegion(mem.Region{Name: "regs",
					Start: guest.MailboxRegLAddr(i), Size: 4})
			}
			c.rebase()
			s.Run(400000)

			if c.moves < 100 {
				t.Fatalf("trace too quiet: only %d observable actions", c.moves)
			}
			if c.bad > 0 {
				t.Fatalf("%d refinement violations", c.bad)
			}
			t.Logf("checked %d observable actions", c.moves)
		})
	}
}
