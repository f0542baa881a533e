package core

import (
	"sync"
	"testing"

	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/mem"
)

// layeredWorst returns the protocol's exact worst-case move count to a
// legal configuration under composite atomicity (model fixpoint),
// computed once per variant. The fuzz bound derives from it: the
// scheduler gives every node one quantum per round, each quantum runs
// many protocol iterations, so `worst` moves complete within `worst`
// scheduler rounds once the OS layer is stable.
var layeredWorst = func() func(v guest.RingVariant) int {
	var once sync.Once
	worst := map[guest.RingVariant]int{}
	return func(v guest.RingVariant) int {
		once.Do(func() {
			for _, vv := range guest.RingVariants() {
				w, err := vv.Protocol().System(guest.MailboxNodes).Verify(1 << 20)
				if err != nil {
					panic(err)
				}
				worst[vv] = w
			}
		})
		return worst[v]
	}
}()

// FuzzLayeredConvergence throws fuzz-chosen bytes at every mutable
// layer of a mailbox token-ring system — the shared slot words, the
// nodes' parked register words, the scheduler's process table — plus a
// seeded CPU blast, and requires the layered stack to stabilize within
// a bound derived from the model: the OS layer's worst observed
// recovery tail plus one scheduler round per worst-case protocol move
// (with slack for the near-composite interleaving). After the sustained
// legal window the invariant must hold at every further sample and the
// token must visit every node — mutual exclusion is never violated
// after stabilization, and circulation resumes.
func FuzzLayeredConvergence(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x00})
	f.Add(int64(7), uint8(1), []byte{0xFF, 0x13, 0x37})
	f.Add(int64(42), uint8(2), []byte{0xA5, 0x00, 0x5A, 0xC3, 0x21, 0x04, 0x7F, 0x80})
	f.Fuzz(func(t *testing.T, seed int64, variantSel uint8, blob []byte) {
		variants := guest.RingVariants()
		v := variants[int(variantSel)%len(variants)]
		s := MustNew(Config{Approach: ApproachScheduler, Workload: MailboxWorkload(v)})
		s.Run(100000)

		// Deterministically pour the fuzz bytes over the layers.
		if len(blob) == 0 {
			blob = []byte{0}
		}
		at := 0
		next := func() byte { b := blob[at%len(blob)]; at++; return b }
		pour := func(r mem.Region) {
			for off := uint32(0); off < r.Size; off++ {
				s.M.Bus.PokeRAM(r.Start+off, next())
			}
		}
		pour(mailboxRegion())
		for i := 0; i < guest.MailboxNodes; i++ {
			pour(mem.Region{Name: "regs", Start: guest.MailboxRegLAddr(i), Size: 4})
		}
		pour(mem.Region{Name: "table", Start: uint32(guest.SchedSeg) << 4,
			Size: guest.ProcessTableOff + guest.NumProcs*guest.ProcessEntrySize})
		inj := fault.NewInjector(s.M, seed)
		inj.BlastCPU()

		// Let the OS layer's worst internal transient drain first: a
		// table blast can hand the ROM refresher's rep movsb a random
		// cx/si/di, and the resulting scribble (up to 64 KiB, one byte
		// per refresher tick — see E7's horizon note) can cross the
		// mailbox region long after the ring first looks legal. Only
		// after that tail is the remaining convergence purely the
		// protocol's.
		s.Run(2500000)

		// Model-derived bound: one scheduler round per worst-case
		// protocol move, with slack for the near-composite
		// interleaving, plus the sustained sample window.
		round := guest.NumProcs * DefaultQuantum
		bound := (layeredWorst(v)+guest.MailboxNodes)*round*8 + 50000
		if _, ok := s.MailboxConverged(bound, 500, 100); !ok {
			t.Fatalf("%v did not stabilize within %d steps; privileges=%v ring=%v",
				v, bound, s.MailboxPrivileges(), s.MailboxRing())
		}

		// After stabilization: closure (never more or fewer than one
		// privilege again) and liveness (the token visits every node).
		holders := map[int]bool{}
		for k := 0; k < 600; k++ {
			s.Run(500)
			p := s.MailboxPrivileges()
			if len(p) != 1 {
				t.Fatalf("%v mutual exclusion violated after stabilization: privileges=%v ring=%v",
					v, p, s.MailboxRing())
			}
			holders[p[0]] = true
		}
		if len(holders) != guest.MailboxNodes {
			t.Fatalf("%v token circulation did not resume: visited %v", v, holders)
		}
	})
}
