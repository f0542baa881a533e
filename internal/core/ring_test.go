package core

import (
	"testing"

	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/mem"
)

// The TestRing* tests drive Dijkstra's K-state ring (the mailbox
// workload) through the scenarios the paper's composition argument
// names; the TestMailbox* tests sweep every protocol variant.

func newRing(t *testing.T) *System {
	t.Helper()
	return MustNew(Config{Approach: ApproachScheduler, Workload: WorkloadMailboxKState})
}

func TestRingTokenCirculates(t *testing.T) {
	s := newRing(t)
	since, ok := s.MailboxConverged(2000000, 500, 100)
	if !ok {
		t.Fatalf("ring never converged; privileges=%v ring=%v", s.MailboxPrivileges(), s.MailboxRing())
	}
	t.Logf("converged at step %d", since)
	// All members keep making moves after convergence.
	before := make([]uint64, guest.MailboxNodes)
	for i := range before {
		before[i] = s.ProcBeats[i].Total()
	}
	s.Run(500000)
	for i := 0; i < guest.MailboxNodes; i++ {
		if s.ProcBeats[i].Total() <= before[i] {
			t.Fatalf("member %d stopped moving", i)
		}
	}
}

func TestRingStabilizesFromArbitraryTokenValues(t *testing.T) {
	// Dijkstra's theorem on our substrate: any initial token values
	// converge to a single circulating privilege.
	s := newRing(t)
	s.Run(200000)
	// Adversarial slot words: all distinct → many privileges.
	for i := 0; i < guest.MailboxNodes; i++ {
		addr := guest.MailboxAddr(i)
		s.M.Bus.PokeRAM(addr, byte(37*i+11))
		s.M.Bus.PokeRAM(addr+1, byte(i))
	}
	if s.MailboxLegal() {
		t.Fatalf("poked configuration is legal: ring=%v", s.MailboxRing())
	}
	if _, ok := s.MailboxConverged(3000000, 500, 100); !ok {
		t.Fatalf("ring did not re-converge; privileges=%v", s.MailboxPrivileges())
	}
}

func TestRingSurvivesSchedulerFaults(t *testing.T) {
	// The composition claim, end to end: corrupt the OS layer (process
	// table AND the ring slots); the scheduler stabilizes first, then
	// the application stabilizes above it.
	s := newRing(t)
	s.Run(200000)
	inj := fault.NewInjector(s.M, 5)
	inj.RandomizeRegion(mem.Region{
		Name:  "table",
		Start: uint32(guest.SchedSeg) << 4,
		Size:  guest.ProcessTableOff + guest.NumProcs*guest.ProcessEntrySize,
	})
	for i := 0; i < guest.MailboxNodes; i++ {
		inj.CorruptByteIn(mem.Region{Name: "slot", Start: guest.MailboxAddr(i), Size: 2})
	}
	if _, ok := s.MailboxConverged(4000000, 500, 100); !ok {
		t.Fatalf("composition failed; privileges=%v", s.MailboxPrivileges())
	}
}

func TestRingPrivilegeAccounting(t *testing.T) {
	s := newRing(t)
	// Force a known configuration (machine not yet run past boot).
	set := func(i int, v uint16) {
		addr := guest.MailboxAddr(i)
		s.M.Bus.PokeRAM(addr, byte(v))
		s.M.Bus.PokeRAM(addr+1, byte(v>>8))
	}
	set(0, 3)
	set(1, 3)
	set(2, 3)
	// x0==x2 → root privileged only.
	p := s.MailboxPrivileges()
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("privileges: %v", p)
	}
	set(1, 4) // member1 differs from member0 AND member2 differs from member1
	p = s.MailboxPrivileges()
	if len(p) != 3 {
		t.Fatalf("privileges: %v", p)
	}
	// α projects a raw word onto 0..K-1 (K=16) before the guards see
	// it: high bits never make a member differ.
	set(1, 0x7F03)
	p = s.MailboxPrivileges()
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("privileges after 0x7F03: %v (ring=%v)", p, s.MailboxRing())
	}
}
