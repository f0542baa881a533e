package model

import "testing"

// TestWatchdogRecurrenceExhaustive mechanically verifies the paper's
// watchdog guarantee over the FULL register state space, corruption
// included: "Starting from any state of the watchdog, a signal will be
// triggered within the desired interval time and no premature signal
// will be triggered thereafter."
func TestWatchdogRecurrenceExhaustive(t *testing.T) {
	const period = 32
	states := WatchdogStates(period, period*4)
	if err := CheckRecurrence(states, WatchdogNext(period), WatchdogFired(period),
		period, period*6); err != nil {
		t.Fatal(err)
	}
}

// TestNMICounterDeliveryExhaustive mechanically verifies the paper's
// Lemma 3.1 argument at the hardware level: with the counter machinery
// and the watchdog holding the pin, an NMI is delivered within
// counter-max+1 ticks from EVERY machinery state.
func TestNMICounterDeliveryExhaustive(t *testing.T) {
	const max = 24
	const regMax = max * 2 // the physical register's largest value
	states := NMIStates(regMax)
	// Force the worst case: pin held from the start.
	for i := range states {
		states[i].Pin = true
	}
	// First delivery is bounded by the largest value the register can
	// hold after corruption (regMax), not by the reload value; the
	// steady-state gap is max+1. CheckRecurrence verifies the worst of
	// the two over the whole space.
	if err := CheckRecurrence(states, NMINextCounter(max), NMIDeliveredCounter(max),
		int(regMax)+1, int(max)*6); err != nil {
		t.Fatal(err)
	}
}

// TestStockLatchCounterexample confirms the motivating hazard is real
// in the model too: with the stock in-NMI latch and no iret, the state
// space contains configurations from which delivery never happens.
func TestStockLatchCounterexample(t *testing.T) {
	states := NMIStates(4)
	for i := range states {
		states[i].Pin = true
	}
	err := CheckRecurrence(states, NMINextStock(), NMIDeliveredStock(), 8, 64)
	if err == nil {
		t.Fatal("stock latch should have a never-delivering state")
	}
}

// TestRingConvergesCompositeAtomicity verifies Dijkstra's theorem for
// the 3-member unidirectional ring under the adversarial central
// daemon, exhaustively: closure of the one-privilege set and
// convergence from all K^3 states.
func TestRingConvergesCompositeAtomicity(t *testing.T) {
	for _, k := range []uint8{3, 4, 8} {
		sys := KStateProtocol(k).System(3)
		worst, err := sys.Verify(1 << 20)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		t.Logf("K=%d: worst-case convergence %d moves over %d states", k, worst, len(sys.States))
	}
}

// TestRingBoundIsExactlyNMinusOne rediscovers Dijkstra's bound
// mechanically: under the adversarial central daemon the n-member
// K-state ring converges for K = n-1 and has a genuine illegal cycle
// for K = n-2. (For n=3 even K=2 converges, so the negative half
// starts at n=4.) The exact worst cases are pinned: ssos-verify
// reports them.
func TestRingBoundIsExactlyNMinusOne(t *testing.T) {
	wantWorst := map[int]int{3: 1, 4: 13, 5: 24, 6: 38}
	for n := 3; n <= 6; n++ {
		k := uint8(n - 1)
		sys := KStateProtocol(k).System(n)
		worst, err := sys.Verify(1 << 20)
		if err != nil {
			t.Fatalf("n=%d K=%d should converge: %v", n, k, err)
		}
		if worst != wantWorst[n] {
			t.Errorf("n=%d K=%d: worst-case convergence %d moves, want %d", n, k, worst, wantWorst[n])
		}
	}
	for n := 4; n <= 6; n++ {
		k := uint8(n - 2)
		if _, err := KStateProtocol(k).System(n).Verify(1 << 20); err == nil {
			t.Fatalf("n=%d K=%d should have an illegal cycle", n, k)
		}
	}
}

// rwRing is Dijkstra's 3-member K-state ring under read/write
// atomicity, written out directly in Dolev & Herman's setting: each
// member also carries the register holding its (possibly stale) read of
// its predecessor, and a two-phase program counter (0 = about to read,
// 1 = about to test-and-write). It is kept here as the reference the
// generic delay model must reproduce, the way roles_test.go keeps the
// earlier per-protocol closures.
type rwRing struct {
	X, Reg, PC [3]uint8
}

// rwRingStates enumerates every rwRing state for K=k.
func rwRingStates(k uint8) []rwRing {
	total := 8
	for j := 0; j < 6; j++ {
		total *= int(k)
	}
	out := make([]rwRing, 0, total)
	for c := 0; c < total; c++ {
		var s rwRing
		v := c
		for i := 0; i < 3; i++ {
			s.X[i], v = uint8(v%int(k)), v/int(k)
			s.Reg[i], v = uint8(v%int(k)), v/int(k)
			s.PC[i], v = uint8(v%2), v/2
		}
		out = append(out, s)
	}
	return out
}

// step performs member i's next atomic action: a read of its
// predecessor into its register, or the test-and-write using the
// (possibly stale) register.
func (s rwRing) step(k uint8, i int) rwRing {
	n := s
	if s.PC[i] == 0 {
		n.Reg[i] = s.X[(i+2)%3]
		n.PC[i] = 1
		return n
	}
	if i == 0 {
		if s.Reg[0] == s.X[0] {
			n.X[0] = (s.Reg[0] + 1) % k
		}
	} else if s.Reg[i] != s.X[i] {
		n.X[i] = s.Reg[i]
	}
	n.PC[i] = 0
	return n
}

// legal reports exactly one privilege in X.
func (s rwRing) legal() bool {
	privs := 0
	if s.X[0] == s.X[2] {
		privs++
	}
	for i := 1; i < 3; i++ {
		if s.X[i] != s.X[i-1] {
			privs++
		}
	}
	return privs == 1
}

// mailbox maps s onto the delay model's state; K-state members read
// only their left neighbour, so RegR stays zero.
func (s rwRing) mailbox() MailboxState {
	var m MailboxState
	for i := 0; i < 3; i++ {
		m.X[i], m.RegL[i], m.PC[i] = s.X[i], s.Reg[i], s.PC[i]
	}
	return m
}

// TestRWRingConvergesUnderFairness verifies the ring AS THE SCHEDULER
// ACTUALLY RUNS IT — read/write atomicity, stale registers and all —
// under every weakly-fair interleaving, for the K used by the guest
// workload's bound (K >= 2n-1 = 5), on the hand-written rwRing model;
// and checks that KStateProtocol(5).DelaySystem(3) is that same system,
// state for state and step for step.
func TestRWRingConvergesUnderFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	const k = 5
	p := KStateProtocol(k)
	states := rwRingStates(k)
	mapped := make(map[MailboxState]bool, len(states))
	for _, s := range states {
		m := s.mailbox()
		mapped[m] = true
		for i := 0; i < 3; i++ {
			if got, want := p.DelayStep(3, m, i), s.step(k, i).mailbox(); got != want {
				t.Fatalf("member %d from %+v: DelayStep gives %+v, reference %+v", i, m, got, want)
			}
		}
	}
	delay := p.DelaySystem(3)
	if len(delay.States) != len(states) {
		t.Fatalf("DelaySystem has %d states, reference %d", len(delay.States), len(states))
	}
	for _, m := range delay.States {
		if !mapped[m] {
			t.Fatalf("DelaySystem state %+v has no reference counterpart", m)
		}
	}

	pos := make(map[rwRing]int, len(states))
	for i, s := range states {
		pos[s] = i
	}
	index := func(s rwRing) int {
		if i, ok := pos[s]; ok {
			return i
		}
		return -1
	}
	next := func(s rwRing, out []rwRing) []rwRing {
		return append(out, s.step(k, 0), s.step(k, 1), s.step(k, 2))
	}
	sys := &System[rwRing]{States: states, Index: index, Next: next, Legal: rwRing.legal}
	closed := sys.GreatestClosedSubset(sys.Legal)
	if len(states) != 125000 || members(closed) != 20160 {
		t.Fatalf("K=%d: %d states, closed legitimate set of %d; want 125000 and 20160",
			k, len(states), members(closed))
	}
	labeled := func(s rwRing) []Labeled[rwRing] {
		out := make([]Labeled[rwRing], 0, 3)
		for i := 0; i < 3; i++ {
			out = append(out, Labeled[rwRing]{To: s.step(k, i), Actor: i})
		}
		return out
	}
	legal := func(s rwRing) bool { return closed[index(s)] }
	if witness, ok := CheckFairConvergence(states, labeled, legal, 3); !ok {
		t.Fatalf("fair illegal cycle reachable, e.g. from %+v", witness)
	}
}

// TestRWRingClosedSetNonTrivial sanity-checks the refinement on the
// ring as the scheduler runs it (the K-state delay system): the
// syntactic one-privilege candidate is strictly larger than its
// greatest closed subset (stale registers can push an execution out),
// which is exactly why the refinement step exists.
func TestRWRingClosedSetNonTrivial(t *testing.T) {
	sys := KStateProtocol(3).DelaySystem(3)
	candidate := 0
	for _, s := range sys.States {
		if sys.Legal(s) {
			candidate++
		}
	}
	closed := members(sys.GreatestClosedSubset(sys.Legal))
	if len(sys.States) != 5832 || candidate != 3240 || closed != 1608 {
		t.Fatalf("K=3: %d states, candidate %d -> closed %d; want 5832, 3240 -> 1608",
			len(sys.States), candidate, closed)
	}
}

// identity indexes a System[int] whose States are 0..n-1 in order.
func identity(n int) func(int) int {
	return func(s int) int {
		if s >= 0 && s < n {
			return s
		}
		return -1
	}
}

// TestClosureViolationDetected exercises the checker's failure path on
// a deliberately broken system.
func TestClosureViolationDetected(t *testing.T) {
	sys := &System[int]{
		States: []int{0, 1, 2},
		Index:  identity(3),
		Next:   func(s int, out []int) []int { return append(out, (s+1)%3) },
		Legal:  func(s int) bool { return s == 0 }, // 0 -> 1 leaves the set
	}
	if _, _, bad := sys.CheckClosure(); !bad {
		t.Fatal("closure violation not detected")
	}
	if _, err := sys.Verify(10); err == nil {
		t.Fatal("Verify should fail on closure violation")
	}
}

// TestConvergenceCycleDetected exercises the illegal-cycle failure path.
func TestConvergenceCycleDetected(t *testing.T) {
	sys := &System[int]{
		States: []int{0, 1, 2},
		Index:  identity(3),
		Next: func(s int, out []int) []int {
			if s == 0 {
				return append(out, 0)
			}
			return append(out, 3-s) // 1 <-> 2 cycle, both illegal
		},
		Legal: func(s int) bool { return s == 0 },
	}
	if _, _, ok := sys.CheckConvergence(10); ok {
		t.Fatal("illegal cycle not detected")
	}
}

// TestConvergenceBoundExceeded exercises the bound-violation path.
func TestConvergenceBoundExceeded(t *testing.T) {
	// A chain 5 -> 4 -> ... -> 0 (legal): worst case 5 steps.
	sys := &System[int]{
		States: []int{0, 1, 2, 3, 4, 5},
		Index:  identity(6),
		Next: func(s int, out []int) []int {
			if s == 0 {
				return append(out, 0)
			}
			return append(out, s-1)
		},
		Legal: func(s int) bool { return s == 0 },
	}
	worst, _, ok := sys.CheckConvergence(3)
	if ok || worst != 5 {
		t.Fatalf("worst=%d ok=%v, want 5,false", worst, ok)
	}
	if worst, err := sys.Verify(5); err != nil || worst != 5 {
		t.Fatalf("Verify: %d, %v", worst, err)
	}
}

// TestFairConvergenceUnfairCycleTolerated verifies the fairness filter:
// a cycle driven by a single actor (an unfair schedule) is not a
// counterexample when another actor's step escapes.
func TestFairConvergenceUnfairCycleTolerated(t *testing.T) {
	// States 1,2 illegal; actor 0 cycles 1<->2, actor 1 escapes to 0.
	next := func(s int) []Labeled[int] {
		switch s {
		case 1:
			return []Labeled[int]{{To: 2, Actor: 0}, {To: 0, Actor: 1}}
		case 2:
			return []Labeled[int]{{To: 1, Actor: 0}, {To: 0, Actor: 1}}
		}
		return []Labeled[int]{{To: 0, Actor: 0}, {To: 0, Actor: 1}}
	}
	legal := func(s int) bool { return s == 0 }
	if _, ok := CheckFairConvergence([]int{0, 1, 2}, next, legal, 2); !ok {
		t.Fatal("unfair cycle should be tolerated under weak fairness")
	}
	// But a cycle served by both actors is a true counterexample.
	next2 := func(s int) []Labeled[int] {
		switch s {
		case 1:
			return []Labeled[int]{{To: 2, Actor: 0}, {To: 2, Actor: 1}}
		case 2:
			return []Labeled[int]{{To: 1, Actor: 0}, {To: 1, Actor: 1}}
		}
		return []Labeled[int]{{To: 0, Actor: 0}, {To: 0, Actor: 1}}
	}
	if _, ok := CheckFairConvergence([]int{0, 1, 2}, next2, legal, 2); ok {
		t.Fatal("fair cycle not detected")
	}
}

// TestCheckpointingIsNotSelfStabilizing proves E9's claim in the
// 4-state abstraction: the poisoned pair {corrupt guest, corrupt
// snapshot} is an absorbing illegal cycle, so rollback recovery does
// not converge from every state.
func TestCheckpointingIsNotSelfStabilizing(t *testing.T) {
	sys := CheckpointSystem()
	_, witness, ok := sys.CheckConvergence(16)
	if ok {
		t.Fatal("checkpointing should not converge from every state")
	}
	if witness.GuestOK {
		t.Fatalf("witness must start corrupt, got %+v", witness)
	}
	// The checker's witness is even stronger than the absorbing
	// poisoned pair: from {corrupt guest, CLEAN snapshot} one schedule
	// (snapshot before rollback) still never recovers — E9's fault-
	// phase dependence, derived formally.
	poisoned := RecoveryState{GuestOK: false, SourceOK: false}
	for _, n := range sys.Next(poisoned, nil) {
		if n.GuestOK || n.SourceOK {
			t.Fatalf("poisoned pair escaped to %+v", n)
		}
	}
	// The reinstall abstraction converges within exactly one watchdog
	// period from every state: ROM cannot be poisoned and the reinstall
	// cannot be withheld.
	const period = 8
	re := ReinstallSystem(period)
	worst, err := re.Verify(period)
	if err != nil {
		t.Fatalf("reinstall abstraction: %v", err)
	}
	if worst != period {
		t.Fatalf("worst-case convergence %d, want exactly the period %d", worst, period)
	}
}
