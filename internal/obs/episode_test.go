package obs

import (
	"reflect"
	"testing"
)

// machineRecovery is a synthetic single-machine stream: one injected
// fault, watchdog detection, two reinstall attempts (the first stalls),
// a predicate repair, and the legality confirmation.
func machineRecovery() []Event {
	mk := func(step uint64, t Type, fid uint64) Event {
		e := Ev(step, t)
		e.FaultID = fid
		return e
	}
	fault := mk(100, TypeFaultInjected, 1)
	fault.Note = "ram-region os-state"
	nmi := mk(120, TypeNMI, 1)
	ri1 := mk(120, TypeReinstallStarted, 1)
	ri2 := mk(180, TypeReinstallStarted, 1) // first attempt stalled
	done := mk(200, TypeReinstallCompleted, 1)
	fail := mk(210, TypePredicateFailed, 1)
	fail.Code = 0xE001
	rep := mk(210, TypePredicateRepaired, 1)
	rep.Code = 0xE001
	legal := mk(400, TypeLegalityRegained, 1)
	legal.Code = 150 // steps-to-legal
	legal.Arg = 250  // first beat of the confirming run
	return []Event{fault, nmi, ri1, ri2, done, fail, rep, legal}
}

// inFlight counts the episodes still awaiting resolution: neither
// resolved nor preempted.
func inFlight(eps []Episode) int {
	n := 0
	for _, ep := range eps {
		if !ep.Resolved && !ep.Preempted {
			n++
		}
	}
	return n
}

func TestFoldEpisodesMachineRecovery(t *testing.T) {
	eps := FoldEpisodes(machineRecovery())
	if len(eps) != 1 {
		t.Fatalf("episodes: %d, want 1", len(eps))
	}
	ep := eps[0]
	if ep.ID != 1 || ep.Replica != -1 || ep.FaultID != 1 {
		t.Errorf("identity: %+v", ep)
	}
	if ep.FaultClass != "ram-region" {
		t.Errorf("fault class %q", ep.FaultClass)
	}
	if !ep.Resolved || ep.Preempted || ep.Resolution != ResolutionLegality {
		t.Errorf("resolution: %+v", ep)
	}
	if ep.Start != 100 || ep.End != 400 || ep.Latency() != 300 || ep.StepsToLegal != 150 {
		t.Errorf("timing: start=%d end=%d steps-to-legal=%d", ep.Start, ep.End, ep.StepsToLegal)
	}
	want := []Span{
		{Name: "detect:nmi", Start: 100, End: 120},
		{Name: "reinstall", Start: 120, End: 180}, // stalled attempt, closed by the retry
		{Name: "reinstall", Start: 180, End: 200},
		{Name: "repair:0xe001", Start: 210, End: 210},
		{Name: "confirm", Start: 250, End: 400},
	}
	if !reflect.DeepEqual(ep.Spans, want) {
		t.Errorf("spans:\n got %+v\nwant %+v", ep.Spans, want)
	}
}

// TestSecondFaultPreemptsOpenEpisode: a fault injected before the
// previous episode confirms legality starts a NEW episode and marks the
// first preempted — it must not silently extend it.
func TestSecondFaultPreemptsOpenEpisode(t *testing.T) {
	f1 := Ev(100, TypeFaultInjected)
	f1.FaultID = 1
	f1.Note = "cpu-blast"
	f2 := Ev(300, TypeFaultInjected)
	f2.FaultID = 2
	f2.Note = "ram-bit"
	legal := Ev(900, TypeLegalityRegained)
	legal.FaultID = 2
	legal.Code = 500
	legal.Arg = 400

	eps := FoldEpisodes([]Event{f1, f2, legal})
	if len(eps) != 2 {
		t.Fatalf("episodes: %d, want 2", len(eps))
	}
	first, second := eps[0], eps[1]
	if !first.Preempted || first.Resolved || first.Resolution != ResolutionPreempted {
		t.Errorf("first episode not preempted: %+v", first)
	}
	if first.End != 300 || first.Latency() != 200 {
		t.Errorf("preempted episode ends at the new fault: %+v", first)
	}
	if second.FaultID != 2 || !second.Resolved || second.Resolution != ResolutionLegality {
		t.Errorf("second episode: %+v", second)
	}
	if second.StepsToLegal != 500 {
		t.Errorf("second steps-to-legal %d", second.StepsToLegal)
	}
}

// TestSameStepFaultsCoalesce: several fault records landing at one step
// (one injection request, e.g. "pc" corrupting ip and a segment) open
// ONE episode with joined classes, not a preemption chain.
func TestSameStepFaultsCoalesce(t *testing.T) {
	f1 := Ev(100, TypeFaultInjected)
	f1.FaultID = 1
	f1.Note = "ip ip=beef"
	f2 := Ev(100, TypeFaultInjected)
	f2.FaultID = 2
	f2.Note = "segment cs"

	tr := NewEpisodeTracker()
	tr.Feed(f1)
	tr.Feed(f2)
	eps := tr.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes: %d, want 1 (coalesced)", len(eps))
	}
	if eps[0].FaultClass != "ip+segment" || eps[0].FaultID != 2 {
		t.Errorf("coalesced episode: %+v", eps[0])
	}
	if eps[0].Preempted || eps[0].Resolved {
		t.Errorf("coalesced episode should be in flight: %+v", eps[0])
	}
	if n := inFlight(eps); n != 1 {
		t.Errorf("in-flight: %d", n)
	}
}

// TestEvictRejoinClosesEpisode: a cluster episode resolves through the
// reconfigurator — evict + rejoin at the epoch boundary — with a span
// for the eviction and a saturating fault-to-rejoin latency.
func TestEvictRejoinClosesEpisode(t *testing.T) {
	fault := Event{Step: 5000, Type: TypeFaultInjected, Replica: 2, Epoch: 1, FaultID: 1, Note: "cpu-blast"}
	exc := Event{Step: 5040, Type: TypeException, Replica: 2, Epoch: 1, FaultID: 1, Code: 3}
	evict := Event{Step: 8192, Type: TypeReplicaEvicted, Replica: 2, Epoch: 1, FaultID: 1, Note: "divergent"}
	rejoin := Event{Step: 8192, Type: TypeReplicaRejoined, Replica: 2, Epoch: 1, FaultID: 1, Arg: 1}

	eps := FoldEpisodes([]Event{fault, exc, evict, rejoin})
	if len(eps) != 1 {
		t.Fatalf("episodes: %d, want 1", len(eps))
	}
	ep := eps[0]
	if !ep.Resolved || ep.Resolution != ResolutionRejoin {
		t.Errorf("resolution: %+v", ep)
	}
	if ep.Replica != 2 || ep.End != 8192 || ep.StepsToLegal != 3192 {
		t.Errorf("timing/scope: %+v", ep)
	}
	want := []Span{
		{Name: "detect:exception", Start: 5000, End: 5040},
		{Name: "evict:divergent", Start: 8192, End: 8192},
	}
	if !reflect.DeepEqual(ep.Spans, want) {
		t.Errorf("spans: %+v", ep.Spans)
	}
}

// TestScopesAreIndependent: episodes on different replicas interleave
// without preempting each other.
func TestScopesAreIndependent(t *testing.T) {
	f0 := Event{Step: 100, Type: TypeFaultInjected, Replica: 0, FaultID: 1, Note: "ram-bit"}
	f1 := Event{Step: 150, Type: TypeFaultInjected, Replica: 1, FaultID: 1, Note: "cpu-blast"}
	l0 := Event{Step: 600, Type: TypeLegalityRegained, Replica: 0, FaultID: 1, Code: 400, Arg: 500}

	tr := NewEpisodeTracker()
	for _, e := range []Event{f0, f1, l0} {
		tr.Feed(e)
	}
	eps := tr.Episodes()
	if len(eps) != 2 {
		t.Fatalf("episodes: %d", len(eps))
	}
	if eps[0].Replica != 0 || !eps[0].Resolved || eps[0].Preempted {
		t.Errorf("replica-0 episode: %+v", eps[0])
	}
	if eps[1].Replica != 1 || eps[1].Resolved || eps[1].Preempted {
		t.Errorf("replica-1 episode should still be open: %+v", eps[1])
	}
	if n := inFlight(eps); n != 1 {
		t.Errorf("in-flight: %d", n)
	}
}

// TestUntaggedEventsAreOutsideEpisodes: FaultID-zero machine events
// (the periodic watchdog NMIs of an undisturbed run) contribute no
// spans even while an episode is open on another cause's scope.
func TestUntaggedEventsAreOutsideEpisodes(t *testing.T) {
	periodic := Ev(50, TypeNMI) // before any fault, untagged
	fault := Ev(100, TypeFaultInjected)
	fault.FaultID = 1
	fault.Note = "halt"
	stray := Ev(150, TypeReinstallStarted) // untagged: not part of the recovery

	eps := FoldEpisodes([]Event{periodic, fault, stray})
	if len(eps) != 1 {
		t.Fatalf("episodes: %d", len(eps))
	}
	if len(eps[0].Spans) != 0 {
		t.Errorf("untagged events grew spans: %+v", eps[0].Spans)
	}
}

func TestFoldEpisodesDeterministic(t *testing.T) {
	stream := append(machineRecovery(),
		Event{Step: 5000, Type: TypeFaultInjected, Replica: 2, Epoch: 1, FaultID: 1, Note: "cpu-blast"},
		Event{Step: 8192, Type: TypeReplicaEvicted, Replica: 2, Epoch: 1, FaultID: 1, Note: "divergent"},
		Event{Step: 8192, Type: TypeReplicaRejoined, Replica: 2, Epoch: 1, FaultID: 1, Arg: 1},
	)
	a, b := FoldEpisodes(stream), FoldEpisodes(stream)
	if !reflect.DeepEqual(a, b) {
		t.Error("two folds of the same stream differ")
	}
}

func TestRecordEpisodesMetrics(t *testing.T) {
	f1 := Ev(100, TypeFaultInjected)
	f1.FaultID = 1
	f1.Note = "ram-region os-state"
	f2 := Ev(300, TypeFaultInjected) // preempts f1
	f2.FaultID = 2
	f2.Note = "cpu-blast"
	legal := Ev(900, TypeLegalityRegained)
	legal.FaultID = 2
	legal.Code = 500
	legal.Arg = 400
	f3 := Ev(2000, TypeFaultInjected) // stays in flight
	f3.FaultID = 3
	f3.Note = "halt"

	m := NewMetrics()
	RecordEpisodes(m, FoldEpisodes([]Event{f1, f2, legal, f3}))
	for name, want := range map[string]uint64{
		"episodes.total":     3,
		"episodes.resolved":  1,
		"episodes.preempted": 1,
		"episodes.in_flight": 1,
	} {
		if got := m.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := m.Samples("episode.latency"); len(got) != 1 || got[0] != 600 {
		t.Errorf("episode.latency samples %v", got)
	}
	if got := m.Samples("episode.latency.fault.cpu-blast"); len(got) != 1 {
		t.Errorf("fault-split samples %v", got)
	}
	if got := m.Samples("episode.latency.action." + ResolutionLegality); len(got) != 1 {
		t.Errorf("action-split samples %v", got)
	}
}
