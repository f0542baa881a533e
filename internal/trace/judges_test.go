package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ssos/internal/dev"
	"ssos/internal/obs"
)

// The reference judges below are the five copies of the heartbeat
// succession rule as they stood before the rule moved to obs.BeatRule:
// HeartbeatSpec's Violations, LegalSuffixStart and RecoveredAfter,
// LegalityTracker.OnBeat, and the experiments' availability measure.
// checkJudges holds every judge that now replays or applies the one
// rule to its reference, beat for beat.

func refViolations(s HeartbeatSpec, writes []dev.PortWrite, now uint64) []Violation {
	var out []Violation
	for i := 1; i < len(writes); i++ {
		prev, cur := writes[i-1], writes[i]
		if s.AllowRestart && cur.Value == s.Start {
			continue
		}
		if cur.Step-prev.Step > s.MaxGap {
			out = append(out, Violation{cur.Step, fmt.Sprintf(
				"heartbeat gap %d exceeds %d", cur.Step-prev.Step, s.MaxGap)})
		}
		if cur.Value == prev.Value+1 {
			continue
		}
		out = append(out, Violation{cur.Step, fmt.Sprintf(
			"heartbeat %#x does not follow %#x", cur.Value, prev.Value)})
	}
	if len(writes) == 0 {
		if now > s.MaxGap {
			out = append(out, Violation{now, "no heartbeat ever observed"})
		}
		return out
	}
	if last := writes[len(writes)-1]; now-last.Step > s.MaxGap {
		out = append(out, Violation{now, fmt.Sprintf(
			"silent for %d steps (max %d)", now-last.Step, s.MaxGap)})
	}
	return out
}

func refLegalSuffixStart(s HeartbeatSpec, writes []dev.PortWrite) int {
	start := 0
	for i := 1; i < len(writes); i++ {
		prev, cur := writes[i-1], writes[i]
		legal := (cur.Value == prev.Value+1 && cur.Step-prev.Step <= s.MaxGap) ||
			(s.AllowRestart && cur.Value == s.Start)
		if !legal {
			start = i + 1
		}
	}
	return start
}

func refRecoveredAfter(s HeartbeatSpec, writes []dev.PortWrite, faultStep uint64, confirm int) (uint64, bool) {
	idx := refLegalSuffixStart(s, writes)
	for idx < len(writes) && writes[idx].Step < faultStep {
		idx++
	}
	if len(writes)-idx < confirm {
		return 0, false
	}
	return writes[idx].Step, true
}

// refTracker is LegalityTracker with its own copy of the rule.
type refTracker struct {
	Start        uint16
	MaxGap       uint64
	AllowRestart bool
	obs.PredicateTracker

	have     bool
	prevStep uint64
	prevVal  uint16
}

func (t *refTracker) OnBeat(step uint64, v uint16) {
	legal := !t.have ||
		(v == t.prevVal+1 && step-t.prevStep <= t.MaxGap) ||
		(t.AllowRestart && v == t.Start)
	t.prevStep, t.prevVal, t.have = step, v, true
	t.OnSample(step, legal)
}

func refAvailability(w []dev.PortWrite, spec HeartbeatSpec, total uint64) float64 {
	if total == 0 {
		return 0
	}
	var up uint64
	for i := 1; i < len(w); i++ {
		gap := w[i].Step - w[i-1].Step
		if w[i].Value == w[i-1].Value+1 && gap <= spec.MaxGap {
			up += gap
		}
	}
	return float64(up) / float64(total)
}

// eventLog is a probe that keeps what it is sent.
type eventLog []obs.Event

func (l *eventLog) Emit(e obs.Event) { *l = append(*l, e) }

// judgeCase is one heartbeat stream and the arguments every judge
// takes: a spec, the time of the liveness check, a fault (its step, and
// the beat before which the online tracker sees it) and a confirmation
// depth.
type judgeCase struct {
	spec      HeartbeatSpec
	writes    []dev.PortWrite
	now       uint64
	faultStep uint64
	faultAt   int
	confirm   int
}

// decodeJudgeCase builds a case from arbitrary bytes. Three header
// bytes pick the spec, the confirmation depth, the fault and "now"; each
// further pair of bytes is one beat. Gaps cluster around MaxGap and
// values around the successor, so the rule's boundaries (a gap of
// exactly MaxGap or one more, a restart, a wrap from 0xFFFF to 0, a
// beat that is both late and out of succession) come up often.
func decodeJudgeCase(data []byte) judgeCase {
	var hdr [3]byte
	copy(hdr[:], data)
	var c judgeCase
	c.spec.AllowRestart = hdr[0]&1 != 0
	c.spec.Start = []uint16{1, 0, 0xFFFF, 0x8000}[hdr[0]>>1&3]
	c.spec.MaxGap = []uint64{100, 5, 1, 0}[hdr[0]>>3&3]
	c.confirm = 1 + int(hdr[1]&7)
	g := c.spec.MaxGap
	var step uint64
	val := c.spec.Start
	for i := 3; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		step += []uint64{g, g, g + 1, g / 2, 0, 1, 3*g + 7, uint64(arg)}[op&7]
		switch op >> 3 & 7 {
		case 0, 1, 2:
			val++
		case 3:
			val = c.spec.Start
		case 4: // repeat
		case 5:
			val = 0xFFFF
		case 6:
			val = 0
		case 7:
			val = uint16(arg)<<8 | uint16(op)
		}
		c.writes = append(c.writes, dev.PortWrite{Step: step, Value: val})
	}
	var last uint64
	if n := len(c.writes); n > 0 {
		last = c.writes[n-1].Step
	}
	c.now = last + []uint64{0, g, g + 1, uint64(hdr[2])}[hdr[2]&3]
	c.faultAt = int(hdr[1]>>3) % (len(c.writes) + 1)
	c.faultStep = last + 1
	if c.faultAt < len(c.writes) {
		c.faultStep = c.writes[c.faultAt].Step - uint64(hdr[2]>>7)
	}
	return c
}

// checkJudges runs every judge and its reference on one case.
func checkJudges(t *testing.T, c judgeCase) {
	t.Helper()
	if got, want := c.spec.Violations(c.writes, c.now), refViolations(c.spec, c.writes, c.now); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: Violations\n got  %v\n want %v", c, got, want)
	}
	if got, want := c.spec.LegalSuffixStart(c.writes), refLegalSuffixStart(c.spec, c.writes); got != want {
		t.Fatalf("%+v: LegalSuffixStart %d, want %d", c, got, want)
	}
	gs, gok := c.spec.RecoveredAfter(c.writes, c.faultStep, c.confirm)
	ws, wok := refRecoveredAfter(c.spec, c.writes, c.faultStep, c.confirm)
	if gs != ws || gok != wok {
		t.Fatalf("%+v: RecoveredAfter %d %v, want %d %v", c, gs, gok, ws, wok)
	}
	for _, total := range []uint64{0, c.now} {
		if got, want := c.spec.Availability(c.writes, total), refAvailability(c.writes, c.spec, total); got != want {
			t.Fatalf("%+v: Availability(%d) %v, want %v", c, total, got, want)
		}
	}
	var gotEv, wantEv eventLog
	tr := &obs.LegalityTracker{
		BeatStream:       obs.BeatStream{Rule: obs.BeatRule(c.spec)},
		PredicateTracker: obs.PredicateTracker{Confirm: c.confirm, Sink: &gotEv},
	}
	ref := &refTracker{
		Start: c.spec.Start, MaxGap: c.spec.MaxGap, AllowRestart: c.spec.AllowRestart,
		PredicateTracker: obs.PredicateTracker{Confirm: c.confirm, Sink: &wantEv},
	}
	for i, w := range c.writes {
		if i == c.faultAt {
			tr.OnFault(c.faultStep)
			ref.OnFault(c.faultStep)
		}
		tr.OnBeat(w.Step, w.Value)
		ref.OnBeat(w.Step, w.Value)
	}
	if !reflect.DeepEqual(gotEv, wantEv) {
		t.Fatalf("%+v: LegalityTracker events\n got  %v\n want %v", c, gotEv, wantEv)
	}
}

// TestHeartbeatJudgesMatchReference compares the judges with their
// references on 20,000 random streams, and checks that the streams
// reach every outcome of the rule.
func TestHeartbeatJudgesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seen := map[string]int{}
	for range 20000 {
		data := make([]byte, 3+2*rng.Intn(40))
		rng.Read(data)
		c := decodeJudgeCase(data)
		checkJudges(t, c)
		v := refViolations(c.spec, c.writes, c.now)
		for i, x := range v {
			seen[violationKind(x)]++
			if i > 0 && v[i-1].Step == x.Step && violationKind(v[i-1]) == "gap" {
				seen["gap and succession"]++
			}
		}
	}
	for _, k := range []string{"gap", "succession", "gap and succession", "never", "silent"} {
		if seen[k] == 0 {
			t.Errorf("no random stream drew a %q violation", k)
		}
	}
}

// violationKind names the part of the rule a violation reports.
func violationKind(v Violation) string {
	switch {
	case strings.HasPrefix(v.Reason, "heartbeat gap"):
		return "gap"
	case strings.Contains(v.Reason, "does not follow"):
		return "succession"
	case strings.HasPrefix(v.Reason, "no heartbeat"):
		return "never"
	}
	return "silent"
}

// TestHeartbeatJudgesEdgeCases pins the rule's boundaries, each against
// the reference and against the violation count it must give.
func TestHeartbeatJudgesEdgeCases(t *testing.T) {
	weak := HeartbeatSpec{Start: 1, MaxGap: 100, AllowRestart: true}
	strict := HeartbeatSpec{Start: 1, MaxGap: 100}
	for _, tc := range []struct {
		name  string
		spec  HeartbeatSpec
		w     []dev.PortWrite
		now   uint64
		viols int
	}{
		{"restart allowed", weak, beats(10, 5, 20, 1, 30, 2), 30, 0},
		{"restart not allowed", strict, beats(10, 5, 20, 1, 30, 2), 30, 1},
		{"restart allowed after a long gap", weak, beats(10, 5, 500, 1), 500, 0},
		{"restart not allowed after a long gap", strict, beats(10, 5, 500, 1), 500, 2},
		{"gap of exactly MaxGap", strict, beats(10, 1, 110, 2), 110, 0},
		{"gap of MaxGap+1", strict, beats(10, 1, 111, 2), 111, 1},
		{"wrap from 0xFFFF to 0", strict, beats(10, 0xFFFF, 20, 0, 30, 1), 30, 0},
		{"late and out of succession", strict, beats(10, 1, 500, 7), 500, 2},
		{"empty stream, now within MaxGap", strict, nil, 100, 0},
		{"empty stream, now past MaxGap", strict, nil, 101, 1},
		{"silent for MaxGap", strict, beats(10, 1), 110, 0},
		{"silent for MaxGap+1", strict, beats(10, 1), 111, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if v := tc.spec.Violations(tc.w, tc.now); len(v) != tc.viols {
				t.Errorf("violations %v, want %d", v, tc.viols)
			}
			for faultAt := 0; faultAt <= len(tc.w); faultAt++ {
				for confirm := 1; confirm <= 3; confirm++ {
					c := judgeCase{spec: tc.spec, writes: tc.w, now: tc.now, faultAt: faultAt, confirm: confirm, faultStep: tc.now + 1}
					if faultAt < len(tc.w) {
						c.faultStep = tc.w[faultAt].Step
					}
					checkJudges(t, c)
				}
			}
		})
	}
}

// FuzzHeartbeatJudges drives the judges and their references with
// arbitrary streams. Run with
// `go test -run '^$' -fuzz '^FuzzHeartbeatJudges$' ./internal/trace/`.
func FuzzHeartbeatJudges(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 9, 2, 0, 0, 0, 0, 24, 0, 2, 0})
	f.Add([]byte{0, 3, 1, 0, 0, 2, 0, 40, 0, 48, 0, 0, 0})
	f.Add([]byte{27, 0x3f, 0x83, 6, 0, 7, 0xaa, 31, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJudges(t, decodeJudgeCase(data))
	})
}
