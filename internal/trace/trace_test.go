package trace

import (
	"strings"
	"testing"

	"ssos/internal/dev"
	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/mem"
)

func beats(pairs ...uint64) []dev.PortWrite {
	var out []dev.PortWrite
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, dev.PortWrite{Step: pairs[i], Value: uint16(pairs[i+1])})
	}
	return out
}

func TestViolationsCleanStream(t *testing.T) {
	spec := HeartbeatSpec{Start: 1, MaxGap: 100}
	w := beats(10, 1, 50, 2, 90, 3)
	if v := spec.Violations(w, 100); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestViolationsDetectSkipAndGapAndSilence(t *testing.T) {
	spec := HeartbeatSpec{Start: 1, MaxGap: 100}
	w := beats(10, 1, 50, 3) // skipped 2
	if v := spec.Violations(w, 60); len(v) != 1 {
		t.Fatalf("skip: %v", v)
	}
	w = beats(10, 1, 200, 2) // gap
	if v := spec.Violations(w, 210); len(v) != 1 {
		t.Fatalf("gap: %v", v)
	}
	w = beats(10, 1, 50, 2)
	if v := spec.Violations(w, 500); len(v) != 1 {
		t.Fatalf("silence: %v", v)
	}
	if v := spec.Violations(nil, 1000); len(v) != 1 {
		t.Fatalf("never beat: %v", v)
	}
	if v := spec.Violations(nil, 50); len(v) != 0 {
		t.Fatalf("early silence should be fine: %v", v)
	}
}

func TestRestartLegalityOnlyWhenAllowed(t *testing.T) {
	w := beats(10, 1, 20, 2, 30, 3, 40, 1, 50, 2)
	strict := HeartbeatSpec{Start: 1, MaxGap: 100}
	weak := HeartbeatSpec{Start: 1, MaxGap: 100, AllowRestart: true}
	if v := strict.Violations(w, 60); len(v) != 1 {
		t.Fatalf("strict should flag restart: %v", v)
	}
	if v := weak.Violations(w, 60); len(v) != 0 {
		t.Fatalf("weak should accept restart: %v", v)
	}
}

func TestLegalSuffixStart(t *testing.T) {
	spec := HeartbeatSpec{Start: 1, MaxGap: 100}
	// Illegal jump into index 1: the corrupted beat itself (index 1) is
	// excluded from the legal suffix.
	w := beats(10, 1, 20, 7, 30, 8, 40, 9)
	if got := spec.LegalSuffixStart(w); got != 2 {
		t.Fatalf("suffix start = %d", got)
	}
	// Violation at the last write: no legal suffix at all.
	w = beats(10, 1, 20, 2, 30, 9)
	if got := spec.LegalSuffixStart(w); got != 3 {
		t.Fatalf("suffix start after trailing violation = %d", got)
	}
	if got := spec.LegalSuffixStart(nil); got != 0 {
		t.Fatalf("empty suffix start = %d", got)
	}
	w = beats(10, 1, 20, 2)
	if got := spec.LegalSuffixStart(w); got != 0 {
		t.Fatalf("clean suffix start = %d", got)
	}
}

func TestRecoveredAfter(t *testing.T) {
	spec := HeartbeatSpec{Start: 1, MaxGap: 100, AllowRestart: true}
	// Fault at step 100 garbles one beat; restart at 150 then legal.
	w := beats(10, 1, 20, 2, 110, 0x7777, 150, 1, 160, 2, 170, 3)
	step, ok := spec.RecoveredAfter(w, 100, 3)
	if !ok || step != 150 {
		t.Fatalf("recovered = %d, %v", step, ok)
	}
	// Not enough confirmation beats.
	if _, ok := spec.RecoveredAfter(w, 100, 10); ok {
		t.Fatal("should need 10 confirm beats")
	}
	// Fault did not disturb the stream at all: recovery at first beat
	// after the fault.
	w = beats(10, 1, 20, 2, 30, 3, 40, 4)
	step, ok = spec.RecoveredAfter(w, 25, 2)
	if !ok || step != 30 {
		t.Fatalf("undisturbed recovery = %d, %v", step, ok)
	}
}

func TestPCSampler(t *testing.T) {
	bus := mem.NewBus()
	// Two nops at 0x1000, then jmp 0.
	code := []byte{byte(isa.OpNop), byte(isa.OpNop), byte(isa.OpJmp), 0, 0}
	for i, b := range code {
		bus.Poke(0x1000+uint32(i), b)
	}
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	s := NewPCSampler(
		Range{Name: "first", Start: 0x1000, End: 0x1001},
		Range{Name: "rest", Start: 0x1001, End: 0x1010},
	)
	counter := &EventCounter{}
	m.AfterStep = Multi(s.Observe, counter.Observe)
	m.Run(30)
	if s.Total != 30 {
		t.Fatalf("total = %d", s.Total)
	}
	if s.Counts[0] == 0 || s.Counts[1] == 0 || s.Other != 0 {
		t.Fatalf("sampler: %v", s)
	}
	if s.MinShare() <= 0 {
		t.Fatalf("min share = %f", s.MinShare())
	}
	if counter.Counts[machine.EventInstr] != 30 {
		t.Fatalf("counter: %v", counter.Counts)
	}
	s.Reset()
	if s.Total != 0 || s.Counts[0] != 0 {
		t.Fatal("reset failed")
	}
}

func TestPCSamplerOther(t *testing.T) {
	bus := mem.NewBus()
	bus.Poke(0x1000, byte(isa.OpJmp)) // jmp 0 loop
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	s := NewPCSampler(Range{Name: "elsewhere", Start: 0x9000, End: 0x9100})
	m.AfterStep = s.Observe
	m.Run(5)
	if s.Other != 5 || s.Share(0) != 0 {
		t.Fatalf("other accounting: %v", s)
	}
}

func TestRecorderRing(t *testing.T) {
	bus := mem.NewBus()
	code := []byte{
		byte(isa.OpMovRI), 0, 0x42, 0x00,
		byte(isa.OpIncR), 0,
		byte(isa.OpJmp), 0x04, 0x00,
	}
	for i, b := range code {
		bus.Poke(0x1000+uint32(i), b)
	}
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	r := NewRecorder(4)
	m.AfterStep = r.Observe
	m.Run(10)
	last := r.Last()
	if len(last) != 4 {
		t.Fatalf("ring length %d", len(last))
	}
	for i := 1; i < len(last); i++ {
		if last[i].Step != last[i-1].Step+1 {
			t.Fatalf("steps not consecutive: %v", last)
		}
	}
	dump := r.Dump()
	if !strings.Contains(dump, "inc ax") && !strings.Contains(dump, "jmp") {
		t.Fatalf("dump lacks disassembly:\n%s", dump)
	}
}

func TestRecorderBeforeFull(t *testing.T) {
	bus := mem.NewBus()
	bus.Poke(0x1000, byte(isa.OpNop))
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	r := NewRecorder(100)
	m.AfterStep = r.Observe
	m.Run(3)
	if got := len(r.Last()); got != 3 {
		t.Fatalf("partial ring length %d", got)
	}
	// Zero capacity defaults sanely.
	if r2 := NewRecorder(0); len(r2.ring) == 0 {
		t.Fatal("default capacity")
	}
}

func TestRecordedStepText(t *testing.T) {
	var e RecordedStep
	e.Event = machine.EventNMI
	if e.Text() != "<nmi>" {
		t.Fatalf("event text: %q", e.Text())
	}
	e.Event = machine.EventInstr
	e.Bytes[0] = 0xFF
	if !strings.Contains(e.Text(), "db 0xff") {
		t.Fatalf("junk text: %q", e.Text())
	}
	e.Event = machine.EventException
	if !strings.Contains(e.Text(), "exception") {
		t.Fatalf("exception text: %q", e.Text())
	}
}

// Ring wrap-around, exactly: with depth d and n > d recorded steps, the
// retained window must be precisely the last d step numbers, oldest
// first — no off-by-one at the wrap seam.
func TestRecorderWrapExactSteps(t *testing.T) {
	bus := mem.NewBus()
	bus.Poke(0x1000, byte(isa.OpJmp)) // jmp 0 loop
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	r := NewRecorder(4)
	m.AfterStep = r.Observe
	m.Run(7) // 7 > 4: the ring has wrapped, discarding the first 3
	last := r.Last()
	if len(last) != 4 {
		t.Fatalf("ring length %d", len(last))
	}
	end := m.Stats.Steps
	for i, e := range last {
		if want := end - 3 + uint64(i); e.Step != want {
			t.Fatalf("retained[%d].Step = %d, want %d (window %d..%d)", i, e.Step, want, end-3, end)
		}
	}
	// One more step must slide the window by exactly one.
	m.Run(1)
	if got := r.Last()[0].Step; got != end-2 {
		t.Fatalf("window did not slide: oldest = %d, want %d", got, end-2)
	}
}

// Range boundaries: Start is inclusive, End is exclusive.
func TestRangeBoundaries(t *testing.T) {
	r := Range{Name: "r", Start: 0x1000, End: 0x1010}
	cases := []struct {
		addr uint32
		in   bool
	}{
		{0x0FFF, false}, // one below start
		{0x1000, true},  // start itself
		{0x100F, true},  // last interior address
		{0x1010, false}, // end itself
		{0x1011, false}, // one past end
	}
	for _, c := range cases {
		if got := r.Contains(c.addr); got != c.in {
			t.Errorf("Contains(%#x) = %v, want %v", c.addr, got, c.in)
		}
	}
}

// The same boundaries, observed through a running machine: adjacent
// one-byte ranges split a nop straddle-free, so an instruction at an
// End address must be charged to the next range, never to the one it
// bounds.
func TestPCSamplerBoundaryAttribution(t *testing.T) {
	bus := mem.NewBus()
	bus.Poke(0x1000, byte(isa.OpNop)) // executes at 0x1000
	bus.Poke(0x1001, byte(isa.OpNop)) // executes at 0x1001
	bus.Poke(0x1002, byte(isa.OpJmp)) // back to 0
	m := machine.New(bus, machine.Options{ResetVector: machine.SegOff{Seg: 0x0100, Off: 0}})
	s := NewPCSampler(
		Range{Name: "a", Start: 0x1000, End: 0x1001},
		Range{Name: "b", Start: 0x1001, End: 0x1002},
	)
	m.AfterStep = s.Observe
	m.Run(9) // three full loop iterations
	if s.Counts[0] != 3 || s.Counts[1] != 3 {
		t.Fatalf("boundary attribution: a=%d b=%d other=%d", s.Counts[0], s.Counts[1], s.Other)
	}
	if s.Other != 3 { // the jmp at 0x1002 lies in neither range
		t.Fatalf("jmp accounting: other=%d", s.Other)
	}
}
