package trace

import (
	"fmt"
	"strings"

	"ssos/internal/isa"
	"ssos/internal/machine"
)

// RecordedStep is one entry of the execution recorder: where the
// processor was and what kind of step it performed.
type RecordedStep struct {
	Step  uint64
	CS    uint16
	IP    uint16
	Event machine.Event
	// Bytes holds the first bytes at cs:ip before the step, enough to
	// disassemble the instruction that was about to execute.
	Bytes [isa.MaxInstrSize]byte
}

// Text disassembles the recorded instruction (or names the event for
// non-instruction steps).
func (r RecordedStep) Text() string {
	switch r.Event {
	case machine.EventInstr, machine.EventException:
		in, _, ok := isa.Decode(r.Bytes[:])
		suffix := ""
		if r.Event == machine.EventException {
			suffix = "  ; -> exception"
		}
		if !ok {
			return fmt.Sprintf("db 0x%02x%s", r.Bytes[0], suffix)
		}
		return in.String() + suffix
	default:
		return "<" + r.Event.String() + ">"
	}
}

func (r RecordedStep) String() string {
	return fmt.Sprintf("%10d  %04x:%04x  %s", r.Step, r.CS, r.IP, r.Text())
}

// Recorder keeps a ring of the most recent machine steps with enough
// context to disassemble them — a flight recorder for debugging guest
// code and post-mortem analysis of fault-injection runs.
type Recorder struct {
	ring []RecordedStep
	next int
	full bool
}

// NewRecorder returns a recorder retaining the last n steps.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = 64
	}
	return &Recorder{ring: make([]RecordedStep, n)}
}

// Observe records one step; use it as (part of) the machine's
// AfterStep hook. The program counter it records is the post-step one
// for control transfers, so Observe additionally snapshots the next
// instruction's bytes — in practice the stream reads naturally as
// "what executed next".
func (r *Recorder) Observe(m *machine.Machine, ev machine.Event) {
	e := RecordedStep{
		Step:  m.Stats.Steps,
		CS:    m.CPU.S[isa.CS],
		IP:    m.CPU.IP,
		Event: ev,
	}
	for i := range e.Bytes {
		e.Bytes[i] = m.Bus.LoadByte(m.Linear(isa.CS, m.CPU.IP+uint16(i)))
	}
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
}

// Last returns the retained steps, oldest first.
func (r *Recorder) Last() []RecordedStep {
	if !r.full {
		out := make([]RecordedStep, r.next)
		copy(out, r.ring[:r.next])
		return out
	}
	out := make([]RecordedStep, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Dump renders the retained steps as a printable listing.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Last() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
