package dev

import "ssos/internal/machine"

// Timer raises a maskable interrupt with a fixed IDT vector every
// Period ticks. Like the watchdog it is self-stabilizing: a corrupted
// counter is clamped, so the next interrupt arrives within one period.
type Timer struct {
	Period  uint32
	Counter uint32
	Vec     uint8
	Fires   uint64
}

// NewTimer returns a timer interrupting through vector vec every period
// ticks.
func NewTimer(period uint32, vec uint8) *Timer {
	if period == 0 {
		period = 1
	}
	return &Timer{Period: period, Counter: period - 1, Vec: vec}
}

// Tick advances the countdown, raising the IRQ at zero.
func (t *Timer) Tick(m *machine.Machine) {
	if t.Period == 0 {
		t.Period = 1
	}
	if t.Counter >= t.Period {
		t.Counter = t.Period - 1
	}
	if t.Counter == 0 {
		t.Fires++
		m.RaiseIRQ(t.Vec)
		t.Counter = t.Period - 1
		return
	}
	t.Counter--
}

// Quiet reports how many upcoming ticks only count down (the
// machine.Ticker contract; the counter is mapped to no port and no
// memory).
func (t *Timer) Quiet() uint32 { return quiet(t.Period, t.Counter) }

// Skip applies k ≤ Quiet() countdown-only ticks at once.
func (t *Timer) Skip(k uint32) { t.Counter -= k }
