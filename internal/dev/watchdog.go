// Package dev implements the peripheral devices of the simulated
// system: the self-stabilizing watchdog the paper adds to the hardware,
// a console/heartbeat output port and a periodic timer.
package dev

import "ssos/internal/machine"

// WatchdogTarget selects which processor pin the watchdog drives.
type WatchdogTarget uint8

const (
	// TargetNMI pulses the non-maskable-interrupt pin (the paper's
	// default wiring, used by all tailored designs).
	TargetNMI WatchdogTarget = iota
	// TargetReset pulses the reset pin (an option for the first two
	// schemes, Section 2: "it may trigger the reset pin instead").
	TargetReset
)

// Watchdog is the paper's self-stabilizing watchdog: a countdown
// register with a maximal value equal to the desired interval. From ANY
// state (including a fault-corrupted counter) a signal is triggered
// within the interval, and no premature signal is triggered thereafter:
// the counter is clamped to the register's maximal value on every tick,
// so a corrupted out-of-range value behaves like the maximal value.
type Watchdog struct {
	// Period is the desired interval in clock ticks between signals.
	Period uint32
	// Counter is the countdown register. Exported so fault injectors
	// can corrupt it; corruption is harmless by design.
	Counter uint32
	// Target selects the pin to pulse.
	Target WatchdogTarget
	// Fires counts signals since creation.
	Fires uint64
}

// NewWatchdog returns a watchdog that fires every period ticks,
// starting one full period from now.
func NewWatchdog(period uint32, target WatchdogTarget) *Watchdog {
	if period == 0 {
		period = 1
	}
	return &Watchdog{Period: period, Counter: period - 1, Target: target}
}

// Tick advances the countdown; at zero it pulses the target pin and
// reloads.
func (w *Watchdog) Tick(m *machine.Machine) {
	if w.Period == 0 {
		w.Period = 1
	}
	if w.Counter >= w.Period {
		// The physical register cannot hold more than the maximal
		// value; a corrupted simulation state converges here.
		w.Counter = w.Period - 1
	}
	if w.Counter == 0 {
		w.Fires++
		switch w.Target {
		case TargetNMI:
			m.RaiseNMI()
		case TargetReset:
			m.RaiseReset()
		}
		w.Counter = w.Period - 1
		return
	}
	w.Counter--
}

// Quiet reports how many upcoming ticks only count down (the
// machine.Ticker contract): the counter is mapped to no port and no
// memory, so those ticks may be applied in a batch with Skip.
func (w *Watchdog) Quiet() uint32 { return quiet(w.Period, w.Counter) }

// Skip applies k ≤ Quiet() countdown-only ticks at once.
func (w *Watchdog) Skip(k uint32) { w.Counter -= k }

// quiet is the Quiet rule of the clamped countdowns: an in-range counter
// counts down that many ticks before the one that acts. A corrupted
// counter or a zero period reports 0, so it always goes through Tick's
// clamp and is never skipped.
func quiet(period, counter uint32) uint32 {
	if 0 < period && counter < period {
		return counter
	}
	return 0
}
