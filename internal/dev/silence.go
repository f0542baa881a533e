package dev

import "ssos/internal/machine"

// SilenceWatchdog is the "smart" watchdog comparator: instead of firing
// periodically like the paper's watchdog, it observes an output port
// and pulses the NMI pin only when the guest has been silent for
// SilenceLimit ticks — the adaptive heartbeat-monitor design used by
// real-world supervision daemons (cf. the paper's related-work
// monitoring layers for Linux/Windows).
//
// It avoids the periodic restart tax entirely, and it is itself
// self-stabilizing as a device (the countdown clamps). But the SYSTEM
// it supervises is not: a fault can leave the guest a zombie — looping
// illegally while still emitting port writes — and the silence detector
// then never fires (experiment E12). Detecting "output exists" is not
// detecting "output is legal"; the paper's content-blind periodic
// reinstall and its predicate-checking monitor both dominate this
// design under the self-stabilization bar.
type SilenceWatchdog struct {
	// SilenceLimit is the number of ticks without port activity after
	// which the NMI fires.
	SilenceLimit uint32
	// Counter counts down from SilenceLimit; any port write reloads
	// it. Clamped each tick, so corruption is harmless.
	Counter uint32
	// Fires counts NMI pulses.
	Fires uint64

	inner machine.PortDevice
}

// NewSilenceWatchdog wraps inner (which keeps receiving every port
// access) and fires the NMI after limit ticks without a write.
func NewSilenceWatchdog(inner machine.PortDevice, limit uint32) *SilenceWatchdog {
	if limit == 0 {
		limit = 1
	}
	return &SilenceWatchdog{SilenceLimit: limit, Counter: limit - 1, inner: inner}
}

// Fork returns a silence watchdog that continues w, wrapping inner (the
// fork of w's wrapped device) instead.
func (w *SilenceWatchdog) Fork(inner machine.PortDevice) *SilenceWatchdog {
	f := *w
	f.inner = inner
	return &f
}

// In forwards to the wrapped device.
func (w *SilenceWatchdog) In(port uint16) uint16 {
	if w.inner != nil {
		return w.inner.In(port)
	}
	return 0
}

// Out records activity and forwards to the wrapped device.
func (w *SilenceWatchdog) Out(port uint16, v uint16) {
	w.Counter = w.SilenceLimit - 1
	if w.inner != nil {
		w.inner.Out(port, v)
	}
}

// Tick advances the silence countdown, pulsing NMI at zero.
func (w *SilenceWatchdog) Tick(m *machine.Machine) {
	if w.SilenceLimit == 0 {
		w.SilenceLimit = 1
	}
	if w.Counter >= w.SilenceLimit {
		w.Counter = w.SilenceLimit - 1
	}
	if w.Counter == 0 {
		w.Fires++
		m.RaiseNMI()
		w.Counter = w.SilenceLimit - 1
		return
	}
	w.Counter--
}

// Quiet is always 0: every port write reloads the counter, and one can
// land in the middle of a batch, where ticks skipped afterwards would
// count down from the reloaded value instead of before it. Every tick
// of this device therefore goes through Tick (see machine.Ticker).
func (w *SilenceWatchdog) Quiet() uint32 { return 0 }

// Skip is never reached with k > 0: Quiet is always 0.
func (w *SilenceWatchdog) Skip(uint32) {}
