package model

// Concrete models of the repository's stabilization-critical components
// at the same abstraction level as the paper's proofs.

// WatchdogStates enumerates the watchdog countdown register including
// corrupted out-of-range values up to maxCorrupt.
func WatchdogStates(period, maxCorrupt uint32) []uint32 {
	var out []uint32
	for c := uint32(0); c <= maxCorrupt; c++ {
		out = append(out, c)
	}
	return out
}

// WatchdogNext is one tick of dev.Watchdog's register (clamp, fire at
// zero, reload).
func WatchdogNext(period uint32) func(uint32) uint32 {
	return func(c uint32) uint32 {
		if c >= period {
			c = period - 1
		}
		if c == 0 {
			return period - 1 // fire and reload
		}
		return c - 1
	}
}

// WatchdogFired reports the firing states (the reload instant).
func WatchdogFired(period uint32) func(uint32) bool {
	return func(c uint32) bool { return c == period-1 }
}

// NMIState is the abstract processor NMI machinery: the paper's
// countdown register plus the latched pin; the stock variant uses the
// in-NMI latch instead.
type NMIState struct {
	Counter uint16
	Pin     bool
	InNMI   bool
}

// NMIStates enumerates the machinery's state space for a given counter
// maximum (including corrupted counter values up to maxCorrupt).
func NMIStates(maxCorrupt uint16) []NMIState {
	var out []NMIState
	for c := uint16(0); c <= maxCorrupt; c++ {
		for _, pin := range []bool{false, true} {
			for _, in := range []bool{false, true} {
				out = append(out, NMIState{c, pin, in})
			}
		}
	}
	return out
}

// NMINextCounter is one tick of the paper's counter hardware with the
// watchdog holding the pin (worst case for delivery): delivery when
// counter is zero loads the maximum; otherwise the counter decrements.
func NMINextCounter(max uint16) func(NMIState) NMIState {
	return func(s NMIState) NMIState {
		if s.Pin && s.Counter == 0 {
			return NMIState{Counter: max, Pin: false, InNMI: s.InNMI}
		}
		next := s.Counter
		if next > 0 {
			next--
		}
		return NMIState{Counter: next, Pin: true, InNMI: s.InNMI}
	}
}

// NMIDeliveredCounter marks delivery instants for the counter variant.
func NMIDeliveredCounter(max uint16) func(NMIState) bool {
	return func(s NMIState) bool { return s.Counter == max && !s.Pin }
}

// NMINextStock is the stock latch: delivery only when not in an NMI;
// nothing in the model ever executes iret (the arbitrary-state hazard).
func NMINextStock() func(NMIState) NMIState {
	return func(s NMIState) NMIState {
		if s.Pin && !s.InNMI {
			return NMIState{Pin: false, InNMI: true}
		}
		return NMIState{Counter: s.Counter, Pin: true, InNMI: s.InNMI}
	}
}

// NMIDeliveredStock marks delivery instants for the stock variant.
func NMIDeliveredStock() func(NMIState) bool {
	return func(s NMIState) bool { return s.InNMI && !s.Pin }
}

// RingState is a ring protocol's configuration: the slot values of up
// to MaxRingNodes nodes (unused entries stay zero so states remain
// comparable).
type RingState [MaxRingNodes]uint8

// MaxRingNodes bounds the ring sizes the protocol models, the guest
// builders and the ring fleet accept.
const MaxRingNodes = 6

// RecoveryState abstracts the checkpoint-vs-reinstall comparison of
// experiment E9 to its essence: the guest is either legal or corrupt,
// and the recovery source (a snapshot, or ROM) is either pristine or
// poisoned.
type RecoveryState struct {
	GuestOK bool
	// SourceOK is the recovery source's integrity. For ROM it is
	// immutable by construction; for a snapshot store it tracks
	// whatever was last checkpointed.
	SourceOK bool
}

// CheckpointSystem is rollback recovery after the last fault: the
// scheduler (environment) chooses between taking a snapshot (source :=
// guest) and rolling back (guest := source). Legal states have a legal
// guest. The poisoned-pair state {bad, bad} is an absorbing illegal
// cycle — the mechanical core of "checkpointing cannot withstand any
// combination of transient faults".
func CheckpointSystem() *System[RecoveryState] {
	states := []RecoveryState{
		{true, true}, {true, false}, {false, true}, {false, false},
	}
	index := func(s RecoveryState) int {
		i := 0
		if !s.GuestOK {
			i += 2
		}
		if !s.SourceOK {
			i++
		}
		return i
	}
	next := func(s RecoveryState, out []RecoveryState) []RecoveryState {
		return append(out,
			RecoveryState{GuestOK: s.GuestOK, SourceOK: s.GuestOK},   // snapshot
			RecoveryState{GuestOK: s.SourceOK, SourceOK: s.SourceOK}, // rollback
		)
	}
	legal := func(s RecoveryState) bool { return s.GuestOK }
	return &System[RecoveryState]{States: states, Index: index, Next: next, Legal: legal}
}

// ReinstallTick is the paper's design in the same abstraction: the
// recovery source is ROM (never poisoned), and the watchdog FORCES a
// reinstall every period ticks — recovery is not a scheduling choice
// the adversary can withhold, which is exactly what distinguishes it
// from the checkpoint system above.
type ReinstallTick struct {
	GuestOK bool
	Counter uint32
}

// ReinstallSystem builds the deterministic watchdog-reinstall
// abstraction with the given period.
func ReinstallSystem(period uint32) *System[ReinstallTick] {
	var states []ReinstallTick
	for c := uint32(0); c < period; c++ {
		states = append(states, ReinstallTick{true, c}, ReinstallTick{false, c})
	}
	index := func(s ReinstallTick) int {
		if s.Counter >= period {
			return -1
		}
		if s.GuestOK {
			return 2 * int(s.Counter)
		}
		return 2*int(s.Counter) + 1
	}
	next := func(s ReinstallTick, out []ReinstallTick) []ReinstallTick {
		if s.Counter == 0 {
			return append(out, ReinstallTick{GuestOK: true, Counter: period - 1})
		}
		return append(out, ReinstallTick{GuestOK: s.GuestOK, Counter: s.Counter - 1})
	}
	legal := func(s ReinstallTick) bool { return s.GuestOK }
	return &System[ReinstallTick]{States: states, Index: index, Next: next, Legal: legal}
}
