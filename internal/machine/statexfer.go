package machine

import (
	"fmt"

	"ssos/internal/mem"
)

// AdoptState copies the complete volatile state of src into m: the
// CPU soft state, the full memory contents, the step statistics and the
// latched interrupt pins. Device wiring (ports, tickers, AfterStep) and
// hardware options are untouched — the adopting machine keeps its own.
//
// This is the replica state-transfer primitive of internal/cluster: a
// freshly reinstalled replica adopts the state of a quorum member so
// that, being deterministic, it re-enters lockstep with the quorum from
// the next step onward. The pins must be part of the transfer — a
// watchdog NMI latched but not yet delivered at the transfer point
// would otherwise be delivered on src and silently dropped on m,
// diverging the two machines one handler-run later.
//
// Both machines must be built over the same memory image (same ROM
// regions). The address space is copied straight from src's bus into
// m's, with no temporary, so a transfer allocates nothing; it bumps
// every page generation of m, as any Restore does.
func (m *Machine) AdoptState(src *Machine) error {
	if m == src {
		return nil
	}
	if err := m.Bus.Restore(src.Bus.View(0, mem.AddrSpace)); err != nil {
		return fmt.Errorf("machine: adopt state: %w", err)
	}
	m.CPU = src.CPU
	m.Stats = src.Stats
	m.pins = src.pins
	m.irqVec = src.irqVec
	return nil
}
