package expt

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/isa"
)

// zombify patches the guest kernel in RAM so it keeps emitting
// heartbeats but stops incrementing the counter: the first `inc ax`
// in the code (the heartbeat increment) is overwritten with nops. The
// system becomes a zombie — alive by every liveness measure, illegal by
// the specification. Returns false if the instruction was not found.
func zombify(s *core.System) bool {
	code := s.Kernel.Prog.Code
	off := 0
	for off < len(code) {
		in, size, ok := isa.Decode(code[off:])
		if !ok {
			return false
		}
		if in.Op == isa.OpIncR && isa.Reg(in.R1) == isa.AX {
			base := uint32(guest.OSSeg) << 4
			for i := 0; i < size; i++ {
				s.M.Bus.PokeRAM(base+uint32(off+i), 0x00)
			}
			return true
		}
		off += size
	}
	return false
}

// E12AdaptiveWatchdog compares the paper's content-blind periodic
// watchdog against the "smarter" adaptive design real supervision
// systems use (reset only when the supervised program goes silent; cf.
// the related-work monitoring layers for Linux/Windows the paper
// cites). The adaptive design wins on overhead and on crash faults —
// and fails the self-stabilization bar on zombie faults, where the
// guest keeps emitting illegal output and never looks silent.
func E12AdaptiveWatchdog(o Options) *Table {
	t := &Table{
		ID:    "E12",
		Title: "Adaptive (silence-triggered) watchdog vs the paper's periodic reinstall",
		Claim: "COMPARATOR: liveness monitoring is not self-stabilization — an " +
			"execution can be live and illegal forever (paper Section 1: monitoring " +
			"layers for ubiquitous operating systems do not withstand arbitrary faults)",
		Columns: []string{"watchdog", "avail. fault-free", "halt fault recovered", "zombie fault recovered"},
	}
	trials := o.trials(15)
	horizon := o.horizon(400000)

	for _, approach := range []core.Approach{core.ApproachAdaptive, core.ApproachReinstall} {
		// Fault-free availability.
		s := core.MustNew(core.Config{Approach: approach})
		s.Run(horizon)
		avail := s.Spec().Availability(s.Heartbeat.Writes(), s.Steps())

		// Crash fault: a latched halt is pure silence; both designs
		// must catch it.
		var halt, zombie trialSet
		for i := 0; i < trials; i++ {
			h := measureRecovery(core.Config{Approach: approach}, o.Seed+int64(i),
				40000+i*173, horizon, 10,
				func(s *core.System, in *fault.Injector) { in.SetHalted() })
			halt.add(h)

			z := core.MustNew(core.Config{Approach: approach})
			z.Run(40000 + i*173)
			if !zombify(z) {
				continue
			}
			faultStep := z.Steps()
			z.Run(horizon)
			step, ok := z.Spec().RecoveredAfter(z.Heartbeat.Writes(), faultStep, 10)
			zombie.add(recoveryResult{recovered: ok, latency: step - faultStep})
		}
		t.AddRow(approach.String(), fmt.Sprintf("%.3f", avail),
			fmtPct(halt.recoveredPct()), fmtPct(zombie.recoveredPct()))
	}
	t.Notes = append(t.Notes,
		"zombie fault: the heartbeat increment is nop-ed, so the guest emits the same "+
			"value forever — live to a silence detector, illegal to the specification. "+
			"The adaptive design never fires; the periodic reinstall erases the zombie "+
			"within one period.")
	return t
}
