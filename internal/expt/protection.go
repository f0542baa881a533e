package expt

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/guest"
	"ssos/internal/isa"
	"ssos/internal/machine"
	"ssos/internal/trace"
)

// E11Protection ablates the memory-protection extension (an addition
// beyond the paper — its real-mode setting has none): the scheduler
// system runs while a fault process periodically corrupts the RUNNING
// process's ds to point at another process's data area, the exact
// cross-process interference the paper leaves to programmer discipline
// ("the data of each process resides in a distinct separate ram area").
//
// Without protection the stray stores land and the victims' counters
// are scribbled (observable as heartbeat violations on *other*
// processes); with protection the store faults, costing the offender
// its quantum but leaving the victims untouched.
func E11Protection(o Options) *Table {
	t := &Table{
		ID:    "E11",
		Title: "Memory-protection extension: confining cross-process interference",
		Claim: "EXTENSION (beyond the paper): hardware store windows turn the paper's " +
			"per-process data-area discipline from an assumption into a guarantee",
		Columns: []string{"variant", "trials", "victim violations (total)", "exceptions", "min share"},
	}
	trials := o.trials(8)
	horizon := o.horizon(600000)
	const corruptEvery = 7001 // prime, to wander across quanta phases

	for _, variant := range []struct {
		name    string
		protect bool
	}{
		{"paper scheduler (no protection)", false},
		{"with store windows", true},
	} {
		totalViol := 0
		var totalExc uint64
		minShare := 1.0
		for i := 0; i < trials; i++ {
			s := core.MustNew(core.Config{
				Approach:      core.ApproachScheduler,
				ProtectMemory: variant.protect,
				ValidateDS:    true, // both variants pin record ds (isolate the window effect)
			})
			s.Run(60000 + i*317)

			var ranges []trace.Range
			for p := 0; p < guest.NumProcs; p++ {
				base := uint32(guest.ProcCodeSeg(p)) << 4
				ranges = append(ranges, trace.Range{Name: "p", Start: base, End: base + guest.ProcRegionSize})
			}
			sampler := trace.NewPCSampler(ranges...)
			s.M.AfterStep = sampler.Observe

			victim := 0
			countdown := corruptEvery
			prev := s.M.AfterStep
			s.M.AfterStep = func(m *machine.Machine, ev machine.Event) {
				if prev != nil {
					prev(m, ev)
				}
				countdown--
				if countdown > 0 {
					return
				}
				countdown = corruptEvery
				// Stray-aliasing fault: the running code's ds now
				// addresses another process's data area.
				victim = (victim + 1) % guest.RefresherIndex
				m.CPU.S[isa.DS] = guest.ProcDataSeg(victim)
			}
			excBefore := s.M.Stats.Exceptions
			s.Run(horizon)
			s.M.AfterStep = prev
			if sh := sampler.MinShare(); sh < minShare {
				minShare = sh
			}

			for p := 0; p < guest.NumProcs; p++ {
				w := s.ProcBeats[p].Writes()
				totalViol += len(s.ProcSpec(p).Violations(w, s.Steps()))
			}
			totalExc += s.M.Stats.Exceptions - excBefore
		}
		t.AddRow(variant.name, fmt.Sprint(trials), fmt.Sprint(totalViol),
			fmt.Sprint(totalExc), fmt.Sprintf("%.2f", minShare))
	}
	t.Notes = append(t.Notes,
		"fault: every 7001 steps the running process's ds is pointed at another "+
			"process's data; violations are counted across ALL process heartbeat streams. "+
			"Protection trades victim corruption for general-protection exceptions, which "+
			"the scheduler's exception path absorbs.")
	return t
}
