package expt

import (
	"bytes"
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/pool"
)

// silenceHeartbeat overwrites the kernel's `out HEARTBEAT_PORT, ax`
// instruction in RAM with nops — a silent code corruption: no
// exception, no crash, just no observable behaviour. Only a stabilizer
// that restores code from a pristine source recovers it.
func silenceHeartbeat(s *core.System) bool {
	pattern := []byte{0x70, guest.PortHeartbeat}
	idx := bytes.Index(s.Kernel.Prog.Code, pattern)
	if idx < 0 {
		return false
	}
	base := uint32(guest.OSSeg) << 4
	s.M.Bus.PokeRAM(base+uint32(idx), 0x00)
	s.M.Bus.PokeRAM(base+uint32(idx)+1, 0x00)
	return true
}

// E9Checkpoint measures the related-work comparator: rollback recovery
// with periodic snapshots versus the paper's ROM-anchored designs,
// under a silent code corruption. The paper's introduction claims no
// checkpointing system "can withstand any combination of transient-
// faults"; E9 shows why — a corruption that survives until a snapshot
// is restored forever — and F6 shows the timing dependence.
func E9Checkpoint(o Options) (*Table, *Series) {
	t := &Table{
		ID:    "E9",
		Title: "Checkpoint/rollback comparator vs ROM-anchored designs (related work)",
		Claim: "checkpointing systems (Windows XP, EROS) gain fault-tolerance but " +
			"cannot withstand arbitrary transient faults (paper Section 1, previous work)",
		Columns: []string{"approach", "trials", "recovered", "why"},
	}
	trials := o.trials(20)
	horizon := o.horizon(400000)

	why := map[core.Approach]string{
		core.ApproachCheckpoint: "only when the rollback precedes the next snapshot",
		core.ApproachReinstall:  "pristine image in ROM: corruption cannot persist",
		core.ApproachMonitor:    "executable refresh from ROM on every check",
	}
	for _, a := range []core.Approach{
		core.ApproachCheckpoint, core.ApproachReinstall, core.ApproachMonitor,
	} {
		var ts trialSet
		for i := 0; i < trials; i++ {
			s := core.MustNew(core.Config{Approach: a})
			// Vary the injection phase relative to the snapshot and
			// watchdog schedules.
			s.Run(60000 + i*1709)
			if !silenceHeartbeat(s) {
				continue
			}
			faultStep := s.Steps()
			s.Run(horizon)
			step, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10)
			ts.add(recoveryResult{recovered: ok, latency: step - faultStep})
		}
		t.AddRow(a.String(), fmt.Sprint(trials), fmtPct(ts.recoveredPct()), why[a])
	}
	t.Notes = append(t.Notes,
		"fault: the heartbeat output instruction is overwritten with nops — silent, "+
			"exception-free, and faithfully captured by any snapshot taken after it")

	// F6: checkpoint recovery as a function of the fault's phase within
	// the snapshot period.
	line := Line{Name: "recovered"}
	samples := 12
	if o.Quick {
		samples = 6
	}
	for p := 0; p < samples; p++ {
		s := core.MustNew(core.Config{Approach: core.ApproachCheckpoint})
		s.Run(100000)
		// Synchronize to a snapshot boundary, then advance by the phase.
		snaps := s.Checkpoint.Snapshots
		for s.Checkpoint.Snapshots == snaps {
			s.Run(100)
		}
		phase := float64(p) / float64(samples)
		s.Run(int(phase * float64(s.Checkpoint.Period)))
		silenceHeartbeat(s)
		faultStep := s.Steps()
		s.Run(horizon)
		_, ok := s.Spec().RecoveredAfter(s.Heartbeat.Writes(), faultStep, 10)
		y := 0.0
		if ok {
			y = 1.0
		}
		line.X = append(line.X, phase)
		line.Y = append(line.Y, y)
	}
	f := &Series{ID: "F6", Title: "Checkpoint recovery vs fault phase within the snapshot period",
		XLabel: "fault phase (fraction of snapshot period)", YLabel: "recovered", Lines: []Line{line}}
	return t, f
}

// E10TokenRing measures the paper's composition argument (Section 1,
// citing [13]): a self-stabilizing application — Dijkstra's K-state
// token ring, run as the mailbox workload — stabilizes above the
// self-stabilizing scheduler, even when both layers are corrupted at
// once.
func E10TokenRing(o Options) *Table {
	t := &Table{
		ID:    "E10",
		Title: "Composition: Dijkstra's token ring above the 5.2 scheduler",
		Claim: "once the self-stabilizing operating system stabilizes, the " +
			"self-stabilizing algorithms that implement the applications stabilize",
		Columns: []string{"initial condition", "trials", "converged", "convergence p50 (steps)"},
	}
	trials := o.trials(10)
	horizon := o.horizon(4000000)

	classes := []struct {
		name   string
		upset  func(s *core.System, in *fault.Injector)
		warmup int
	}{
		{"clean boot", inject(), 0},
		{"arbitrary token values", inject(fault.Mailbox), 200000},
		{"tokens + process table randomized", inject(fault.TableBlast, fault.Mailbox), 200000},
		{"all RAM + CPU randomized", inject(fault.AllRAM, fault.CPUBlast), 200000},
	}
	for _, c := range classes {
		var ts trialSet
		upset, warmup := c.upset, c.warmup
		pool.ForEach(trials, func(i int) interface{} {
			s := core.MustNew(core.Config{Approach: core.ApproachScheduler, Workload: core.WorkloadMailboxKState})
			if warmup > 0 {
				s.Run(warmup + i*311)
			}
			inj := fault.NewInjector(s.M, o.Seed+int64(i))
			upset(s, inj)
			faultStep := s.Steps()
			step, ok := s.MailboxConverged(horizon, 500, 100)
			return recoveryResult{recovered: ok, latency: step - faultStep}
		}, func(_ int, r interface{}) {
			ts.add(r.(recoveryResult))
		})
		t.AddRow(c.name, fmt.Sprint(trials), fmtPct(ts.recoveredPct()),
			fmtSteps(summarize(ts.latencies).p50))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"converged = the exactly-one-privilege invariant holds at every sample across a "+
			"sustained window; the %d-node mailbox ring uses K=%d >= 2n-1 states, the "+
			"read/write-atomicity bound", guest.MailboxNodes, guest.MailboxK))
	return t
}
