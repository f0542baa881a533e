package core

import (
	"ssos/internal/guest"
	"ssos/internal/obs"
)

// ObsConfirm is the number of consecutive legal heartbeats the
// observability layer requires before declaring legality regained —
// the same confirmation depth cmd/ssos-run's post-hoc report uses.
const ObsConfirm = 10

// Instrument attaches the observability layer to the system: machine
// events (NMI, IRQ, exception, reset) flow from the nil-checked probe
// pointer on the machine, and the system layer derives the
// stabilization events the paper's mechanisms correspond to —
// reinstall start/completion for the Section-3 handlers, predicate
// evaluation and repair for the Section-4 monitor, and
// legality-regained when the heartbeat stream re-satisfies the
// approach's legal-execution specification after an injected fault.
// It is NewObserver plus the install: the observer becomes the
// machine's probe and the consoles' write hooks.
//
// Instrument must be called before the run whose events are wanted;
// calling it replaces any previous instrumentation. An uninstrumented
// system carries a nil probe and pays no observation cost; passing a
// nil sink uninstalls any previous instrumentation and restores that
// state.
func (s *System) Instrument(sink obs.Probe) {
	if sink == nil {
		s.M.Probe = nil
		if s.Heartbeat != nil {
			s.Heartbeat.OnWrite = nil
		}
		if s.Repairs != nil {
			s.Repairs.OnWrite = nil
		}
		for _, c := range s.ProcBeats {
			c.OnWrite = nil
		}
		return
	}
	o := s.NewObserver(sink)
	s.M.Probe = o
	if s.Heartbeat != nil {
		s.Heartbeat.OnWrite = o.OnHeartbeat
	}
	if s.Repairs != nil {
		s.Repairs.OnWrite = o.OnRepair
	}
	if o.ring != nil {
		nodes := 1 // one-node-per-replica build: slot 0 is the node
		if s.Cfg.RingNodes == 0 {
			nodes = guest.MailboxNodes
		}
		for i := 0; i < nodes && i < len(s.ProcBeats); i++ {
			s.ProcBeats[i].OnWrite = o.onRingBeat
		}
	}
}

// NewObserver builds the observer Instrument installs, without
// installing it. The caller routes the machine's probe events to its
// Emit, heartbeat writes to OnHeartbeat and repair-port writes to
// OnRepair (a mailbox ring's node beats reach an observer only through
// Instrument). This is how several observers watch one machine: the
// replicas of internal/cluster that share a machine each keep their
// own observer, fed by the machine's hooks in turn. Apart from a
// mailbox ring's legality predicate, an observer reads nothing of the
// system it was built for, so it keeps observing correctly when its
// feed moves to a machine in the same state.
func (s *System) NewObserver(sink obs.Probe) *Observer {
	o := &Observer{approach: s.Cfg.Approach, sink: sink}
	if s.Heartbeat != nil {
		o.legal = &obs.LegalityTracker{
			BeatStream: obs.BeatStream{Rule: obs.BeatRule(s.Spec())},
			// Legality confirmations route through the observer rather
			// than the sink directly, so they are stamped with the fault
			// id of the episode they close — and close it.
			PredicateTracker: obs.PredicateTracker{Confirm: ObsConfirm, Sink: o},
		}
	}
	if _, ok := s.Cfg.Workload.MailboxVariant(); ok && len(s.ProcBeats) > 0 {
		// Mailbox ring workloads: legality is a state predicate (exactly
		// one privilege under α), sampled at every node beat so token
		// recovery appears in the event stream like heartbeat legality
		// does for the kernel approaches.
		o.ring = &obs.PredicateTracker{Confirm: ObsConfirm, Sink: o}
		o.ringLegal = s.MailboxLegal
	}
	return o
}

// Observer sits between the machine's raw event stream and the sink,
// adding the derived stabilization events. It relies on what each
// approach's handler actually does (see internal/guest):
//
//   - reinstall/continue/adaptive: every NMI or vectored exception
//     enters the Figure-1 handler, which reinstalls the OS image from
//     ROM — reinstall-started. The next guest heartbeat confirms the
//     restart took — reinstall-completed.
//   - monitor: every NMI runs the Section-4 monitor (executable
//     refresh + predicate evaluation) — predicate-eval; its exception
//     path falls back to a full reinstall — reinstall-started. Each
//     repair-port write reports one predicate that failed and was
//     repaired — predicate-failed + predicate-repaired.
//   - watchdog-to-reset variants: the reset boots through the ROM
//     installer — reinstall-started.
type Observer struct {
	approach Approach
	sink     obs.Probe
	legal    *obs.LegalityTracker
	ring     *obs.PredicateTracker
	// ringLegal samples the mailbox ring's legality (ring workloads).
	ringLegal func() bool
	// pending is set between a reinstall entering its handler and the
	// guest's next observable output.
	pending bool
	// lastFault is the id of the fault whose recovery is in progress:
	// set by the injection event, cleared by the legality confirmation.
	// Every event observed in between — machine interrupts and the
	// derived stabilizer events alike — is stamped with it, which is
	// what lets the obs episode reconstructor fold the stream causally.
	lastFault uint64
}

// emit forwards one event to the sink, tolerating a nil sink (an
// Observer is only installed with a non-nil sink, but the probe
// contract everywhere else in the repo is "nil-checked before call"
// and the derived-event fan-out below should not be the one exception).
func (p *Observer) emit(e obs.Event) {
	if p.sink == nil {
		return
	}
	p.sink.Emit(e)
}

// derive builds one derived stabilizer event, stamped with the fault
// id of the recovery in progress (zero outside any episode — e.g. the
// periodic watchdog NMIs of an undisturbed run).
func (p *Observer) derive(step uint64, t obs.Type) obs.Event {
	e := obs.Ev(step, t)
	e.FaultID = p.lastFault
	return e
}

// Emit receives machine-level events (and fault-injection events, which
// the injector routes through the machine probe; and the legality
// tracker's confirmations), stamps them with the in-progress fault id,
// forwards them, and appends the derived stabilizer events.
func (p *Observer) Emit(e obs.Event) {
	if e.Type == obs.TypeFaultInjected {
		p.lastFault = e.FaultID
	} else if e.FaultID == 0 {
		e.FaultID = p.lastFault
	}
	p.emit(e)
	a := p.approach
	switch e.Type {
	case obs.TypeNMI:
		switch a {
		case ApproachReinstall, ApproachContinue, ApproachAdaptive:
			p.emit(p.derive(e.Step, obs.TypeReinstallStarted))
			p.pending = true
		case ApproachMonitor:
			p.emit(p.derive(e.Step, obs.TypePredicateEval))
		}
	case obs.TypeException, obs.TypeReset:
		switch a {
		case ApproachMonitor:
			// An exception (or watchdog reset) under the monitor is the
			// failure of the one consistency condition in-place repair
			// cannot restore — the OS code itself is no longer runnable —
			// so the monitor falls back to a full reinstall. Report the
			// implicit predicate failure ahead of the reinstall; Code
			// carries the exception vector.
			fail := p.derive(e.Step, obs.TypePredicateFailed)
			fail.Code = e.Code
			p.emit(fail)
			p.emit(p.derive(e.Step, obs.TypeReinstallStarted))
			p.pending = true
		case ApproachReinstall, ApproachContinue, ApproachAdaptive:
			p.emit(p.derive(e.Step, obs.TypeReinstallStarted))
			p.pending = true
		}
	case obs.TypeFaultInjected:
		if p.legal != nil {
			p.legal.OnFault(e.Step)
		}
		if p.ring != nil {
			p.ring.OnFault(e.Step)
		}
	case obs.TypeLegalityRegained:
		// The episode this confirmation closes is over; later events
		// are outside any episode until the next injection.
		p.lastFault = 0
	}
}

// OnHeartbeat observes one guest heartbeat write.
func (p *Observer) OnHeartbeat(step uint64, v uint16) {
	if p.pending {
		p.pending = false
		p.emit(p.derive(step, obs.TypeReinstallCompleted))
	}
	if p.legal != nil {
		p.legal.OnBeat(step, v)
	}
}

func (p *Observer) onRingBeat(step uint64, v uint16) {
	p.ring.OnSample(step, p.ringLegal())
}

// OnRepair observes one approach-2 repair report.
func (p *Observer) OnRepair(step uint64, v uint16) {
	fail := p.derive(step, obs.TypePredicateFailed)
	fail.Code = uint64(v)
	p.emit(fail)
	rep := p.derive(step, obs.TypePredicateRepaired)
	rep.Code = uint64(v)
	p.emit(rep)
}

// ExportMetrics records the system's machine counters into the
// registry (counts the event stream cannot reconstruct, because
// instrumentation may attach after boot).
func (s *System) ExportMetrics(m *obs.Metrics) {
	m.Add("machine.steps", s.M.Stats.Steps)
	m.Add("machine.instrs", s.M.Stats.Instrs)
	m.Add("machine.halt_ticks", s.M.Stats.HaltTicks)
	// Superblock-engine telemetry: how much of the run retired through
	// blocks and how often validation bailed to the interpreter. All
	// zero when the engine is disabled.
	m.Add("machine.blocks", s.M.Stats.Blocks)
	m.Add("machine.block_instrs", s.M.Stats.BlockInstrs)
	m.Add("machine.block_bails", s.M.Stats.BlockBails)
	if s.Watchdog != nil {
		m.Add("watchdog.fires", s.Watchdog.Fires)
	}
	if s.Heartbeat != nil {
		m.Add("guest.heartbeats", s.Heartbeat.Total())
	}
	if s.Repairs != nil {
		m.Add("guest.repair_reports", s.Repairs.Total())
	}
	if s.Checkpoint != nil {
		m.Add("checkpoint.snapshots", s.Checkpoint.Snapshots)
		m.Add("checkpoint.restores", s.Checkpoint.Restores)
	}
}
