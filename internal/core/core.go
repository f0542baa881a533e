// Package core is the library's public surface: it assembles complete
// self-stabilizing systems — simulated machine, ROM-resident
// stabilizer, guest OS, watchdog and instrumentation — for each of the
// paper's designs, plus the baselines they are measured against.
//
// The three designs of the paper, in its own terms:
//
//   - Approach 1 (Section 3), ApproachReinstall: periodically reinstall
//     the whole OS from ROM and restart it. Weakly self-stabilizing
//     (Theorem 3.4). ApproachContinue is the section's second option
//     (refresh the executable, continue where interrupted), which the
//     paper notes is NOT fully self-stabilizing.
//   - Approach 2 (Section 4), ApproachMonitor: refresh only the
//     executable portion, check consistency predicates over the soft
//     state, repair exactly what is broken, resume at the interrupted
//     address when it is valid. Self-stabilizing and state-preserving.
//   - Approach 3 (Section 5), ApproachPrimitive (5.1) and
//     ApproachScheduler (5.2): operating systems tailored to be
//     self-stabilizing — a loop-free ROM process chain, and the
//     NMI-driven process-table scheduler of Figures 2-5.
//
// ApproachBaseline is a conventional system: installed once at boot,
// no watchdog, exceptions crash. It demonstrates the paper's premise
// that ordinary systems do not recover from transient faults.
package core

import (
	"fmt"

	"ssos/internal/dev"
	"ssos/internal/guest"
	"ssos/internal/machine"
	"ssos/internal/mem"
	"ssos/internal/trace"
)

// Approach selects the stabilization design a System is built with.
type Approach uint8

// Approaches, ordered as in the paper.
const (
	// ApproachBaseline is a conventional, non-stabilizing system.
	ApproachBaseline Approach = iota
	// ApproachReinstall is the paper's Section 3 periodic full
	// reinstall and restart (Figure 1).
	ApproachReinstall
	// ApproachContinue is Section 3's re-install-and-continue variant.
	ApproachContinue
	// ApproachMonitor is Section 4: executable refresh plus predicate
	// monitoring and repair.
	ApproachMonitor
	// ApproachPrimitive is Section 5.1's loop-free ROM process chain.
	ApproachPrimitive
	// ApproachScheduler is Section 5.2's self-stabilizing scheduler
	// (Figures 2-5).
	ApproachScheduler
	// ApproachAdaptive is a second related-work comparator: the
	// Figure 1 reinstall handler driven by a SILENCE-triggered
	// watchdog (an adaptive heartbeat monitor) instead of the paper's
	// periodic one. It has no restart tax when the guest is healthy,
	// but it is not self-stabilizing: a zombie that keeps emitting
	// illegal output never looks silent (experiment E12).
	ApproachAdaptive
	// ApproachCheckpoint is the related-work comparator the paper's
	// introduction dismisses: periodic checkpointing with rollback on
	// the watchdog signal (cf. Windows XP restore, EROS/KeyKOS). It is
	// implemented on the most generous terms (instantaneous,
	// incorruptible snapshots) and still fails to self-stabilize:
	// corruption that survives one snapshot period is checkpointed and
	// restored forever (experiment E9).
	ApproachCheckpoint
)

var approachNames = map[Approach]string{
	ApproachBaseline:   "baseline",
	ApproachReinstall:  "reinstall",
	ApproachContinue:   "continue",
	ApproachMonitor:    "monitor",
	ApproachPrimitive:  "primitive",
	ApproachScheduler:  "scheduler",
	ApproachAdaptive:   "adaptive",
	ApproachCheckpoint: "checkpoint",
}

func (a Approach) String() string {
	if s, ok := approachNames[a]; ok {
		return s
	}
	return fmt.Sprintf("approach(%d)", uint8(a))
}

// Config parameterizes system construction. The zero value of every
// field selects a sensible default for the chosen approach.
type Config struct {
	// Approach selects the design.
	Approach Approach
	// WatchdogPeriod is the interval in clock ticks between watchdog
	// signals (the reinstall period for approaches 1-2, the scheduling
	// quantum for the scheduler). Default: DefaultWatchdogPeriod, or
	// DefaultQuantum for the scheduler.
	WatchdogPeriod uint32
	// WatchdogTarget selects the pin the watchdog drives (NMI default;
	// reset is the Section 2 alternative for approach 1).
	WatchdogTarget dev.WatchdogTarget
	// DisableNMICounter reverts to stock-Pentium NMI latching,
	// reproducing the hazard the paper's proposed hardware removes.
	DisableNMICounter bool
	// ValidateDS compiles the scheduler's ds-validation extension in.
	ValidateDS bool
	// TickfulKernel runs the interrupt-driven guest variant: the kernel
	// sleeps with hlt and heartbeats from a timer ISR through an IDT
	// it programs in RAM at boot. Supported by the baseline, reinstall
	// and adaptive approaches. Adds the silent IDT-corruption fault
	// class (experiment E13).
	TickfulKernel bool
	// StockVectoring reverts to fully stock interrupt plumbing for the
	// kernel systems: NMIs and exceptions vector through an interrupt
	// descriptor table in RAM addressed by a writable IDTR — the
	// paper's introduction hazard ("a transient fault that causes a
	// value change of this register may disable the entire interrupt
	// capability"). The boot code initializes the IDT; faults may then
	// corrupt it or the register.
	StockVectoring bool
	// ProtectMemory enables the memory-protection extension for the
	// scheduler system: the machine enforces per-process 4 KiB store
	// windows and the scheduler programs them on every switch. An
	// extension beyond the paper (its real-mode setting has no
	// protection); the isolation tests measure what it buys.
	ProtectMemory bool
	// ConsoleCap bounds retained port writes per console (0 = all).
	ConsoleCap int
	// Workload selects what the scheduler system runs (ignored by the
	// other approaches).
	Workload Workload
	// RingNode and RingNodes deploy a mailbox ring workload as one node
	// per machine: the system runs ring node RingNode of a
	// RingNodes-sized ring in scheduler slot 0 (counter workers fill
	// the other slots), with the neighbour mailbox slots relayed in
	// from outside — internal/cluster's relay shim. Both zero (the
	// default) runs the full guest.MailboxNodes-node ring on this one
	// machine. Ignored by non-mailbox workloads.
	RingNode  int
	RingNodes int
}

// Workload selects the process set of the Section 5.2 scheduler system.
type Workload uint8

const (
	// WorkloadCounters is the default worker set: two counters, one
	// loop-heavy worker and the ROM refresher.
	WorkloadCounters Workload = iota
	// WorkloadMailboxKState runs Dijkstra's K-state token ring as the
	// worker processes — the paper's composition argument (a
	// self-stabilizing application above the self-stabilizing OS).
	// Nodes share only the dedicated mailbox RAM region, which is what
	// makes the ring distributable across a cluster (guest.RingVariant
	// VariantKState).
	WorkloadMailboxKState
	// WorkloadMailboxDijkstra3 runs Dijkstra's bidirectional 3-state
	// ring through the mailbox.
	WorkloadMailboxDijkstra3
	// WorkloadMailboxGhosh4 runs Ghosh's 4-state chain through the
	// mailbox.
	WorkloadMailboxGhosh4
)

func (w Workload) String() string {
	if w == WorkloadCounters {
		return "counters"
	}
	if v, ok := w.MailboxVariant(); ok {
		return "mbox-" + v.String()
	}
	return fmt.Sprintf("workload(%d)", uint8(w))
}

// MailboxVariant maps a mailbox workload to its guest ring variant.
func (w Workload) MailboxVariant() (guest.RingVariant, bool) {
	switch w {
	case WorkloadMailboxKState:
		return guest.VariantKState, true
	case WorkloadMailboxDijkstra3:
		return guest.VariantDijkstra3, true
	case WorkloadMailboxGhosh4:
		return guest.VariantGhosh4, true
	}
	return 0, false
}

// MailboxWorkload maps a guest ring variant to its workload.
func MailboxWorkload(v guest.RingVariant) Workload {
	switch v {
	case guest.VariantDijkstra3:
		return WorkloadMailboxDijkstra3
	case guest.VariantGhosh4:
		return WorkloadMailboxGhosh4
	default:
		return WorkloadMailboxKState
	}
}

// Default timing parameters.
const (
	// DefaultWatchdogPeriod is the reinstall period for approaches 1-2:
	// several times the full handler length, so the guest gets most of
	// the machine.
	DefaultWatchdogPeriod = 30000
	// DefaultQuantum is the scheduler's default time slice.
	DefaultQuantum = 600
	// DefaultNMISlack is added to the handler length for the NMI
	// counter reload value.
	DefaultNMISlack = 256
	// DefaultTimerPeriod is the tickful kernel's timer interval.
	DefaultTimerPeriod = 97
)

// System is one fully wired simulated system.
type System struct {
	// M is the machine; step it directly or via Run.
	M *machine.Machine
	// Cfg echoes the construction parameters after defaulting.
	Cfg Config
	// Watchdog is the watchdog device, nil for baseline/primitive.
	Watchdog *dev.Watchdog
	// Heartbeat records the guest OS heartbeat stream (kernel-based
	// approaches; nil for approach 3 systems).
	Heartbeat *dev.Console
	// Repairs records approach-2 repair reports (nil otherwise).
	Repairs *dev.Console
	// ProcBeats records per-process heartbeats (approach 3 systems).
	ProcBeats []*dev.Console
	// Kernel is the assembled guest OS (kernel-based approaches).
	Kernel *guest.Kernel
	// Sched is the assembled scheduler (ApproachScheduler).
	Sched *guest.Scheduler
	// Procs are the scheduled process images (ApproachScheduler).
	Procs *guest.ProcSet
	// Prim is the primitive-scheduler ROM (ApproachPrimitive).
	Prim *guest.Primitive
	// Checkpoint is the snapshot/rollback device (ApproachCheckpoint).
	Checkpoint *dev.Checkpointer
	// Silence is the adaptive silence-triggered watchdog
	// (ApproachAdaptive).
	Silence *dev.SilenceWatchdog
	// Timer drives the tickful kernel (nil otherwise).
	Timer *dev.Timer

	// heartbeatPort is the port Heartbeat (or Silence, which wraps it)
	// is mapped at.
	heartbeatPort uint16
}

// New builds a system for the given configuration.
func New(cfg Config) (*System, error) {
	switch cfg.Approach {
	case ApproachBaseline, ApproachReinstall, ApproachContinue, ApproachMonitor,
		ApproachCheckpoint, ApproachAdaptive:
		return newKernelSystem(cfg)
	case ApproachPrimitive:
		return newPrimitiveSystem(cfg)
	case ApproachScheduler:
		return newSchedulerSystem(cfg)
	}
	return nil, fmt.Errorf("core: unknown approach %v", cfg.Approach)
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Fork returns a system that continues s's run. The machine forks
// (machine.Machine.Fork: the CPU, the step statistics, the latched
// pins, the engine choice, and memory as a copy-on-write fork of s's
// bus), and every device is copied with its state — the watchdog,
// timer and silence-watchdog countdowns, the checkpointer's snapshot,
// the consoles' retained writes and totals — and wired to the fork at
// the same ports and in the same tick order. Hooks do not carry over:
// the fork's consoles have no OnWrite and its machine no Probe or
// AfterStep. From here on neither system sees the other's stores, so
// a deterministic fork steps exactly as s would have. s must not step
// while Fork runs.
func (s *System) Fork() *System {
	m := s.M.Fork()
	f := &System{
		M:             m,
		Cfg:           s.Cfg,
		Kernel:        s.Kernel,
		Sched:         s.Sched,
		Procs:         s.Procs,
		Prim:          s.Prim,
		heartbeatPort: s.heartbeatPort,
	}
	clock := stepClock(m)
	if s.Heartbeat != nil {
		f.Heartbeat = s.Heartbeat.Fork(clock)
	}
	if s.Repairs != nil {
		f.Repairs = s.Repairs.Fork(clock)
	}
	for _, c := range s.ProcBeats {
		f.ProcBeats = append(f.ProcBeats, c.Fork(clock))
	}
	if s.Watchdog != nil {
		w := *s.Watchdog
		f.Watchdog = &w
	}
	if s.Timer != nil {
		t := *s.Timer
		f.Timer = &t
	}
	if s.Silence != nil {
		f.Silence = s.Silence.Fork(f.Heartbeat)
	}
	if s.Checkpoint != nil {
		f.Checkpoint = s.Checkpoint.Fork(m.Bus)
	}
	f.wire()
	return f
}

// wire maps the system's devices onto its machine: the consoles and
// port devices at their ports, then the clocked devices in tick order.
// The builders wire the devices they make and Fork the copies it
// makes, so a fork cannot disagree with its source on a port or on
// tick order.
func (s *System) wire() {
	m := s.M
	if s.Silence != nil {
		m.MapPort(s.heartbeatPort, s.Silence)
	} else if s.Heartbeat != nil {
		m.MapPort(s.heartbeatPort, s.Heartbeat)
	}
	if s.Repairs != nil {
		m.MapPort(guest.PortRepair, s.Repairs)
	}
	for i, c := range s.ProcBeats {
		m.MapPort(uint16(guest.PortProc0+i), c)
	}
	if s.Checkpoint != nil {
		m.MapPort(guest.PortCheckpoint, s.Checkpoint)
	}
	if s.Silence != nil {
		m.AddTicker(s.Silence)
	}
	if s.Watchdog != nil {
		m.AddTicker(s.Watchdog)
	}
	if s.Timer != nil {
		m.AddTicker(s.Timer)
	}
	if s.Checkpoint != nil {
		m.AddTicker(s.Checkpoint)
	}
}

// Run advances the system n steps.
func (s *System) Run(n int) { s.M.Run(n) }

// Steps returns the machine step counter.
func (s *System) Steps() uint64 { return s.M.Stats.Steps }

// Spec returns the legal-execution specification matching the system's
// approach: weak legality (restarts allowed) for baseline and approach
// 1 variants, strict legality for approach 2.
func (s *System) Spec() trace.HeartbeatSpec {
	return trace.HeartbeatSpec{
		Start:        guest.HeartbeatStart,
		MaxGap:       s.maxGap(),
		AllowRestart: s.Cfg.Approach != ApproachMonitor,
	}
}

// maxGap bounds the legal distance between heartbeats: the beat
// interval plus one full handler run (during which the guest is
// paused), with slack.
func (s *System) maxGap() uint64 {
	beat := uint64(2000)
	if s.Kernel != nil && s.Kernel.Padded {
		beat *= 16
	}
	handler := uint64(guest.ImageSize + 512)
	return beat + 2*handler
}

// ProcSpec returns the per-process heartbeat specification for
// approach 3 systems (process beats restart from 1 whenever the
// process's counter is clobbered or its code region is refreshed
// mid-update, so weak legality applies).
func (s *System) ProcSpec(i int) trace.HeartbeatSpec {
	// A process beats once per scheduling round in the worst case;
	// the refresher's round includes a 4 KiB copy.
	return trace.HeartbeatSpec{
		Start:        1,
		MaxGap:       400000,
		AllowRestart: true,
	}
}

// busWithROMs creates the memory bus with the fault-on-ROM-store
// policy the tailored designs rely on (anomalous stores become
// exceptions that the stabilizer handles).
func busWithROMs(roms ...romSpec) (*mem.Bus, error) {
	bus := mem.NewBus()
	bus.SetROMWritePolicy(mem.ROMWriteFault)
	for _, r := range roms {
		if _, err := bus.AddROM(r.name, r.start, r.data); err != nil {
			return nil, err
		}
	}
	return bus, nil
}

type romSpec struct {
	name  string
	start uint32
	data  []byte
}

// newConsole returns a recording console stamped by m's step clock;
// wire maps it at its port.
func newConsole(m *machine.Machine, cap int) *dev.Console {
	return dev.NewConsole(stepClock(m), cap)
}

// stepClock reads m's step counter, the stamp of every console write.
func stepClock(m *machine.Machine) func() uint64 {
	return func() uint64 { return m.Stats.Steps }
}
