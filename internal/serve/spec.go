// Package serve hosts the stabilization-as-a-service daemon: a
// long-lived HTTP server running many concurrent fault-injected
// simulation sessions on top of the batch machinery the rest of the
// repo provides. A session wraps either one core.System (a "machine"
// session, the ssos-run shape) or one cluster.Cluster (a "cluster"
// session, the ssos-cluster shape); clients create sessions from named
// guest images, advance them by steps or epochs, inject faults on
// demand, fetch obs metrics snapshots, and stream the live obs event
// feed over SSE.
//
// The design invariants, in order:
//
//   - Determinism bridge. A served session is driven by the exact same
//     construction and injection code paths as the batch CLIs, and all
//     mutation is serialized through a per-session run loop, so for a
//     fixed image/seed/command sequence the JSONL event stream fetched
//     from the service is byte-identical to the ssos-run/-cluster
//     -events-out output. The CI smoke job and the bridge tests
//     enforce this.
//   - Bounded concurrency. Sessions do not own goroutines: a fixed
//     worker set (budgeted like internal/pool's -workers contract)
//     executes session commands from a run queue, so a thousand idle
//     sessions cost memory only, and the simulation CPU fan-out is
//     capped regardless of client count.
//   - Deterministic eviction. The registry ages sessions on a logical
//     clock that ticks once per mutating operation — never wall time —
//     so which sessions get evicted is a pure function of the request
//     sequence, testable byte-for-byte like everything else here.
//   - Backpressure without loss of truth. Live SSE subscribers read
//     from fixed-size per-subscriber rings; a slow reader drops old
//     frames and is told exactly how many (a drop frame), while the
//     session's collector retains the full stream for cursor-based
//     refetch.
package serve

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/mem"
	"ssos/internal/model"
)

// Image is a named, fully specified guest configuration — what a
// client creates a session from. Name is the API identifier; Cfg is
// the core construction the name stands for.
type Image struct {
	Name string
	Desc string
	Cfg  core.Config
}

// images lists every named image in fixed order (the /api/images
// response order). The first eight are the paper's approaches exactly
// as cmd/ssos-run spells them; the variants after them wire the
// tickful kernel and the mailbox token-ring workloads.
var images = []Image{
	{"baseline", "conventional system: installed once, no watchdog, exceptions crash", core.Config{Approach: core.ApproachBaseline}},
	{"reinstall", "Section 3: periodic full reinstall from ROM and restart (Figure 1)", core.Config{Approach: core.ApproachReinstall}},
	{"continue", "Section 3 variant: refresh the executable, continue where interrupted", core.Config{Approach: core.ApproachContinue}},
	{"monitor", "Section 4: executable refresh + consistency-predicate repair", core.Config{Approach: core.ApproachMonitor}},
	{"primitive", "Section 5.1: loop-free ROM process chain", core.Config{Approach: core.ApproachPrimitive}},
	{"scheduler", "Section 5.2: self-stabilizing process-table scheduler (Figures 2-5)", core.Config{Approach: core.ApproachScheduler}},
	{"checkpoint", "related-work comparator: periodic snapshot + rollback on watchdog", core.Config{Approach: core.ApproachCheckpoint}},
	{"adaptive", "related-work comparator: silence-triggered reinstall watchdog", core.Config{Approach: core.ApproachAdaptive}},
	{"reinstall-tickful", "reinstall approach over the interrupt-driven (hlt + timer ISR) kernel", core.Config{Approach: core.ApproachReinstall, TickfulKernel: true}},
	{"scheduler-mbox-kstate", "scheduler running the K-state token ring through the shared mailbox region", core.Config{Approach: core.ApproachScheduler, Workload: core.WorkloadMailboxKState}},
	{"scheduler-mbox-dijkstra3", "scheduler running Dijkstra's 3-state ring through the shared mailbox region", core.Config{Approach: core.ApproachScheduler, Workload: core.WorkloadMailboxDijkstra3}},
	{"scheduler-mbox-ghosh4", "scheduler running Ghosh's 4-state chain through the shared mailbox region", core.Config{Approach: core.ApproachScheduler, Workload: core.WorkloadMailboxGhosh4}},
}

// Images returns the named guest images in their fixed catalog order.
func Images() []Image {
	return append([]Image(nil), images...)
}

// LookupImage resolves an image by name.
func LookupImage(name string) (Image, bool) {
	for _, img := range images {
		if img.Name == name {
			return img, true
		}
	}
	return Image{}, false
}

// faultKinds lists the machine fault classes in fixed order — the same
// vocabulary as ssos-run's -fault flag (minus "none", which is simply
// the absence of an injection request in the service world).
var faultKinds = []string{
	"bitflip", "os-blast", "cpu-blast", "pc", "all-ram", "table-blast", "proc-code", "mailbox",
}

// FaultKinds returns the injectable machine fault class names.
func FaultKinds() []string {
	return append([]string(nil), faultKinds...)
}

// InjectFault applies the named fault class to the system through the
// given injector. This is THE injection path: cmd/ssos-run calls it
// for -fault and the service calls it for POST .../fault, which is
// what makes a served fault byte-identical to a batch one for the same
// seed and step.
func InjectFault(s *core.System, inj *fault.Injector, kind string) error {
	switch kind {
	case "bitflip":
		inj.FlipRAMBit()
	case "os-blast":
		inj.RandomizeRegion(mem.Region{Name: "os", Start: uint32(guest.OSSeg) << 4, Size: guest.ImageSize})
	case "cpu-blast":
		inj.BlastCPU()
	case "pc":
		inj.CorruptIP()
		inj.CorruptSegment()
	case "all-ram":
		inj.BlastRAM()
	case "table-blast":
		inj.RandomizeRegion(mem.Region{Name: "table", Start: uint32(guest.SchedSeg) << 4,
			Size: guest.ProcessTableOff + guest.NumProcs*guest.ProcessEntrySize})
	case "proc-code":
		inj.RandomizeRegion(mem.Region{Name: "p0",
			Start: uint32(guest.ProcCodeSeg(0)) << 4, Size: guest.ProcRegionSize})
	case "mailbox":
		// Algorithm-layer fault for the mailbox ring workloads: the
		// shared slot region and every node's parked register words.
		inj.RandomizeRegion(mem.Region{Name: "mailbox",
			Start: guest.MailboxAddr(0), Size: 2 * model.MaxRingNodes})
		for i := 0; i < guest.MailboxNodes; i++ {
			inj.RandomizeRegion(mem.Region{Name: "node-regs",
				Start: guest.MailboxRegLAddr(i), Size: 4})
		}
	default:
		return fmt.Errorf("unknown fault %q", kind)
	}
	return nil
}

// SessionSpec is the client's session-creation request. Kind selects
// the shape ("machine", the default, or "cluster"); Image names the
// guest configuration; Seed drives every injector the session owns.
// The remaining fields apply to one kind each and are ignored by the
// other.
type SessionSpec struct {
	Kind  string `json:"kind,omitempty"`
	Image string `json:"image"`
	Seed  int64  `json:"seed,omitempty"`

	// Machine options, mirroring ssos-run flags.
	Period   uint32 `json:"period,omitempty"`    // watchdog period / quantum override
	StockNMI bool   `json:"stock_nmi,omitempty"` // disable the paper's NMI-counter hardware

	// Cluster options, mirroring ssos-cluster flags.
	Replicas    int     `json:"replicas,omitempty"`
	EpochSteps  int     `json:"epoch_steps,omitempty"`
	Faults      string  `json:"faults,omitempty"` // strike fault class (cluster.ParseFaultMode)
	StrikeEvery int     `json:"strike_every,omitempty"`
	StrikeProb  float64 `json:"strike_prob,omitempty"`
}

// Kinds.
const (
	KindMachine = "machine"
	KindCluster = "cluster"
)

// normalize validates the spec and fills defaults. It returns the
// resolved image.
func (sp *SessionSpec) normalize() (Image, error) {
	if sp.Kind == "" {
		sp.Kind = KindMachine
	}
	if sp.Kind != KindMachine && sp.Kind != KindCluster {
		return Image{}, fmt.Errorf("unknown session kind %q", sp.Kind)
	}
	if sp.Image == "" {
		sp.Image = "reinstall"
	}
	img, ok := LookupImage(sp.Image)
	if !ok {
		return Image{}, fmt.Errorf("unknown image %q", sp.Image)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return img, nil
}
