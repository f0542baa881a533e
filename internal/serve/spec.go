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
//     construction and injection code paths as the batch CLIs, and a
//     session runs its commands one at a time, so for a fixed
//     image/seed/command sequence the JSONL event stream fetched from
//     the service is byte-identical to the ssos-run/-cluster
//     -events-out output. The CI smoke job and the bridge tests
//     enforce this.
//   - Bounded concurrency. Sessions do not own goroutines: a command
//     runs on the goroutine that asked for it, once it holds its
//     session's turn and one of the registry's worker slots (budgeted
//     like internal/pool's -workers contract), so a thousand idle
//     sessions cost memory only, and the simulation CPU fan-out is
//     capped regardless of client count.
//   - Deterministic eviction. The registry ages sessions on a logical
//     clock that ticks once per mutating operation — never wall time —
//     so which sessions get evicted is a pure function of the request
//     sequence, testable byte-for-byte like everything else here.
//   - Readers are cursors. A live SSE reader holds only its position
//     in the session's collector and a one-slot wake channel; on every
//     wake it writes everything past its position, so a slow reader
//     falls behind without losing or repeating an event.
package serve

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
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

// FaultKinds returns the injectable machine fault class names: the
// names of internal/fault's class table, in its order.
func FaultKinds() []string {
	classes := fault.Classes()
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = c.Name
	}
	return names
}

// InjectFault applies the named fault class to the system through the
// given injector. This is THE injection path: cmd/ssos-run calls it
// for -fault and the service calls it for POST .../fault, which is
// what makes a served fault byte-identical to a batch one for the same
// seed and step.
func InjectFault(s *core.System, inj *fault.Injector, kind string) error {
	c, ok := fault.LookupClass(kind)
	if !ok {
		return fmt.Errorf("unknown fault %q", kind)
	}
	inj.Inject(s.Cfg.RingNodes, c)
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

// MaxReplicas caps a cluster session's replicas, above the largest
// fleet the repo runs (E14's 9). A replica costs about 6 KB at
// creation, while replicas share their lineage's machine; one struck
// off its machine holds its own system, about 97 KB plus every
// 256-byte page it writes, up to all of RAM (about 1 MiB) after an
// all-ram fault. So a session at the cap holds at most about 17 MB,
// where an unbounded request for 10^6 replicas asked for 6 GB at
// creation alone.
const MaxReplicas = 16

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
	if sp.Kind == KindCluster && sp.Replicas > MaxReplicas {
		return Image{}, fmt.Errorf("cluster session: at most %d replicas (MaxReplicas), got %d", MaxReplicas, sp.Replicas)
	}
	// An epoch longer than a run may be could never run.
	if sp.Kind == KindCluster && sp.EpochSteps > MaxRunSteps {
		return Image{}, fmt.Errorf("cluster session: epoch_steps at most %d (MaxRunSteps), got %d", MaxRunSteps, sp.EpochSteps)
	}
	return img, nil
}
