package cluster

import (
	"fmt"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/guest"
	"ssos/internal/model"
	"ssos/internal/obs"
	"ssos/internal/pool"
	"ssos/internal/trace"
)

// RingFleet runs a mailbox token ring distributed one node per replica:
// replica i is a full scheduler system (core.ApproachScheduler) whose
// slot-0 process executes ring node i, and a relay shim periodically
// copies each node's owned mailbox slot into the neighbours' local
// mailbox copies — the fleet's only communication channel. The relay is
// deliberately dumb: it moves raw words, never inspecting or repairing
// them, so a corrupted slot travels as-is and only the receiving node's
// own normalization discipline (internal/guest's mailbox programs)
// contains it. Token circulation across the fleet is therefore a
// three-layer stabilization stack: machine, per-replica OS, distributed
// algorithm.
//
// Determinism: each replica is a deterministic machine with a private
// seeded injector, replicas step in parallel on the shared worker pool
// but never touch each other's state, and the relay runs on the
// coordinator at a fixed cadence in replica order — two runs with the
// same configuration produce identical traces and event streams.

// DefaultRelayEvery is the relay cadence in machine steps: a few
// scheduling quanta, so a node typically completes several iterations
// between exchanges (the message-delay regime of a real deployment).
const DefaultRelayEvery = 2000

// RingFleetConfig parameterizes a ring fleet. Zero values select
// defaults.
type RingFleetConfig struct {
	// Variant selects the token-ring protocol.
	Variant guest.RingVariant
	// Replicas is the fleet and ring size n (default DefaultReplicas;
	// 2..model.MaxRingNodes).
	Replicas int
	// Seed drives every replica's private fault injector.
	Seed int64
	// Collector, when non-nil, receives the fleet's structured event
	// stream: fault injections and cluster-scoped legality-regained
	// events (Replica -1), foldable by obs.FoldEpisodes.
	Collector *obs.Collector
}

// RingFleet is a running one-node-per-replica token ring.
type RingFleet struct {
	cfg   RingFleetConfig
	proto model.Protocol
	reps  []*core.System
	injs  []*fault.Injector
	legal *obs.PredicateTracker

	steps     uint64 // fleet lockstep clock
	nextFault uint64
	lastFault uint64
	partial   int // steps run since the last relay round
}

// NewRingFleet builds a fleet of freshly booted replicas.
func NewRingFleet(cfg RingFleetConfig) (*RingFleet, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 2 || cfg.Replicas > model.MaxRingNodes {
		return nil, fmt.Errorf("cluster: ring fleet size %d out of range 2..%d",
			cfg.Replicas, model.MaxRingNodes)
	}
	f := &RingFleet{cfg: cfg, proto: cfg.Variant.Protocol()}
	for i := 0; i < cfg.Replicas; i++ {
		sys, err := core.New(core.Config{
			Approach:   core.ApproachScheduler,
			Workload:   core.MailboxWorkload(cfg.Variant),
			RingNode:   i,
			RingNodes:  cfg.Replicas,
			ConsoleCap: replicaConsoleCap,
		})
		if err != nil {
			return nil, err
		}
		f.reps = append(f.reps, sys)
		f.injs = append(f.injs, fault.NewInjector(sys.M, injectorSeed(cfg.Seed, i, 0)))
	}
	f.legal = &obs.PredicateTracker{Confirm: core.ObsConfirm, Sink: ringSink{f}}
	return f, nil
}

// MustNewRingFleet is NewRingFleet, panicking on configuration errors.
func MustNewRingFleet(cfg RingFleetConfig) *RingFleet {
	f, err := NewRingFleet(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// ringSink stamps the legality tracker's confirmations with the fault
// id of the episode they close before forwarding to the collector.
type ringSink struct{ f *RingFleet }

func (s ringSink) Emit(e obs.Event) {
	if e.FaultID == 0 {
		e.FaultID = s.f.lastFault
	}
	if e.Type == obs.TypeLegalityRegained {
		s.f.lastFault = 0
	}
	if s.f.cfg.Collector != nil {
		s.f.cfg.Collector.Emit(e)
	}
}

// Steps returns the fleet's lockstep clock.
func (f *RingFleet) Steps() uint64 { return f.steps }

// Nodes returns the ring size.
func (f *RingFleet) Nodes() int { return len(f.reps) }

// Replica returns fleet member i (read-only access for reports).
func (f *RingFleet) Replica(i int) *core.System { return f.reps[i] }

// Run advances every replica by n machine steps, relaying neighbour
// slots every DefaultRelayEvery steps and sampling fleet legality after
// each relay round.
func (f *RingFleet) Run(n int) {
	for n > 0 {
		chunk := DefaultRelayEvery - f.partial
		if chunk > n {
			f.partial += n
			f.stepAll(n)
			return
		}
		f.stepAll(chunk)
		n -= chunk
		f.partial = 0
		f.relay()
		f.legal.OnSample(f.steps, f.Legal())
	}
}

// stepAll steps every replica by n steps in parallel and advances the
// fleet clock.
func (f *RingFleet) stepAll(n int) {
	pool.Run(len(f.reps), func(i int) {
		f.reps[i].Run(n)
	})
	f.steps += uint64(n)
}

// relay performs one exchange round: snapshot every node's owned slot,
// then copy each word — raw, unvalidated — into the local mailbox
// copies of the neighbours that read it.
func (f *RingFleet) relay() {
	n := len(f.reps)
	words := make([]uint16, n)
	for i, s := range f.reps {
		words[i] = s.MailboxSlot(i)
	}
	for i, s := range f.reps {
		role := f.proto.Role(i, n)
		l, r := (i+n-1)%n, (i+1)%n
		if role.Left {
			pokeWord(s, guest.MailboxAddr(l), words[l])
		}
		if role.Right {
			pokeWord(s, guest.MailboxAddr(r), words[r])
		}
	}
}

func pokeWord(s *core.System, addr uint32, v uint16) {
	s.M.Bus.PokeRAM(addr, byte(v))
	s.M.Bus.PokeRAM(addr+1, byte(v>>8))
}

// Ring returns the fleet's authoritative abstract configuration: α of
// each node's owned slot, read from its own machine.
func (f *RingFleet) Ring() model.RingState {
	n := len(f.reps)
	var x model.RingState
	for i, s := range f.reps {
		x[i] = f.proto.Norm(i, n, s.MailboxSlot(i))
	}
	return x
}

// Privileges returns the privileges held in the fleet configuration,
// one entry per held guard, for reports.
func (f *RingFleet) Privileges() []int {
	return f.proto.Privileges(f.Ring(), len(f.reps))
}

// Legal reports the mutual-exclusion invariant: exactly one privilege.
func (f *RingFleet) Legal() bool { return f.proto.Legal(f.Ring(), len(f.reps)) }

// Converged runs the fleet for up to horizon steps and reports whether
// the ring held the exactly-one-privilege invariant for `window`
// consecutive relay rounds, returning the fleet step at which the
// sustained window began.
func (f *RingFleet) Converged(horizon, window int) (uint64, bool) {
	return trace.Sustained(f.Run, f.Steps, f.Legal, horizon, DefaultRelayEvery, window)
}

// RingScramble selects which layer of the fleet a Scramble corrupts.
type RingScramble uint8

const (
	// ScrambleRing corrupts the algorithm layer only: every replica's
	// mailbox slots and the node's parked register words.
	ScrambleRing RingScramble = iota
	// ScrambleOS corrupts the OS layer only: every replica's scheduler
	// process table and CPU soft state.
	ScrambleOS
	// ScrambleJoint corrupts everything: every replica's CPU soft
	// state and entire RAM — the paper's "started in any possible
	// state", fleet-wide.
	ScrambleJoint
)

// scrambles is indexed by RingScramble.
var scrambles = [...]menuEntry{
	ScrambleRing:  {"ring", []fault.Class{fault.Mailbox}},
	ScrambleOS:    {"os", []fault.Class{fault.TableBlast, fault.CPUBlast}},
	ScrambleJoint: {"joint", fault.Blast},
}

// RingScrambles lists the scramble classes in severity order.
func RingScrambles() []RingScramble {
	return []RingScramble{ScrambleRing, ScrambleOS, ScrambleJoint}
}

// ParseRingScramble parses a scramble-class name as printed by String.
func ParseRingScramble(s string) (RingScramble, error) {
	for _, m := range RingScrambles() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown ring scramble class %q", s)
}

func (m RingScramble) String() string {
	if int(m) < len(scrambles) {
		return scrambles[m].name
	}
	return fmt.Sprintf("scramble(%d)", uint8(m))
}

// Classes returns the fault classes the layer's scramble injects, in
// order.
func (m RingScramble) Classes() []fault.Class { return scrambles[m].classes }

// Scramble corrupts the selected layer on every replica through the
// replicas' private injectors, emits one fleet-scoped fault event, and
// marks the legality tracker dirty — the next confirmed legal window
// emits legality-regained with steps-to-legal. Call it between Run
// calls (never concurrently with one).
func (f *RingFleet) Scramble(m RingScramble) {
	for _, inj := range f.injs {
		inj.Inject(len(f.reps), m.Classes()...)
	}
	f.nextFault++
	f.lastFault = f.nextFault
	f.legal.OnFault(f.steps)
	if f.cfg.Collector != nil {
		e := obs.Ev(f.steps, obs.TypeFaultInjected)
		e.Replica = -1
		e.Epoch = -1
		e.FaultID = f.nextFault
		e.Note = "scramble-" + m.String()
		f.cfg.Collector.Emit(e)
	}
}
