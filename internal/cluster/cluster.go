// Package cluster lifts the paper's single-node stabilization to a
// replicated fleet: N independent core.System replicas execute the same
// deterministic guest in lockstep epochs, a voter compares their
// observable outputs per epoch and emits a majority-voted cluster
// verdict, and a reconfigurator applies the paper's Section-3 remedy at
// the replica level — evict a divergent or halted replica, reinstall a
// fresh system from the ROM image, and rejoin it to the quorum by state
// transfer from a healthy member.
//
// The layering follows the two natural successors of the paper named in
// its related work: Self-Stabilizing Paxos (replicas mask faults
// through a voting quorum instead of merely recovering after the fact)
// and Self-Stabilizing Reconfiguration (divergent replicas are evicted
// and rejoined through state transfer from the current quorum). The
// cluster is self-stabilizing even when individual replicas are NOT:
// a baseline fleet, whose members crash forever on their first
// exception, still converges because the reconfigurator reinstalls
// crashed members from ROM each epoch.
//
// Determinism: every replica's machine is a pure function of its state,
// each replica owns a seeded fault.Injector, and the strike schedule is
// drawn from a single coordinator-owned seeded source. Replicas of one
// lineage — booted together, or rejoined by state transfer — share one
// machine, copy-on-strike (see host), so an epoch steps each distinct
// machine once. Machines step in parallel on the shared internal/pool
// worker pool, but no goroutine touches another machine's replicas and
// all vote tallies are collected in replica order, so two runs with the
// same configuration produce byte-identical logs regardless of
// scheduling.
package cluster

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"ssos/internal/core"
	"ssos/internal/fault"
	"ssos/internal/machine"
	"ssos/internal/obs"
	"ssos/internal/pool"
	"ssos/internal/trace"
)

// Default configuration values.
const (
	// DefaultReplicas is the fleet size when none is given.
	DefaultReplicas = 3
	// DefaultEpochSteps is the epoch length in machine steps: two
	// watchdog periods, so every replica's own stabilizer gets at
	// least one full shot at a fault before the cluster layer votes.
	DefaultEpochSteps = 2 * core.DefaultWatchdogPeriod
	// DefaultStrikeEvery is the deterministic strike cadence: every
	// k-th epoch a random minority of replicas is struck.
	DefaultStrikeEvery = 3
)

// Config parameterizes a cluster. The zero value of every field selects
// a sensible default.
type Config struct {
	// Replicas is the fleet size N (default DefaultReplicas). The
	// voting quorum is N/2+1.
	Replicas int
	// Approach selects the per-replica system design. Supported:
	// baseline, reinstall, continue, monitor (the kernel approaches
	// whose full volatile state is transferable between machines).
	Approach core.Approach
	// EpochSteps is the epoch length in machine steps (default
	// DefaultEpochSteps). It must exceed the approach's heartbeat
	// MaxGap, or every epoch would look silent to the voter.
	EpochSteps int
	// Seed drives the strike schedule and every replica injector.
	Seed int64
	// Faults selects the strike fault class (default ModeNone).
	Faults FaultMode
	// StrikeProb, when positive, strikes each replica independently
	// with this probability per epoch, at a random offset. When zero,
	// the deterministic cadence below applies instead.
	StrikeProb float64
	// StrikeEvery is the deterministic cadence: every k-th epoch a
	// random minority ((N-1)/2 replicas) is struck mid-epoch (default
	// DefaultStrikeEvery).
	StrikeEvery int
	// Schedule, when non-nil, replaces generated strikes entirely
	// (tests use this to pin exact strike placements).
	Schedule []Strike
	// Collector, when non-nil, receives the cluster's structured event
	// stream (replica events in replica order, then the vote tally and
	// reconfiguration events, per epoch) and aggregates stabilization
	// metrics. See internal/cluster/observe.go.
	Collector *obs.Collector
	// TraceN, when positive, keeps a flight recorder of each replica's
	// last TraceN executed steps and attaches the dump of an evicted
	// replica to its eviction Event (post-mortem for divergence).
	TraceN int
}

// replicaConsoleCap bounds every replica console's history. The voter
// judges and digests each beat as it is written, and a ring fleet
// judges its ring from mailbox slots, so nothing in the cluster reads a
// console back.
const replicaConsoleCap = 1

// replica is one fleet member: the machine it runs on, its private
// injector, and epoch bookkeeping.
type replica struct {
	id          int
	incarnation int
	host        *host
	inj         *fault.Injector
	// beats judges the heartbeat stream since boot; legal accumulates
	// the current epoch's verdict beat by beat (see onBeat).
	beats obs.BeatStream
	legal bool
	// col buffers the replica's own event stream and ob derives it
	// from the machine's (both nil when the cluster is
	// uninstrumented); rec is the optional flight recorder.
	col *obs.Collector
	ob  *core.Observer
	rec *trace.Recorder
}

// host is one machine and the replicas that run on it. Replicas share
// a machine only by lineage: New and a fleet-wide fresh boot put every
// replica they boot on one machine, and a rejoin by state transfer
// joins the donor's. A deterministic machine stepped once is then the
// machine each of them would have stepped alone. The machine's hooks
// only read, and fan out to every member, which keeps its own
// heartbeat judge, observer and recorder. The one write from outside,
// a strike, first splits its replica onto a clone (Cluster.split), so
// the other members never see it.
//
// Equal digests are no ground for sharing: of RAM, a digest covers
// only the OS image and stack, so replicas that agree on it (a bitflip
// elsewhere in RAM) may still be different machines.
type host struct {
	sys     *core.System
	members []*replica
	// epochStart is Steps() at the start of the current epoch; digest
	// accumulates the epoch's output beat by beat (see onBeat). Members
	// join only between epochs, so they all share both.
	epochStart uint64
	digest     digest
}

// newHost wires a machine's hooks to fan out to its members.
func (c *Cluster) newHost(sys *core.System) *host {
	h := &host{sys: sys}
	sys.Heartbeat.OnWrite = h.onBeat
	if c.cfg.Collector != nil {
		sys.M.Probe = h
		if sys.Repairs != nil {
			sys.Repairs.OnWrite = h.onRepair
		}
	}
	if c.cfg.TraceN > 0 {
		sys.M.AfterStep = h.afterStep
	}
	return h
}

func (h *host) onRepair(step uint64, v uint16) {
	for _, r := range h.members {
		if r.ob != nil {
			r.ob.OnRepair(step, v)
		}
	}
}

// Emit hands a machine event to each member's observer.
func (h *host) Emit(e obs.Event) {
	for _, r := range h.members {
		if r.ob != nil {
			r.ob.Emit(e)
		}
	}
}

func (h *host) afterStep(m *machine.Machine, ev machine.Event) {
	for _, r := range h.members {
		r.rec.Observe(m, ev)
	}
}

// leave removes r from the machine's members.
func (h *host) leave(r *replica) {
	h.members = slices.DeleteFunc(h.members, func(x *replica) bool { return x == r })
}

// Cluster is a running replicated fleet.
type Cluster struct {
	cfg      Config
	sysCfg   core.Config
	replicas []*replica
	rng      *rand.Rand // coordinator-only: strike schedule
	epoch    int

	// Stats records one entry per completed epoch, in order.
	Stats []EpochStat
	// Events records every reconfiguration action, in order.
	Events []Event

	evictions  int
	freshBoots int
}

// EpochStat is the voter's record of one epoch.
type EpochStat struct {
	Epoch   int
	Strikes []Strike
	// Agree is the size of the winning digest group (0 when the fleet
	// produced no output at all).
	Agree int
	// Quorum reports whether the winning group reached N/2+1 members.
	Quorum bool
	// Legal is the cluster verdict: a quorum exists and its members'
	// epoch output satisfies the heartbeat specification.
	Legal bool
	// Digest is the winning group's digest (the cluster output).
	Digest uint64
	// Evicted lists the replicas evicted at the end of this epoch.
	Evicted []int
}

// New builds a cluster of freshly booted replicas.
func New(cfg Config) (*Cluster, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: replica count %d", cfg.Replicas)
	}
	if cfg.EpochSteps == 0 {
		cfg.EpochSteps = DefaultEpochSteps
	}
	if cfg.EpochSteps < 0 {
		return nil, fmt.Errorf("cluster: epoch steps %d", cfg.EpochSteps)
	}
	if cfg.StrikeEvery == 0 {
		cfg.StrikeEvery = DefaultStrikeEvery
	}
	switch cfg.Approach {
	case core.ApproachBaseline, core.ApproachReinstall, core.ApproachContinue, core.ApproachMonitor:
	default:
		return nil, fmt.Errorf("cluster: approach %v is not supported "+
			"(replica state transfer needs a transferable device set)", cfg.Approach)
	}
	c := &Cluster{
		cfg:    cfg,
		sysCfg: core.Config{Approach: cfg.Approach, ConsoleCap: replicaConsoleCap},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	// One machine boots the whole fleet; a broken guest build surfaces
	// here as an error, not a panic.
	sys, err := core.New(c.sysCfg)
	if err != nil {
		return nil, err
	}
	h := c.newHost(sys)
	for i := 0; i < cfg.Replicas; i++ {
		r := &replica{id: i}
		if cfg.Collector != nil {
			r.col = obs.NewCollector()
			r.col.Replica = i
		}
		c.boot(r, h)
		c.replicas = append(c.replicas, r)
	}
	return c, nil
}

// MustNew is New, panicking on configuration errors.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Quorum returns the majority threshold N/2+1.
func (c *Cluster) Quorum() int { return len(c.replicas)/2 + 1 }

// Epoch returns the number of completed epochs.
func (c *Cluster) Epoch() int { return c.epoch }

// EpochSteps returns the epoch length in machine steps.
func (c *Cluster) EpochSteps() int { return c.cfg.EpochSteps }

// boot starts r's next incarnation on h: a fresh heartbeat judge,
// observer, flight recorder and injector, on a machine that is either
// freshly booted from ROM or a quorum member's, which puts the
// deterministic replica back in lockstep with the quorum.
func (c *Cluster) boot(r *replica, h *host) {
	if r.host != nil {
		r.host.leave(r)
	}
	r.host = h
	h.members = append(h.members, r)
	r.beats = obs.BeatStream{Rule: obs.BeatRule(h.sys.Spec())}
	if r.col != nil {
		r.ob = h.sys.NewObserver(r.col)
	}
	if c.cfg.TraceN > 0 {
		r.rec = trace.NewRecorder(c.cfg.TraceN)
	}
	r.inj = fault.NewInjector(h.sys.M, injectorSeed(c.cfg.Seed, r.id, r.incarnation))
	r.incarnation++
}

// split moves r off a machine it shares onto a clone: a fork of the
// system (core.System.Fork), which continues the machine's run —
// memory, CPU, step clock, latched interrupt pins, watchdog countdown,
// engine — and shares its memory pages until either side writes one.
// r keeps its incarnation and all it has observed, and its injector
// now strikes the clone. split returns the clone, or nil when r is
// alone on its machine and stays there. It runs between pool fan-outs,
// while no machine steps.
func (c *Cluster) split(r *replica) *host {
	h := r.host
	if len(h.members) == 1 {
		return nil
	}
	sys := h.sys.Fork()
	h.leave(r)
	clone := c.newHost(sys)
	clone.members = []*replica{r}
	clone.epochStart, clone.digest = h.epochStart, h.digest
	r.host = clone
	r.inj.M = sys.M
	return clone
}

// injectorSeed mixes the cluster seed with replica identity and
// incarnation so every replica lifetime has an independent, yet fully
// reproducible, fault stream.
func injectorSeed(seed int64, id, incarnation int) int64 {
	x := uint64(seed) ^ uint64(id+1)*0x9E3779B97F4A7C15 ^ uint64(incarnation+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	return int64(x)
}

// Run executes n epochs: step all replicas one epoch in parallel,
// vote, reconfigure.
func (c *Cluster) Run(n int) {
	for i := 0; i < n; i++ {
		c.runEpoch()
	}
}

func (c *Cluster) runEpoch() {
	strikes := c.strikesFor(c.epoch)
	c.closeEpoch(strikes, c.stepEpoch(strikes))
}

// stepEpoch steps every replica through the current epoch, applying
// its strikes, and returns each replica's epoch output.
//
// Machines are independent between strike offsets, so the epoch runs
// in segments: every distinct machine, clones included, steps on the
// shared worker pool from one strike offset to the next, and at each
// offset the coordinator applies the strikes due there in (offset,
// replica) order, splitting a struck replica off a machine it shares
// first. The last segment steps every machine to the epoch's end and
// records its members' outputs. A job touches only its machine and its
// members (including their private event collectors), so the results
// are independent of goroutine scheduling.
func (c *Cluster) stepEpoch(strikes []Strike) []epochOutput {
	var hosts []*host
	for _, r := range c.replicas {
		if h := r.host; !slices.Contains(hosts, h) {
			hosts = append(hosts, h)
			h.epochStart, h.digest = h.sys.Steps(), newDigest()
		}
		r.legal = true
		if r.col != nil {
			r.col.Epoch = c.epoch
		}
	}
	// strikes come in (replica, offset) order, so a stable sort by
	// offset breaks ties in replica order.
	due := slices.Clone(strikes)
	slices.SortStableFunc(due, func(a, b Strike) int { return cmp.Compare(a.Offset, b.Offset) })
	steps, done := c.cfg.EpochSteps, 0
	for _, s := range due {
		if s.Mode == ModeNone {
			continue // a no-op strike writes nothing and splits nothing
		}
		if off := min(s.Offset, steps); off > done {
			n := off - done
			pool.Run(len(hosts), func(i int) { hosts[i].sys.Run(n) })
			done = off
		}
		r := c.replicas[s.Replica]
		if clone := c.split(r); clone != nil {
			hosts = append(hosts, clone)
		}
		s.Mode.apply(r.inj)
	}
	outputs := make([]epochOutput, len(c.replicas))
	pool.Run(len(hosts), func(i int) {
		hosts[i].sys.Run(steps - done)
		hosts[i].output(outputs)
	})
	return outputs
}

// closeEpoch votes on the epoch's outputs, reconfigures the fleet and
// records the epoch.
func (c *Cluster) closeEpoch(strikes []Strike, outputs []epochOutput) {
	e := c.epoch
	c.drainObs()
	v := tally(outputs, c.Quorum())
	c.emitVote(e, v)
	stat := EpochStat{
		Epoch:   e,
		Strikes: strikes,
		Agree:   v.agree,
		Quorum:  v.hasQuorum,
		Legal:   v.legal,
		Digest:  v.digest,
	}
	stat.Evicted = c.reconfigure(e, v, outputs)
	c.Stats = append(c.Stats, stat)
	c.epoch++
}
