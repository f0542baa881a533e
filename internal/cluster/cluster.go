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
// drawn from a single coordinator-owned seeded source. Replicas step in
// parallel on the shared internal/pool worker pool, but no goroutine
// touches another replica's state and all vote tallies are collected in
// replica order, so two runs with the same configuration produce
// byte-identical logs regardless of scheduling.
package cluster

import (
	"fmt"
	"math/rand"

	"ssos/internal/core"
	"ssos/internal/fault"
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
// judges and digests each beat as it is written, so nothing in the
// cluster reads a console back.
const replicaConsoleCap = 1

// replica is one fleet member: a system, its private injector, and
// epoch bookkeeping.
type replica struct {
	id          int
	incarnation int
	sys         *core.System
	inj         *fault.Injector
	epochStart  uint64 // Steps() at the start of the current epoch
	// beats judges the heartbeat stream since boot; legal and digest
	// accumulate the current epoch's verdict and output beat by beat
	// (see onBeat).
	beats  obs.BeatStream
	legal  bool
	digest digest
	// col buffers the replica's own event stream (nil when the cluster
	// is uninstrumented); rec is the optional flight recorder.
	col *obs.Collector
	rec *trace.Recorder
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
	// Probe the configuration once before building the fleet, so a
	// broken guest build surfaces as an error, not a panic.
	if _, err := core.New(c.sysCfg); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Replicas; i++ {
		r := &replica{id: i}
		if cfg.Collector != nil {
			r.col = obs.NewCollector()
			r.col.Replica = i
		}
		c.boot(r, nil)
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

// boot replaces r's system with a fresh one reinstalled from the ROM
// image. With a donor, the new system additionally adopts the donor's
// volatile state (memory, CPU, step clock, latched interrupt pins,
// watchdog countdown) so the deterministic machine re-enters lockstep
// with the quorum; without one it starts from power-on.
func (c *Cluster) boot(r *replica, donor *replica) {
	sys := core.MustNew(c.sysCfg)
	if donor != nil {
		if err := sys.M.AdoptState(donor.sys.M); err != nil {
			// The fleet shares one memory layout; a mismatch is a
			// programming error, not a runtime condition.
			panic(err)
		}
		if sys.Watchdog != nil && donor.sys.Watchdog != nil {
			sys.Watchdog.Counter = donor.sys.Watchdog.Counter
		}
	}
	r.sys = sys
	if r.col != nil {
		sys.Instrument(r.col)
	}
	// The voter sees each beat as it is written, ahead of the hook
	// Instrument installed.
	r.beats = obs.BeatStream{Rule: obs.BeatRule(sys.Spec())}
	observe := sys.Heartbeat.OnWrite
	sys.Heartbeat.OnWrite = func(step uint64, v uint16) {
		r.onBeat(step, v)
		if observe != nil {
			observe(step, v)
		}
	}
	if c.cfg.TraceN > 0 {
		r.rec = trace.NewRecorder(sys.M, c.cfg.TraceN)
		sys.M.AfterStep = r.rec.Observe
	}
	r.inj = fault.NewInjector(sys.M, injectorSeed(c.cfg.Seed, r.id, r.incarnation))
	r.incarnation++
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
	e := c.epoch
	strikes := c.strikesFor(e)
	perReplica := make([][]Strike, len(c.replicas))
	for _, s := range strikes {
		perReplica[s.Replica] = append(perReplica[s.Replica], s)
	}

	// Step every replica through the epoch on the shared worker pool.
	// Each job touches only its own replica (including its private
	// event collector), so the fan-out is safe and the results are
	// independent of goroutine scheduling.
	outputs := make([]epochOutput, len(c.replicas))
	pool.Run(len(c.replicas), func(i int) {
		r := c.replicas[i]
		if r.col != nil {
			r.col.Epoch = e
		}
		outputs[i] = r.runEpoch(c.cfg.EpochSteps, perReplica[i])
	})
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

// runEpoch advances the replica by steps machine steps, applying the
// given strikes at their offsets, and returns the epoch output.
func (r *replica) runEpoch(steps int, strikes []Strike) epochOutput {
	r.epochStart = r.sys.Steps()
	r.legal, r.digest = true, newDigest()
	done := 0
	for _, s := range strikes {
		off := s.Offset
		if off > steps {
			off = steps
		}
		if off > done {
			r.sys.Run(off - done)
			done = off
		}
		s.Mode.apply(r.inj)
	}
	r.sys.Run(steps - done)
	return r.output()
}
