package cluster

import (
	"strconv"

	"ssos/internal/obs"
)

// Observability wiring. When Config.Collector is set, every replica
// gets a private obs.Collector (single-goroutine, so the parallel
// epoch fan-out stays race-free); after each epoch the coordinator
// drains the replica buffers in replica order into the master
// collector, then appends its own vote-tally and reconfiguration
// events. Event order is therefore a pure function of the
// configuration — byte-identical across runs and worker counts, the
// same contract the vote log already satisfies.

// clusterStep is the cluster-level clock stamp for coordinator events:
// the logical end of the epoch. Replicas may drift in private step
// counts after fresh boots, so coordinator events use the fleet's
// lockstep clock instead of any one machine's.
func (c *Cluster) clusterStep(epoch int) uint64 {
	return uint64(epoch+1) * uint64(c.cfg.EpochSteps)
}

// drainObs splices the per-replica event buffers (in replica order)
// into the master collector after an epoch.
func (c *Cluster) drainObs() {
	if c.cfg.Collector == nil {
		return
	}
	for _, r := range c.replicas {
		c.cfg.Collector.Append(r.col.Drain()...)
	}
}

// emitVote records the epoch's tally as one cluster-scoped event.
//
// Vote tallies deliberately carry no FaultID: a tally aggregates the
// whole fleet, and it is emitted before reconfigure decides who is
// evicted — scoping it to any one replica's episode would close that
// episode before its eviction events arrive. Episodes therefore end
// only on replica-scoped evidence (legality-regained or rejoin).
func (c *Cluster) emitVote(epoch int, v vote) {
	if c.cfg.Collector == nil {
		return
	}
	verdict := "legal"
	switch {
	case !v.hasQuorum:
		verdict = "no-quorum"
	case !v.legal:
		verdict = "illegal"
	}
	c.cfg.Collector.Emit(obs.Event{
		Step:    c.clusterStep(epoch),
		Type:    obs.TypeVoteTally,
		Replica: -1,
		Epoch:   epoch,
		Code:    v.digest,
		Arg:     uint64(v.agree),
		Note:    verdict,
	})
}

// emitEviction records one evict + rejoin pair for the reconfigured
// replica. Arg on the rejoin event is donor+1 (0 = from-ROM fresh
// boot), keeping the zero-omitted JSON encoding unambiguous. faultID
// is the evicted incarnation's latest injected-fault ordinal (0 when
// the incarnation was never struck), scoping the pair to the recovery
// episode the rejoin resolves.
func (c *Cluster) emitEviction(epoch int, replica, donor int, reason string, faultID uint64) {
	if c.cfg.Collector == nil {
		return
	}
	step := c.clusterStep(epoch)
	c.cfg.Collector.Emit(obs.Event{
		Step:    step,
		Type:    obs.TypeReplicaEvicted,
		Replica: replica,
		Epoch:   epoch,
		FaultID: faultID,
		Note:    reason,
	})
	c.cfg.Collector.Emit(obs.Event{
		Step:    step,
		Type:    obs.TypeReplicaRejoined,
		Replica: replica,
		Epoch:   epoch,
		FaultID: faultID,
		Arg:     uint64(donor + 1),
	})
}

// MetricsSnapshot returns the cluster's aggregated stabilization
// metrics as a fresh registry — the master collector's registry with
// the replicas folded in (foldMetrics) — without mutating any
// collector state. Unlike FinishObservability it is safe to call
// repeatedly mid-run (between epochs), which is what lets a served
// session export metrics on demand; the two produce identical
// registries when taken at the same point. The caller must not run
// epochs concurrently (replica registries are read unlocked).
func (c *Cluster) MetricsSnapshot() *obs.Metrics {
	col := c.cfg.Collector
	if col == nil {
		return obs.NewMetrics()
	}
	m := col.MetricsSnapshot()
	c.foldMetrics(m)
	return m
}

// FinishObservability folds the replicas into the master collector's
// registry (foldMetrics). Call it once, after the last epoch; without a
// configured collector it is a no-op.
func (c *Cluster) FinishObservability() {
	if col := c.cfg.Collector; col != nil {
		c.foldMetrics(col.Metrics)
	}
}

// foldMetrics merges every replica's registry into m, in replica order,
// and sets the cluster gauges: each replica's availability (the
// fraction of epochs it was not evicted) and the fresh-boot count.
func (c *Cluster) foldMetrics(m *obs.Metrics) {
	for _, r := range c.replicas {
		m.Merge(r.col.Metrics)
	}
	s := c.Summary()
	if s.Epochs == 0 {
		return
	}
	for i, ev := range s.PerReplica {
		avail := 1 - float64(ev)/float64(s.Epochs)
		m.SetGauge("replica."+strconv.Itoa(i)+".availability", avail)
	}
	m.Add("cluster.fresh_boots", uint64(s.FreshBoots))
}
