package main

import (
	"ssos/internal/cluster"
	"ssos/internal/core"
	"ssos/internal/guest"
	"ssos/internal/obs"
	"ssos/internal/pool"
)

// fleet: the replicated layers. Each round is one strike cadence — 3
// voting epochs of a 5-replica reinstall cluster, the last of which
// strikes a minority with os-blast (events collected) — each epoch
// followed by 10 relay rounds of a 5-node Dijkstra 3-state ring fleet,
// whose algorithm layer is scrambled every 10 rounds. cluster and pool do most of the work: epochs evict replicas
// and rejoin them by state transfer, and the ring fans out to the pool
// every 2000 steps (~0.3 ms of work), so synchronisation overhead
// shows.
var fleetWorkload = &workload{
	name:   "fleet",
	why:    "voting epochs with evictions and state-transfer rejoins, plus a ring fleet fanning out to the pool every 2000 steps",
	prefix: 30,
	setup:  setupFleet,
}

const (
	fleetReplicas = 5
	ringRuns      = 10 // RingFleet.Run calls per epoch
	scrambleEvery = 10 // rounds between ring scrambles
)

type fleetInst struct {
	clu  *cluster.Cluster
	col  *obs.Collector
	ring *cluster.RingFleet
	// ringSamples and ringLegal count the relay rounds after which the
	// ring held exactly one privilege.
	ringSamples, ringLegal int
}

func setupFleet(t *track) (instance, error) {
	builds := []func() error{
		func() error { _, err := guest.BuildKernel(false); return err },
		func() error { _, err := guest.BuildReinstallHandler(); return err },
		func() error { _, err := guest.BuildScheduler(false); return err },
	}
	for node := 0; node < fleetReplicas; node++ {
		builds = append(builds, func() error {
			_, err := guest.BuildNodeProcesses(guest.VariantDijkstra3, node, fleetReplicas)
			return err
		})
	}
	if err := assemble(t, builds...); err != nil {
		return nil, err
	}
	f := &fleetInst{col: obs.NewCollector()}
	var err error
	t.do("cluster", "New", 0, func() {
		f.clu, err = cluster.New(cluster.Config{
			Replicas:  fleetReplicas,
			Approach:  core.ApproachReinstall,
			Seed:      t.r.seed,
			Faults:    cluster.ModeOSBlast,
			Collector: f.col,
		})
	})
	if err != nil {
		return nil, err
	}
	t.do("cluster", "NewRingFleet", 0, func() {
		f.ring, err = cluster.NewRingFleet(cluster.RingFleetConfig{
			Variant:  guest.VariantDijkstra3,
			Replicas: fleetReplicas,
			Seed:     t.r.seed,
		})
	})
	if err != nil {
		return nil, err
	}
	t.do("cluster", "RingFleet.Run", warmSteps, func() { f.ring.Run(warmSteps) })
	return f, nil
}

func (f *fleetInst) round(t *track, i int) {
	if i%scrambleEvery == 0 {
		if i > 0 {
			t.check(f.legal(t), "fleet round %d: ring not legal again before its next scramble", i)
		}
		// The algorithm layer only: its convergence is what the ring's
		// certificates bound. A joint (CPU + all RAM) scramble does not
		// always reconverge within a scramble interval.
		t.do("cluster", "RingFleet.Scramble", 0, func() { f.ring.Scramble(cluster.ScrambleRing) })
	}
	// The cluster strikes on every DefaultStrikeEvery-th epoch, so each
	// round holds exactly one struck epoch.
	for e := 0; e < cluster.DefaultStrikeEvery; e++ {
		t.op("cluster", "Cluster.Run", fleetReplicas*cluster.DefaultEpochSteps, func() { f.clu.Run(1) })
		st := f.clu.Stats[len(f.clu.Stats)-1]
		t.check(st.Legal, "fleet epoch %d: majority verdict illegal (agree %d, quorum %v)", st.Epoch, st.Agree, st.Quorum)
		for k := 0; k < ringRuns; k++ {
			t.do("cluster", "RingFleet.Run", cluster.DefaultRelayEvery, func() { f.ring.Run(cluster.DefaultRelayEvery) })
			f.ringSamples++
			if f.legal(t) {
				f.ringLegal++
			}
		}
	}
	if t.traced {
		// The pool's fan-out and join cost alone, once per traced round.
		t.do("pool", "pool.Run", 0, func() { pool.Run(fleetReplicas, func(int) {}) })
	}
}

func (f *fleetInst) legal(t *track) bool {
	var ok bool
	t.do("cluster", "RingFleet.Legal", 0, func() { ok = f.ring.Legal() })
	return ok
}

func (f *fleetInst) snapshot(sn *snapshot) {
	sum := f.clu.Summary()
	for _, st := range f.clu.Stats {
		sn.digest("epoch %d %d %v %016x %v\n", st.Epoch, st.Agree, st.Legal, st.Digest, st.Evicted)
	}
	sn.digest("summary %+v\n", sum)
	for i := 0; i < f.ring.Nodes(); i++ {
		sn.machine(f.ring.Replica(i).M.Stats)
	}
	sn.digest("ring %v %d\n", f.ring.Ring(), f.ringLegal)
	sn.add("cluster.epochs", float64(sum.Epochs))
	sn.add("cluster.legal_epochs", float64(sum.LegalEpochs))
	sn.add("cluster.evictions", float64(sum.Evictions))
	sn.add("cluster.fresh_boots", float64(sum.FreshBoots))
	sn.add("cluster.ring_samples", float64(f.ringSamples))
	sn.add("cluster.ring_legal", float64(f.ringLegal))
	sn.add("obs.events", float64(f.col.Len()))
	sn.add("obs.retained_events", float64(f.col.Len()))
}

func (f *fleetInst) close() {}
