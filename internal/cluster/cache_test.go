package cluster

import (
	"reflect"
	"testing"

	"ssos/internal/core"
)

// TestClusterDigestsWithDecodeCacheOnOff runs the same cluster twice —
// with the replicas on the superblock engine (the default) and on the
// reference interpreter (SetDecodeCache(false)) — and requires
// identical voting history: every EpochStat (including the
// winning state digests) and every reconfiguration event. Replica
// digests summarize full machine state, so this pins the engines'
// bit-identical-execution guarantee at cluster scale, under the
// cluster's own strike schedule and per-replica fault injectors. The
// interpreter run must run every step on the interpreter: a clone a
// strike splits off mid-epoch stays on its source's engine.
func TestClusterDigestsWithDecodeCacheOnOff(t *testing.T) {
	const epochs = 6
	run := func(interp bool) ([]EpochStat, []Event) {
		c := MustNew(Config{
			Replicas: 3,
			Approach: core.ApproachReinstall,
			Seed:     77,
			Faults:   ModeBitflip,
		})
		clones := 0
		for e := 0; e < epochs; e++ {
			// A fleet-wide fresh boot comes back on a new machine on
			// the default engine, so re-apply the engine choice at
			// every epoch boundary.
			if interp {
				for _, r := range c.replicas {
					r.host.sys.M.SetDecodeCache(false)
				}
			}
			c.Run(1)
			if !interp {
				continue
			}
			for _, r := range c.replicas {
				m := r.host.sys.M
				if m.DecodeCache() || m.Stats.Blocks != 0 || m.Stats.BlockInstrs != 0 {
					t.Fatalf("epoch %d: replica %d's machine ran %d instructions in %d superblocks",
						e, r.id, m.Stats.BlockInstrs, m.Stats.Blocks)
				}
				if len(r.host.members) == 1 {
					clones++
				}
			}
		}
		if interp && clones == 0 {
			t.Fatal("no replica ever ran on a clone: the engine check went untested")
		}
		return c.Stats, c.Events
	}

	statsSB, eventsSB := run(false)
	for i, st := range statsSB {
		if st.Digest == 0 {
			t.Fatalf("epoch %d: zero digest (no cluster output?)", i)
		}
	}
	stats, events := run(true)
	if !reflect.DeepEqual(statsSB, stats) {
		t.Fatalf("epoch stats diverged between superblock and interp:\n      sb: %+v\n  interp: %+v",
			statsSB, stats)
	}
	if !reflect.DeepEqual(eventsSB, events) {
		t.Fatalf("reconfiguration events diverged between superblock and interp:\n      sb: %+v\n  interp: %+v",
			eventsSB, events)
	}
}
