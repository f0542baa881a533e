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
// cluster's own strike schedule and per-replica fault injectors.
func TestClusterDigestsWithDecodeCacheOnOff(t *testing.T) {
	const epochs = 6
	run := func(interp bool) ([]EpochStat, []Event) {
		c := MustNew(Config{
			Replicas: 3,
			Approach: core.ApproachReinstall,
			Seed:     77,
			Faults:   ModeBitflip,
		})
		for e := 0; e < epochs; e++ {
			// Reinstalled/evicted replicas come back as fresh machines
			// on the default engine, so re-apply the engine choice at
			// every epoch boundary.
			if interp {
				for _, r := range c.replicas {
					r.sys.M.SetDecodeCache(false)
				}
			}
			c.Run(1)
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
