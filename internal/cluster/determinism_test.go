package cluster

import (
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"ssos/internal/core"
	"ssos/internal/pool"
)

// Same seed, same replica count, same fault schedule: byte-identical
// vote tallies and eviction logs, run after run. Replicas execute in
// parallel across GOMAXPROCS, so this pins down that goroutine
// scheduling cannot leak into results — the same guarantee the shared
// pool documents for the experiment harness.
func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{
		Replicas:   5,
		Approach:   core.ApproachReinstall,
		Faults:     ModeOSBlast,
		StrikeProb: 0.3,
		Seed:       123,
	}
	run := func() string {
		c := MustNew(cfg)
		c.Run(8)
		return c.RenderLog()
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("two runs with identical configuration diverged:\n--- first\n%s--- second\n%s", first, second)
	}
}

// Scheduling independence, the hard way: the same configuration run on
// one, two and five pool workers must agree byte for byte — the vote
// log, and after every epoch each replica machine's CPU, step count and
// all of its RAM. Besides a blast fleet, the configurations pin the
// struck epoch's segments: a hand-placed schedule with two strikes on
// one replica, a same-offset pair on two members of one machine,
// strikes at offset 0 and past the epoch's end and a no-op strike, and
// independent strikes on a 9-replica fleet, so clones split at many
// offsets step beside their sources.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	steps := DefaultEpochSteps
	configs := []Config{
		{Replicas: 7, Approach: core.ApproachMonitor, Faults: ModeBlast, Seed: 99},
		{Replicas: 5, Approach: core.ApproachReinstall, Seed: 5, Schedule: []Strike{
			{Epoch: 1, Replica: 2, Offset: 4000, Mode: ModeOSBlast},
			{Epoch: 1, Replica: 2, Offset: 21000, Mode: ModeCPUBlast},
			{Epoch: 1, Replica: 0, Offset: 9000, Mode: ModeBitflip},
			{Epoch: 1, Replica: 4, Offset: 9000, Mode: ModeOSBlast},
			{Epoch: 2, Replica: 1, Offset: 0, Mode: ModeCPUBlast},
			{Epoch: 2, Replica: 3, Offset: 17000, Mode: ModeNone},
			{Epoch: 3, Replica: 3, Offset: steps + 500, Mode: ModeBlast},
			{Epoch: 3, Replica: 1, Offset: 30000, Mode: ModeOSBlast},
			{Epoch: 4, Replica: 4, Offset: 12000, Mode: ModeOSBlast},
			{Epoch: 4, Replica: 3, Offset: 12000, Mode: ModeOSBlast},
		}},
		{Replicas: 9, Approach: core.ApproachReinstall, Faults: ModeOSBlast, StrikeProb: 0.35, Seed: 17},
	}
	run := func(cfg Config, workers int) string {
		defer func(prev int) { pool.Workers = prev }(pool.Workers)
		pool.Workers = workers
		c := MustNew(cfg)
		var b strings.Builder
		for range 6 {
			c.Run(1)
			for _, r := range c.replicas {
				m := r.host.sys.M
				h := crc32.NewIEEE()
				fmt.Fprintf(h, "%+v %d", m.CPU, m.Stats.Steps)
				h.Write(m.Bus.Snapshot())
				fmt.Fprintf(&b, "epoch %d replica %d machine %08x\n", c.Epoch(), r.id, h.Sum32())
			}
		}
		return c.RenderLog() + b.String()
	}
	for i, cfg := range configs {
		serial := run(cfg, 1)
		for _, workers := range []int{2, 5} {
			if got := run(cfg, workers); got != serial {
				t.Fatalf("config %d: %d workers leaked into results:\n--- 1 worker\n%s--- %d workers\n%s",
					i, workers, serial, workers, got)
			}
		}
	}
}
