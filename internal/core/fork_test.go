package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"ssos/internal/core"
	"ssos/internal/dev"
	"ssos/internal/fault"
	"ssos/internal/serve"
)

// forkFaults are the faults TestForkContinuesTheRun strikes before it
// forks: one that writes every RAM page, so both sides of the fork
// start out sharing all of memory, and one that corrupts the CPU.
var forkFaults = []string{"all-ram", "cpu-blast"}

// TestForkContinuesTheRun holds System.Fork to its contract on every
// catalog image: a fork taken mid-run, after a fault, steps exactly as
// an unforked twin with the same history does, and neither side's
// stores reach the other. Twin and source are built, stepped and struck
// alike; the source forks. After the source steps N steps the fork's
// memory must still be what it held at the fork, and after the fork
// steps N steps the source's must still be what the source left; then
// the twin steps N steps too, and all three must agree on the CPU, the
// architectural step counters, every byte of memory, every device
// register and counter, and every console's total and retained writes.
// The block engine's telemetry is compared between source and twin
// only: a fork starts with an empty block table, so it enters blocks
// where its source continued one.
func TestForkContinuesTheRun(t *testing.T) {
	const n = 70000 // past a default watchdog period
	for _, img := range serve.Images() {
		for _, kind := range forkFaults {
			t.Run(img.Name+"/"+kind, func(t *testing.T) {
				build := func() *core.System {
					s := core.MustNew(img.Cfg)
					s.Run(40000)
					if err := serve.InjectFault(s, fault.NewInjector(s.M, 3), kind); err != nil {
						t.Fatal(err)
					}
					s.Run(12345)
					return s
				}
				twin, src := build(), build()
				fork := src.Fork()
				atFork := src.M.Bus.Snapshot()
				src.Run(n)
				if !bytes.Equal(fork.M.Bus.Snapshot(), atFork) {
					t.Fatal("the source's stores reached its fork")
				}
				ran := src.M.Bus.Snapshot()
				fork.Run(n)
				if !bytes.Equal(src.M.Bus.Snapshot(), ran) {
					t.Fatal("the fork's stores reached its source")
				}
				twin.Run(n)
				if src.M.Stats != twin.M.Stats {
					t.Fatalf("source and twin diverged:\n source %v\n twin   %v", src.M.Stats, twin.M.Stats)
				}
				for _, s := range []*core.System{src, fork} {
					sameRun(t, s, twin)
				}
			})
		}
	}
}

// sameRun fails unless s and twin hold the same machine and device
// state.
func sameRun(t *testing.T, s, twin *core.System) {
	t.Helper()
	if s.M.CPU != twin.M.CPU {
		t.Fatalf("CPU:\n %v\n twin %v", &s.M.CPU, &twin.M.CPU)
	}
	if s.M.Stats.Arch() != twin.M.Stats.Arch() {
		t.Fatalf("stats:\n %v\n twin %v", s.M.Stats, twin.M.Stats)
	}
	if s.M.NMIPending() != twin.M.NMIPending() || s.M.Bus.ROMWriteCount != twin.M.Bus.ROMWriteCount {
		t.Fatal("latched NMI or ROM-write count differs")
	}
	if !bytes.Equal(s.M.Bus.Snapshot(), twin.M.Bus.Snapshot()) {
		t.Fatal("memory differs")
	}
	devices := func(s *core.System) []any {
		return []any{s.Watchdog, s.Timer, s.Silence, s.Checkpoint}
	}
	for i, d := range devices(s) {
		if w := devices(twin)[i]; !sameDevice(d, w) {
			t.Fatalf("device %T differs:\n %+v\n twin %+v", d, d, w)
		}
	}
	consoles := func(s *core.System) []*dev.Console {
		return append([]*dev.Console{s.Heartbeat, s.Repairs}, s.ProcBeats...)
	}
	tc := consoles(twin)
	for i, c := range consoles(s) {
		if (c == nil) != (tc[i] == nil) {
			t.Fatalf("console %d present on one side only", i)
		}
		if c == nil {
			continue
		}
		if c.Total() != tc[i].Total() || c.Dropped() != tc[i].Dropped() || !reflect.DeepEqual(c.Writes(), tc[i].Writes()) {
			t.Fatalf("console %d: %d writes (%d dropped), twin %d (%d)", i, c.Total(), c.Dropped(), tc[i].Total(), tc[i].Dropped())
		}
	}
}

// sameDevice compares two devices' exported registers and counters.
func sameDevice(a, b any) bool {
	switch a := a.(type) {
	case *dev.Watchdog:
		return a == nil && b.(*dev.Watchdog) == nil || a != nil && *a == *b.(*dev.Watchdog)
	case *dev.Timer:
		return a == nil && b.(*dev.Timer) == nil || a != nil && *a == *b.(*dev.Timer)
	case *dev.SilenceWatchdog:
		w := b.(*dev.SilenceWatchdog)
		return a == nil && w == nil ||
			a != nil && a.SilenceLimit == w.SilenceLimit && a.Counter == w.Counter && a.Fires == w.Fires
	case *dev.Checkpointer:
		c := b.(*dev.Checkpointer)
		return a == nil && c == nil ||
			a != nil && a.Region == c.Region && a.Period == c.Period && a.Counter == c.Counter &&
				a.Snapshots == c.Snapshots && a.Restores == c.Restores && a.In(0) == c.In(0)
	}
	return false
}
