package dev

import (
	"slices"

	"ssos/internal/machine"
	"ssos/internal/mem"
)

// Checkpointer models the stable-storage checkpointing used by the
// systems the paper's related-work section points at (Windows XP
// restore points, EROS/KeyKOS checkpointing): a hardware-assisted
// snapshot of a memory region taken periodically, restorable on
// command through an I/O port.
//
// The device is deliberately generous to the checkpointing approach:
// snapshots and restores are instantaneous and the snapshot store is
// as incorruptible as ROM. Even so, the approach is not
// self-stabilizing — a corruption that survives until the next
// snapshot is faithfully checkpointed and then faithfully restored,
// forever (experiment E9). That is the paper's point: "none of the
// above suggest a design for an operating system that can withstand
// any combination of transient-faults".
type Checkpointer struct {
	// Region is the memory range snapshotted and restored.
	Region mem.Region
	// Period is the interval in ticks between snapshots.
	Period uint32
	// Counter is the countdown register (clamped like the watchdog's).
	Counter uint32

	// Snapshots and Restores count device operations.
	Snapshots uint64
	Restores  uint64

	shadow  []byte
	hasSnap bool
	bus     *mem.Bus
}

// Checkpointer I/O commands (written to the device port).
const (
	// CheckpointCmdRestore rolls the region back to the last snapshot.
	CheckpointCmdRestore = 1
	// CheckpointCmdSnapshot forces an immediate snapshot.
	CheckpointCmdSnapshot = 2
)

// NewCheckpointer returns a checkpointer for the region, snapshotting
// every period ticks.
func NewCheckpointer(bus *mem.Bus, region mem.Region, period uint32) *Checkpointer {
	if period == 0 {
		period = 1
	}
	return &Checkpointer{
		Region:  region,
		Period:  period,
		Counter: period - 1,
		bus:     bus,
	}
}

// Fork returns a checkpointer that continues c on bus (the fork of c's
// bus): the countdown, the counters and the snapshot carry over, the
// snapshot as a copy of its own.
func (c *Checkpointer) Fork(bus *mem.Bus) *Checkpointer {
	f := *c
	f.bus = bus
	f.shadow = slices.Clone(c.shadow)
	return &f
}

// Tick advances the snapshot countdown.
func (c *Checkpointer) Tick(*machine.Machine) {
	if c.Period == 0 {
		c.Period = 1
	}
	if c.Counter >= c.Period {
		c.Counter = c.Period - 1
	}
	if c.Counter == 0 {
		c.snapshot()
		c.Counter = c.Period - 1
		return
	}
	c.Counter--
}

// Quiet reports how many upcoming ticks only count down (the
// machine.Ticker contract). The device's port commands snapshot and
// restore the region but never read or reload the counter, so a port
// write inside a batch cannot observe skipped ticks.
func (c *Checkpointer) Quiet() uint32 { return quiet(c.Period, c.Counter) }

// Skip applies k ≤ Quiet() countdown-only ticks at once.
func (c *Checkpointer) Skip(k uint32) { c.Counter -= k }

func (c *Checkpointer) snapshot() {
	if c.shadow == nil {
		c.shadow = make([]byte, c.Region.Size)
	}
	for i := uint32(0); i < c.Region.Size; i++ {
		c.shadow[i] = c.bus.Peek(c.Region.Start + i)
	}
	c.hasSnap = true
	c.Snapshots++
}

// restore rolls the region back to the last snapshot (no-op until the
// first snapshot exists).
func (c *Checkpointer) restore() {
	if !c.hasSnap {
		return
	}
	for i := uint32(0); i < c.Region.Size; i++ {
		c.bus.PokeRAM(c.Region.Start+i, c.shadow[i])
	}
	c.Restores++
}

// In reports whether a snapshot exists (1) or not (0).
func (c *Checkpointer) In(uint16) uint16 {
	if c.hasSnap {
		return 1
	}
	return 0
}

// Out executes a device command.
func (c *Checkpointer) Out(_ uint16, v uint16) {
	switch v {
	case CheckpointCmdRestore:
		c.restore()
	case CheckpointCmdSnapshot:
		c.snapshot()
	}
}
