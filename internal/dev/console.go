package dev

import "slices"

// PortWrite is one value written by the guest to an output port,
// stamped with the machine step at which it happened.
type PortWrite struct {
	Step  uint64
	Value uint16
}

// consoleChunk is the allocation unit of the unbounded console log.
// Appending into fixed-capacity chunks keeps the per-write cost O(1)
// with no large re-copies: a growing flat slice would move the whole
// history on every growth step, which profiles as the dominant cost of
// long fault-free runs.
const consoleChunk = 1 << 12

// Console is an output-port device that records everything the guest
// writes. Guests use it for heartbeats and telemetry; monitors inspect
// the recorded stream to decide whether the system behaves according to
// its specification.
type Console struct {
	// Clock supplies the current step stamp; wire it to the machine's
	// step counter. A nil clock stamps zero.
	Clock func() uint64
	// Max bounds the number of retained writes; older writes are
	// dropped. Zero means unlimited.
	Max int
	// OnWrite, when non-nil, is invoked for every write after it is
	// recorded. The observability layer hooks here to derive events
	// from guest output (heartbeats, repair reports).
	OnWrite func(step uint64, v uint16)

	// Max == 0: chunked append-only log.
	chunks [][]PortWrite
	// Max > 0: fixed-size ring holding the newest Max writes; start
	// indexes the oldest entry once the ring is full.
	ring  []PortWrite
	start int

	total   uint64
	dropped uint64
}

// NewConsole returns a console stamping writes with clock and keeping
// at most maxWrites entries (0 = unlimited).
func NewConsole(clock func() uint64, maxWrites int) *Console {
	return &Console{Clock: clock, Max: maxWrites}
}

// Fork returns a console that continues c, stamping writes with clock
// from here on: the retained writes and the counters carry over, the
// OnWrite hook does not. Neither console sees the other's later writes.
// The chunks of an unbounded log are shared, not copied: the fork's
// view of the last one ends at its length, so the fork's next write
// starts a chunk of its own and c's appends land where the fork cannot
// see them.
func (c *Console) Fork(clock func() uint64) *Console {
	f := &Console{
		Clock:   clock,
		Max:     c.Max,
		chunks:  slices.Clone(c.chunks),
		ring:    slices.Clone(c.ring),
		start:   c.start,
		total:   c.total,
		dropped: c.dropped,
	}
	if n := len(f.chunks) - 1; n >= 0 {
		f.chunks[n] = slices.Clip(f.chunks[n])
	}
	return f
}

// In reads as zero: the console is write-only.
func (c *Console) In(uint16) uint16 { return 0 }

// Out records the written value.
func (c *Console) Out(_ uint16, v uint16) {
	var step uint64
	if c.Clock != nil {
		step = c.Clock()
	}
	w := PortWrite{Step: step, Value: v}
	if c.Max > 0 {
		if len(c.ring) < c.Max {
			c.ring = append(c.ring, w)
		} else {
			c.ring[c.start] = w
			c.start++
			if c.start == len(c.ring) {
				c.start = 0
			}
			c.dropped++
		}
	} else {
		n := len(c.chunks) - 1
		if n < 0 || len(c.chunks[n]) == cap(c.chunks[n]) {
			c.chunks = append(c.chunks, make([]PortWrite, 0, consoleChunk))
			n++
		}
		c.chunks[n] = append(c.chunks[n], w)
	}
	c.total++
	if c.OnWrite != nil {
		c.OnWrite(step, v)
	}
}

// retained returns the number of writes currently held.
func (c *Console) retained() int {
	if c.Max > 0 {
		return len(c.ring)
	}
	n := 0
	for _, ch := range c.chunks {
		n += len(ch)
	}
	return n
}

// Writes returns the retained writes in order.
func (c *Console) Writes() []PortWrite {
	out := make([]PortWrite, 0, c.retained())
	if c.Max > 0 {
		out = append(out, c.ring[c.start:]...)
		out = append(out, c.ring[:c.start]...)
		return out
	}
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// Total returns the number of writes ever made (including dropped).
func (c *Console) Total() uint64 { return c.total }

// Dropped returns how many old writes were discarded due to Max.
func (c *Console) Dropped() uint64 { return c.dropped }

// Reset discards all recorded writes and counters.
func (c *Console) Reset() {
	c.chunks = nil
	c.ring = nil
	c.start = 0
	c.total = 0
	c.dropped = 0
}

// Last returns the most recent write, if any.
func (c *Console) Last() (PortWrite, bool) {
	if c.Max > 0 {
		if len(c.ring) == 0 {
			return PortWrite{}, false
		}
		i := c.start - 1
		if i < 0 {
			i = len(c.ring) - 1
		}
		return c.ring[i], true
	}
	n := len(c.chunks) - 1
	if n < 0 {
		return PortWrite{}, false
	}
	ch := c.chunks[n]
	return ch[len(ch)-1], true
}
