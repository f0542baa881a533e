package dev

import (
	"math"
	"slices"
)

// PortWrite is one value written by the guest to an output port,
// stamped with the machine step at which it happened.
type PortWrite struct {
	Step  uint64
	Value uint16
}

// consoleChunk is the number of writes one chunk of a console's log
// holds; a bounded log's chunks hold no more than the writes it keeps.
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

	// last is the newest write; log holds the writes before it, all of
	// them or (Max > 0) at least the Max-1 newest. A one-write console
	// keeps nothing in its log.
	last  PortWrite
	log   writeLog
	total uint64
}

// NewConsole returns a console stamping writes with clock and keeping
// at most maxWrites entries (0 = unlimited).
func NewConsole(clock func() uint64, maxWrites int) *Console {
	return &Console{Clock: clock, Max: maxWrites}
}

// Fork returns a console that continues c, stamping writes with clock
// from here on: the retained writes and the counters carry over, the
// OnWrite hook does not. Neither console sees the other's later writes.
func (c *Console) Fork(clock func() uint64) *Console {
	return &Console{
		Clock: clock,
		Max:   c.Max,
		last:  c.last,
		log:   c.log.fork(c.Max > 0),
		total: c.total,
	}
}

// In reads as zero: the console is write-only.
func (c *Console) In(uint16) uint16 { return 0 }

// Out records the written value: the write it follows moves into the
// log, unless the console keeps one write only.
func (c *Console) Out(_ uint16, v uint16) {
	var step uint64
	if c.Clock != nil {
		step = c.Clock()
	}
	if c.total > 0 && c.Max != 1 {
		c.log.push(c.last, max(c.Max-1, 0))
	}
	c.last = PortWrite{Step: step, Value: v}
	c.total++
	if c.OnWrite != nil {
		c.OnWrite(step, v)
	}
}

// Writes returns the retained writes in order.
func (c *Console) Writes() []PortWrite {
	n := int(c.total - c.Dropped())
	out := make([]PortWrite, 0, n)
	if n == 0 {
		return out
	}
	return append(c.log.appendNewest(out, n-1), c.last)
}

// Total returns the number of writes ever made (including dropped).
func (c *Console) Total() uint64 { return c.total }

// Dropped returns how many old writes were discarded due to Max.
func (c *Console) Dropped() uint64 {
	if c.Max > 0 && c.total > uint64(c.Max) {
		return c.total - uint64(c.Max)
	}
	return 0
}

// Reset discards all recorded writes and counters.
func (c *Console) Reset() {
	c.last, c.log, c.total = PortWrite{}, writeLog{}, 0
}

// Last returns the most recent write, if any.
func (c *Console) Last() (PortWrite, bool) {
	return c.last, c.total > 0
}

// A writeLog holds writes in chunks of four-byte entries, each a
// write's value and its step gap since the write before it. A chunk's
// first write takes its step from the chunk's base, and a write whose
// gap is gapEscape or more (a long silence, or a clock that went back)
// takes it from the chunk's abs list instead, so each chunk decodes on
// its own and no write costs more than twelve bytes.
type writeLog struct {
	chunks []logChunk
	n      int    // entries held
	tail   uint64 // step of the newest entry
}

type logChunk struct {
	base uint64
	e    []logEntry
	abs  []uint64 // steps of the escaped entries, in order
}

type logEntry struct{ gap, value uint16 }

// gapEscape in an entry's gap marks a step held in its chunk's abs.
const gapEscape = math.MaxUint16

// push appends w. With keep > 0 the log is bounded: before it starts
// a chunk, it drops whole chunks from the front while the rest holds
// at least keep entries, and the new chunk reuses the last one dropped.
func (l *writeLog) push(w PortWrite, keep int) {
	i := len(l.chunks) - 1
	if i < 0 || len(l.chunks[i].e) == cap(l.chunks[i].e) {
		l.startChunk(w, keep)
		return
	}
	ch := &l.chunks[i]
	if gap := w.Step - l.tail; gap < gapEscape {
		ch.e = append(ch.e, logEntry{uint16(gap), w.Value})
	} else {
		ch.e = append(ch.e, logEntry{gapEscape, w.Value})
		ch.abs = append(ch.abs, w.Step)
	}
	l.tail = w.Step
	l.n++
}

// startChunk appends a chunk holding w, in a dropped chunk's storage if
// the log is bounded and holds one more chunk than it needs.
func (l *writeLog) startChunk(w PortWrite, keep int) {
	var spare logChunk
	for keep > 0 && len(l.chunks) > 0 && l.n-len(l.chunks[0].e) >= keep {
		l.n -= len(l.chunks[0].e)
		spare = l.chunks[0]
		l.chunks = append(l.chunks[:0], l.chunks[1:]...)
	}
	e := spare.e[:0]
	if cap(e) == 0 {
		size := consoleChunk
		if keep > 0 && keep < size {
			size = keep
		}
		e = make([]logEntry, 0, size)
	}
	l.chunks = append(l.chunks, logChunk{base: w.Step, e: append(e, logEntry{0, w.Value}), abs: spare.abs[:0]})
	l.tail = w.Step
	l.n++
}

// appendNewest decodes the newest n entries onto out.
func (l *writeLog) appendNewest(out []PortWrite, n int) []PortWrite {
	skip := l.n - n
	for _, ch := range l.chunks {
		if skip >= len(ch.e) {
			skip -= len(ch.e)
			continue
		}
		step, abs := ch.base, ch.abs
		for _, e := range ch.e[:skip] {
			step, abs = next(step, e, abs)
		}
		for _, e := range ch.e[skip:] {
			step, abs = next(step, e, abs)
			out = append(out, PortWrite{Step: step, Value: e.value})
		}
		skip = 0
	}
	return out
}

// next returns the step of entry e, which follows a write at step, and
// the escaped steps after e's.
func next(step uint64, e logEntry, abs []uint64) (uint64, []uint64) {
	if e.gap == gapEscape {
		return abs[0], abs[1:]
	}
	return step + uint64(e.gap), abs
}

// fork returns a log that continues l, which neither side's later
// pushes reach. An unbounded log shares its chunks: the fork's view of
// the last one ends at its length, so the fork's next push starts a
// chunk of its own and l's land where the fork cannot see them. A
// bounded log copies its chunks, because it reuses their storage as it
// drops them.
func (l *writeLog) fork(bounded bool) writeLog {
	f := writeLog{chunks: slices.Clone(l.chunks), n: l.n, tail: l.tail}
	for i := range f.chunks {
		ch := &f.chunks[i]
		if bounded {
			ch.e = append(make([]logEntry, 0, cap(ch.e)), ch.e...)
			ch.abs = slices.Clone(ch.abs)
		} else if i == len(f.chunks)-1 {
			ch.e, ch.abs = slices.Clip(ch.e), slices.Clip(ch.abs)
		}
	}
	return f
}
