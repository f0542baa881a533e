package dev

import (
	"slices"
	"testing"
	"unsafe"
)

// refConsole is a reference copy of the console before its compact
// log: a ring of 16-byte writes when bounded, chunks of 16-byte writes
// otherwise. FuzzConsoleLog holds Console to it.
type refConsole struct {
	Clock   func() uint64
	Max     int
	chunks  [][]PortWrite
	ring    []PortWrite
	start   int
	total   uint64
	dropped uint64
}

func (c *refConsole) Fork(clock func() uint64) *refConsole {
	f := &refConsole{
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

func (c *refConsole) Out(_ uint16, v uint16) {
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
}

func (c *refConsole) Writes() []PortWrite {
	var out []PortWrite
	if c.Max > 0 {
		out = append(out, c.ring[c.start:]...)
		return append(out, c.ring[:c.start]...)
	}
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

func (c *refConsole) Reset() {
	c.chunks, c.ring, c.start, c.total, c.dropped = nil, nil, 0, 0, 0
}

func (c *refConsole) Last() (PortWrite, bool) {
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

// Operations of FuzzConsoleLog: one byte each, then an argument byte.
// The low three bits are the kind, the next two pick the console pair,
// the top three a burst length from consoleBursts.
const (
	opFork = iota
	opReset
	opGap0     // writes at the same step
	opGapSmall // gaps of 1 to 256 steps
	opBeat     // 43-step gaps
	opGap16    // gaps of 0xFFFE to 0x100FD steps, across the escape
	opGap32    // gaps of 2^32 steps and more
	opBack     // a clock that goes back 1 to 256 steps
)

var (
	consoleMaxes  = []int{0, 1, 2, consoleChunk - 1, consoleChunk + 1, 4096, 3*consoleChunk + 7}
	consoleBursts = []int{1, 2, 3, 43, 500, consoleChunk - 1, consoleChunk + 1, 9000}
)

// FuzzConsoleLog drives Console and the reference copy in lockstep,
// from one console out through its forks, and compares every result
// after every operation: arbitrary step gaps (zero, small, across the
// 16-bit escape, past 2^32, backwards), retention bounds near a chunk's
// size and one of several chunks, forks at any point with both sides
// writing on, and resets.
func FuzzConsoleLog(f *testing.F) {
	op := func(kind, pair, burst int) byte { return byte(kind | pair<<3 | burst<<5) }
	f.Add(uint8(0), []byte{op(opBeat, 0, 3), 1, op(opGap16, 0, 0), 0, op(opGap16, 0, 1), 1,
		op(opBeat, 0, 2), 7, op(opGap32, 0, 1), 5, op(opBack, 0, 0), 9, op(opBeat, 0, 3), 0})
	f.Add(uint8(5), []byte{op(opBeat, 0, 7), 0, op(opFork, 0, 0), 0, op(opBeat, 0, 7), 0,
		op(opBeat, 1, 6), 0, op(opGap16, 1, 3), 1})
	f.Add(uint8(3), []byte{op(opBeat, 0, 6), 0, op(opFork, 0, 0), 0, op(opGap32, 0, 6), 2,
		op(opBeat, 1, 5), 0, op(opReset, 1, 0), 0, op(opBeat, 1, 2), 0})
	f.Add(uint8(4), []byte{op(opGapSmall, 0, 7), 200, op(opFork, 0, 0), 0, op(opBack, 1, 6), 3,
		op(opGap0, 0, 4), 0})
	f.Add(uint8(0), []byte{op(opBeat, 0, 6), 0, op(opBeat, 0, 0), 0, op(opFork, 0, 0), 0,
		op(opBeat, 0, 4), 0, op(opBeat, 1, 4), 0, op(opFork, 1, 0), 0, op(opGap16, 2, 5), 4})
	f.Add(uint8(1), []byte{op(opBeat, 0, 2), 0, op(opFork, 0, 0), 0, op(opBack, 1, 1), 0,
		op(opReset, 0, 0), 0, op(opGap32, 0, 0), 0})
	f.Add(uint8(2), []byte{op(opBeat, 0, 4), 0, op(opFork, 0, 0), 0, op(opGap16, 0, 3), 1,
		op(opBeat, 1, 3), 0})
	f.Add(uint8(6), []byte{op(opBeat, 0, 7), 0, op(opBeat, 0, 7), 0, op(opFork, 0, 0), 0,
		op(opGap16, 0, 5), 3, op(opBeat, 1, 7), 0, op(opBeat, 1, 4), 0})
	f.Add(uint8(6), []byte{op(opBeat, 0, 6), 0, op(opBeat, 0, 6), 0, op(opBeat, 0, 6), 0,
		op(opBeat, 0, 6), 0, op(opFork, 0, 0), 0, op(opBeat, 0, 6), 0})
	f.Fuzz(func(t *testing.T, maxSel uint8, ops []byte) {
		type pair struct {
			step uint64
			c    *Console
			ref  *refConsole
		}
		bound := consoleMaxes[int(maxSel)%len(consoleMaxes)]
		p0 := &pair{}
		p0.c = NewConsole(func() uint64 { return p0.step }, bound)
		p0.ref = &refConsole{Clock: func() uint64 { return p0.step }, Max: bound}
		pairs := []*pair{p0}
		check := func(i int, what string) {
			for j, p := range pairs {
				if got, want := p.c.Writes(), p.ref.Writes(); !slices.Equal(got, want) {
					t.Fatalf("op %d (%s): pair %d Writes: %d writes, want %d\n got %v\nwant %v",
						i, what, j, len(got), len(want), tailOf(got), tailOf(want))
				}
				w, ok := p.c.Last()
				rw, rok := p.ref.Last()
				if w != rw || ok != rok || p.c.Total() != p.ref.total || p.c.Dropped() != p.ref.dropped {
					t.Fatalf("op %d (%s): pair %d Last %v %v Total %d Dropped %d, want %v %v %d %d",
						i, what, j, w, ok, p.c.Total(), p.c.Dropped(), rw, rok, p.ref.total, p.ref.dropped)
				}
			}
		}
		budget := 1 << 15
		for i := 0; i+1 < len(ops) && budget > 0; i += 2 {
			kind, arg := int(ops[i]&7), uint64(ops[i+1])
			p := pairs[int(ops[i]>>3&3)%len(pairs)]
			switch kind {
			case opFork:
				if len(pairs) == 4 {
					continue
				}
				q := &pair{step: p.step}
				q.c = p.c.Fork(func() uint64 { return q.step })
				q.ref = p.ref.Fork(func() uint64 { return q.step })
				pairs = append(pairs, q)
			case opReset:
				p.c.Reset()
				p.ref.Reset()
			default:
				gap := [...]uint64{opGap0: 0, opGapSmall: 1 + arg, opBeat: 43, opGap16: 0xFFFE + arg,
					opGap32: 1<<32 + arg<<24, opBack: -(1 + arg)}[kind]
				n := min(consoleBursts[ops[i]>>5], budget)
				budget -= n
				for k := 0; k < n; k++ {
					p.step += gap
					v := uint16(arg) + uint16(k)
					p.c.Out(0, v)
					p.ref.Out(0, v)
					if w, _ := p.c.Last(); w != (PortWrite{p.step, v}) || p.c.Total() != p.ref.total {
						t.Fatalf("op %d write %d: Last %v Total %d, want %v %d", i, k, w, p.c.Total(), PortWrite{p.step, v}, p.ref.total)
					}
					if need := len(p.ref.ring) - 1; p.c.Max > 0 && p.c.log.n < need {
						t.Fatalf("op %d write %d: the log holds %d writes, Writes needs %d", i, k, p.c.log.n, need)
					}
				}
			}
			check(i, []string{"fork", "reset", "gap 0", "small gaps", "beats", "16-bit gaps", "32-bit gaps", "clock back"}[kind])
		}
	})
}

// tailOf returns at most the last four writes of w, for messages.
func tailOf(w []PortWrite) []PortWrite { return w[max(len(w)-4, 0):] }

// footprint returns the bytes a log holds: its chunk headers, and each
// chunk's entries and escaped steps.
func (l *writeLog) footprint() int {
	n := cap(l.chunks) * int(unsafe.Sizeof(logChunk{}))
	for _, ch := range l.chunks {
		n += cap(ch.e)*int(unsafe.Sizeof(logEntry{})) + cap(ch.abs)*8
	}
	return n
}

// TestConsoleLogBound writes a heartbeat stream (a beat every 43 steps,
// each one more than the last) and checks that the log keeps four bytes
// a write plus a fixed overhead per chunk: unbounded, and bounded at
// steady's 32,768 writes, where the log holds at most a chunk more than
// it keeps.
func TestConsoleLogBound(t *testing.T) {
	if s := unsafe.Sizeof(logEntry{}); s != 4 {
		t.Fatalf("a log entry is %d bytes, want 4", s)
	}
	perChunk := 2 * int(unsafe.Sizeof(logChunk{}))
	for _, tc := range []struct{ max, writes int }{
		{0, 8*consoleChunk + 1},
		{32768, 100_000},
	} {
		var step uint64
		c := NewConsole(func() uint64 { return step }, tc.max)
		for i := 0; i < tc.writes; i++ {
			step += 43
			c.Out(0, uint16(i+1))
		}
		held, chunks := c.log.footprint(), len(c.log.chunks)
		limit := 4*(tc.writes-1) + perChunk*chunks
		if tc.max > 0 {
			limit = 4*(tc.max+consoleChunk) + perChunk*chunks
		}
		if held > limit {
			t.Errorf("Max %d, %d writes: the log holds %d bytes in %d chunks, want at most %d", tc.max, tc.writes, held, chunks, limit)
		}
		w := c.Writes()
		if last := w[len(w)-1]; last != (PortWrite{43 * uint64(tc.writes), uint16(tc.writes)}) {
			t.Errorf("Max %d: newest write %v", tc.max, last)
		}
	}
}

// TestConsoleOutAllocs pins what a write allocates once a console is
// warm: nothing on a one-write console or a bounded one, whose log
// reuses a dropped chunk's storage, and one chunk per chunk of writes
// on an unbounded one.
func TestConsoleOutAllocs(t *testing.T) {
	var step uint64
	beats := func(c *Console, n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				step += 43
				c.Out(0, uint16(step))
			}
		}
	}
	for _, bound := range []int{1, 4096} {
		c := NewConsole(func() uint64 { return step }, bound)
		beats(c, 2*consoleChunk)()
		if a := testing.AllocsPerRun(1, beats(c, 3*consoleChunk)); a != 0 {
			t.Errorf("Max %d: %v allocations over %d writes, want 0", bound, a, 3*consoleChunk)
		}
	}
	c := NewConsole(func() uint64 { return step }, 0)
	if a := testing.AllocsPerRun(64, beats(c, consoleChunk)); a > 1 {
		t.Errorf("unbounded: %v allocations a chunk of writes, want at most 1", a)
	}
}
