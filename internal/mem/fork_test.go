package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// twinSide is one bus of TestForkMatchesFlatModel with the flat model
// of what it must hold.
type twinSide struct {
	b         *Bus
	m         []byte
	romWrites uint64
}

// fixedROMs is a hand-made ROM layout: regions at word and page edges
// and at the top of the address space, all on mixed pages.
var fixedROMs = []Region{
	{Start: 0x10040, Size: 16}, // word-aligned
	{Start: 0x100FF, Size: 2},  // across a page edge
	{Start: 0x10200, Size: 1},  // a page's first byte
	{Start: 0x103A5, Size: 16}, // mid-word
	{Start: 0xFFFFE, Size: 2},  // the top of the address space
}

// romLayout returns a random ROM layout, in address order: one region
// that starts and ends mid-page (perhaps pages apart), two regions in
// one page with RAM around and between them, two that fill a page
// between them, whole pages, and a region that ends at the top of the
// address space. The first four sit in random order with random gaps
// of whole pages between them.
func romLayout(rng *rand.Rand) []Region {
	var out []Region
	add := func(start, size uint32) { out = append(out, Region{Name: "rom", Start: start, Size: size}) }
	a := uint32(1+rng.Intn(8)) << 16
	for _, shape := range rng.Perm(4) {
		a += uint32(rng.Intn(3)) << PageShift
		switch shape {
		case 0: // starts and ends mid-page
			start := a + 1 + uint32(rng.Intn(PageSize-1))
			size := 1 + uint32(rng.Intn(3*PageSize))
			if (start+size)&pageMask == 0 {
				size++
			}
			add(start, size)
			a = (start+size)&^pageMask + PageSize
		case 1: // two regions in one page
			o1 := 1 + uint32(rng.Intn(100))
			n1 := 1 + uint32(rng.Intn(50))
			o2 := o1 + n1 + 1 + uint32(rng.Intn(50))
			add(a+o1, n1)
			add(a+o2, 1+uint32(rng.Intn(int(PageSize-1-o2))))
			a += PageSize
		case 2: // two regions that fill a page between them
			cut := 1 + uint32(rng.Intn(PageSize-1))
			add(a, cut)
			add(a+cut, PageSize-cut)
			a += PageSize
		default: // whole pages
			n := uint32(1+rng.Intn(3)) << PageShift
			add(a, n)
			a += n
		}
	}
	n := 1 + uint32(rng.Intn(3*PageSize/2))
	add(AddrSpace-n, n)
	return out
}

// TestForkMatchesFlatModel holds a paged bus and its fork against two
// flat []byte models of the documented semantics, over fixedROMs and
// four random romLayouts. On each, the bus's, the fork's and the fork
// of the fork's InROM must match the layout at every address. Random
// StoreByte, StoreWord, CopyForward, WriteRAM, PokeRAM and Poke calls
// land on either side, before and after the fork and after a second
// fork of the fork; addresses cluster around the ROM regions' edges
// and on the last byte of their pages, on page offset 255 and at the
// top of the address space, and values are drawn from four, so many
// stores are silent. After every call:
//
//   - the written side's pages around the call match its model, and
//     every few hundred calls all of memory matches on both sides;
//   - the other side's generations, stamp, ROM-write count and memory
//     did not move: a store on one side never shows on the other;
//   - a generation moved if and only if the call's rule says so: a
//     change to a byte of its page for the silent calls (a word store
//     that changes either byte moves both its pages), any write for
//     Poke and PokeRAM, nothing for a refused store;
//   - the stamp moved if and only if some generation did.
func TestForkMatchesFlatModel(t *testing.T) {
	layouts := [][]Region{fixedROMs}
	rng := rand.New(rand.NewSource(11))
	for range 4 {
		layouts = append(layouts, romLayout(rng))
	}
	for i, roms := range layouts {
		t.Run(fmt.Sprintf("layout%d", i), func(t *testing.T) {
			trials := 6000
			if i == 0 {
				trials = 30000
			}
			checkForkModel(t, roms, rand.New(rand.NewSource(7+int64(i))), trials)
		})
	}
}

// checkForkModel is TestForkMatchesFlatModel on one ROM layout, with
// the given number of calls after the first fork.
func checkForkModel(t *testing.T, roms []Region, rng *rand.Rand, trials int) {
	bus := NewBus()
	bus.SetROMWritePolicy(ROMWriteFault)
	for _, r := range roms {
		img := make([]byte, r.Size)
		for i := range img {
			img[i] = 0xE0 + byte(i)
		}
		if _, err := bus.AddROM("rom", r.Start, img); err != nil {
			t.Fatal(err)
		}
	}
	rom := func(a uint32) bool {
		for _, r := range roms {
			if r.Contains(a & AddrMask) {
				return true
			}
		}
		return false
	}
	// checkROM holds b's InROM to the layout at every address, and at a
	// few beyond the address space, which wrap.
	checkROM := func(b *Bus, who string) {
		for a := uint32(0); a < AddrSpace; a++ {
			if got := b.InROM(a); got != rom(a) {
				t.Fatalf("%s: InROM(%#x) = %v, want %v", who, a, got, !got)
			}
		}
		for _, r := range roms {
			if !b.InROM(r.Start+AddrSpace) || b.InROM(r.Start-1+AddrSpace) != rom(r.Start-1) {
				t.Fatalf("%s: InROM does not wrap at %#x", who, r.Start)
			}
		}
	}
	checkROM(bus, "the bus")
	addr := func() uint32 {
		switch rng.Intn(6) {
		case 0:
			return uint32(rng.Intn(NumPages))<<PageShift | pageMask // page offset 255
		case 1:
			return AddrSpace - 1 - uint32(rng.Intn(600)) // the top
		case 2: // around a ROM region's edge
			r := roms[rng.Intn(len(roms))]
			e := r.Start
			if rng.Intn(2) == 0 {
				e = r.End()
			}
			if rng.Intn(4) == 0 {
				return (e - 1) | pageMask // the last byte of the edge's page
			}
			return e + uint32(rng.Intn(600)) - 300
		case 3:
			return uint32(rng.Intn(0x300)) // the bottom, where words wrap to
		default:
			return uint32(rng.Intn(AddrSpace))
		}
	}
	val := func() byte { return byte(rng.Intn(4)) }

	// op applies one random call to s and its model, and returns the
	// pages whose generations must move and the pages it touched.
	op := func(s *twinSide) (name string, moved, touched []uint32) {
		b, m := s.b, s.m
		page := func(a uint32) uint32 { return (a & AddrMask) >> PageShift }
		set := func(a uint32, v byte, always bool) {
			a &= AddrMask
			if m[a] != v || always {
				moved = append(moved, page(a))
			}
			m[a] = v
		}
		storeByte := func(a uint32, v byte) bool {
			if rom(a) {
				s.romWrites++
				return false
			}
			set(a, v, false)
			return true
		}
		a := addr()
		touched = []uint32{page(a), page(a + 1)}
		switch rng.Intn(6) {
		case 0:
			v := val()
			if got, want := b.StoreByte(a, v), storeByte(a, v); got != want {
				t.Fatalf("StoreByte(%#x) = %v, want %v", a, got, want)
			}
			return "StoreByte", moved, touched
		case 1:
			v := uint16(val()) | uint16(val())<<8
			a0, a1 := a&AddrMask, (a+1)&AddrMask
			var want bool
			if rom(a0) || rom(a1) {
				ok1 := storeByte(a0, byte(v))
				ok2 := storeByte(a1, byte(v>>8))
				want = ok1 && ok2
			} else {
				want = true
				if m[a0] != byte(v) || m[a1] != byte(v>>8) {
					m[a0], m[a1] = byte(v), byte(v>>8)
					moved = append(moved, page(a0), page(a1))
				}
			}
			if got := b.StoreWord(a, v); got != want {
				t.Fatalf("StoreWord(%#x) = %v, want %v", a, got, want)
			}
			return "StoreWord", moved, touched
		case 2:
			dst := a & AddrMask
			src := addr() & AddrMask
			if rng.Intn(2) == 0 {
				src = (dst + uint32(rng.Intn(600)) - 300) & AddrMask
			}
			n := uint32(rng.Intn(600))
			var want uint32
			for ; want < n; want++ {
				if (dst+want)>>PageShift != dst>>PageShift || src+want >= AddrSpace ||
					rom(dst+want) || src < dst && want == dst-src {
					break
				}
			}
			if got := b.CopyForward(dst, src, n); got != want {
				t.Fatalf("CopyForward(%#x, %#x, %d) = %d, want %d", dst, src, n, got, want)
			}
			changed := false
			for i := uint32(0); i < want; i++ {
				changed = changed || m[dst+i] != m[src+i]
				m[dst+i] = m[src+i]
			}
			if changed {
				moved = append(moved, page(dst))
			}
			touched = append(touched, page(src), page(src+PageSize))
			return "CopyForward", moved, touched
		case 3:
			a &= AddrMask
			w := make([]byte, min(uint32(rng.Intn(3*PageSize)), AddrSpace-a))
			for i := range w {
				w[i] = val()
			}
			b.WriteRAM(a, w)
			for i, v := range w {
				if x := a + uint32(i); !rom(x) && m[x] != v {
					m[x] = v
					if p := page(x); len(moved) == 0 || moved[len(moved)-1] != p {
						moved = append(moved, p)
					}
				}
			}
			for x := a; x < a+uint32(len(w)); x += PageSize - x&pageMask {
				touched = append(touched, page(x))
			}
			return "WriteRAM", moved, touched
		case 4:
			v := val()
			want := !rom(a)
			if want {
				set(a, v, true)
			}
			if got := b.PokeRAM(a, v); got != want {
				t.Fatalf("PokeRAM(%#x) = %v, want %v", a, got, want)
			}
			return "PokeRAM", moved, touched
		default:
			v := val()
			b.Poke(a, v)
			set(a, v, true)
			return "Poke", moved, touched
		}
	}

	// check compares s's pages with its model.
	check := func(s *twinSide, who string, pages []uint32, trial int) {
		for _, p := range pages {
			p &= NumPages - 1
			lo := p << PageShift
			if got := s.b.CopyOut(lo, PageSize); !bytes.Equal(got, s.m[lo:lo+PageSize]) {
				t.Fatalf("trial %d: %s page %#x differs from its model", trial, who, p)
			}
		}
		if s.b.ROMWriteCount != s.romWrites {
			t.Fatalf("trial %d: %s ROMWriteCount = %d, want %d", trial, who, s.b.ROMWriteCount, s.romWrites)
		}
	}
	full := func(s *twinSide, who string, trial int) {
		if !bytes.Equal(s.b.Snapshot(), s.m) {
			t.Fatalf("trial %d: %s memory differs from its model", trial, who)
		}
	}

	var sides [2]*twinSide
	sides[0] = &twinSide{b: bus, m: bus.Snapshot()}
	for range 2000 {
		op(sides[0]) // the source writes pages of its own before the fork
	}
	fork := func(from *twinSide) *twinSide {
		f := &twinSide{b: from.b.Fork(), m: slices.Clone(from.m), romWrites: from.romWrites}
		if *f.b.PageGens() != *from.b.PageGens() || *f.b.WriteStamp() != *from.b.WriteStamp() {
			t.Fatal("Fork did not carry over the generations and the stamp")
		}
		return f
	}
	sides[1] = fork(sides[0])
	full(sides[1], "fork", 0)
	checkROM(sides[0].b, "the source after the fork")
	checkROM(sides[1].b, "the fork")
	for trial := 1; trial <= trials; trial++ {
		if trial == trials/2 {
			// Fork the fork: the source side now shares its pages with a
			// bus that itself shares pages with the first source.
			sides[0] = fork(sides[1])
			checkROM(sides[0].b, "the fork of the fork")
		}
		i := rng.Intn(2)
		s, other := sides[i], sides[1-i]
		who := [2]string{"source", "fork"}[i]
		gens, stamp := *s.b.PageGens(), *s.b.WriteStamp()
		otherGens, otherStamp := *other.b.PageGens(), *other.b.WriteStamp()
		name, moved, touched := op(s)
		check(s, who, touched, trial)
		check(other, "the other side", touched, trial)
		if *other.b.PageGens() != otherGens || *other.b.WriteStamp() != otherStamp {
			t.Fatalf("trial %d: %s on the %s moved the other side's generations or stamp", trial, name, who)
		}
		for q, g := range s.b.PageGens() {
			if got, want := g != gens[q], slices.Contains(moved, uint32(q)); got != want {
				t.Fatalf("trial %d: %s on the %s: page %#x generation moved = %v, want %v", trial, name, who, q, got, want)
			}
		}
		if got, want := *s.b.WriteStamp() != stamp, len(moved) != 0; got != want {
			t.Fatalf("trial %d: %s on the %s: stamp moved = %v, want %v", trial, name, who, got, want)
		}
		if trial%1000 == 0 {
			full(sides[0], "source", trial)
			full(sides[1], "fork", trial)
		}
	}
}

// TestForkSharesPages pins what a fork costs: it allocates the same,
// and copies no page, whether its source holds no page of its own or
// has written every page of RAM; a store copies the page it changes,
// once, and a silent store copies nothing.
func TestForkSharesPages(t *testing.T) {
	blank := NewBus()
	full := NewBus()
	w := make([]byte, AddrSpace)
	for i := range w {
		w[i] = byte(i*7 + 1)
	}
	full.WriteRAM(0, w)
	a := testing.AllocsPerRun(20, func() { blank.Fork() })
	b := testing.AllocsPerRun(20, func() { full.Fork() })
	if a != b {
		t.Errorf("Fork allocates %v objects over a blank bus and %v over a written one", a, b)
	}
	v := full.LoadByte(0x1234)
	silent := testing.AllocsPerRun(20, func() { full.Fork().StoreByte(0x1234, v) })
	first := testing.AllocsPerRun(20, func() { full.Fork().StoreByte(0x1234, ^v) })
	if silent != a || first != a+1 {
		t.Errorf("a fork and one store allocate %v objects silent, %v changing a byte; want %v and %v (one page copy)",
			silent, first, a, a+1)
	}
	f := full.Fork()
	if n := testing.AllocsPerRun(20, func() { f.StoreWord(0x1234, uint16(f.LoadByte(0x1234)+1)) }); n != 0 {
		t.Errorf("a store to a page the fork holds allocates %v objects", n)
	}
}
