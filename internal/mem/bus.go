// Package mem implements the physical memory bus of the simulated
// machine: a 20-bit (1 MiB) linear address space holding RAM and
// write-protected ROM regions.
//
// ROM is the anchor of every design in the paper: the watchdog/
// reinstall procedure, the scheduler and the pristine OS image live in
// ROM and are assumed incorruptible ("the rom part of the memory is non
// volatile and its content is guaranteed to remain unchanged", Section
// 2). The bus enforces that: no store instruction and no fault
// injection can alter a ROM region. What happens to the *store* is
// configurable — real hardware silently ignores ROM writes, while the
// paper's tailored designs route such anomalies (e.g. a store through a
// corrupted ss) to an exception handler that reinstalls the OS.
//
// Memory is paged and copy-on-write. The address space is a table of
// PageSize-byte pages; every page a bus has not written points at one
// package-level zero page, and a fork (Bus.Fork) shares every page with
// its source. A per-page flag marks the pages a bus shares, and its
// first write to such a page copies it, then writes the copy (Bus.own).
// A copy changes no byte, so it is invisible to the guest and to the
// generation rules below. A machine thus holds only the pages it
// writes, and a fork costs one page table, not a second address space.
//
// The bus additionally maintains two O(1) lookup structures that the
// simulator's hot paths depend on:
//
//   - per-page ROM membership, so InROM (consulted on every store to a
//     page holding ROM, and every protection check) costs one flag
//     test instead of a scan over the region list. A page is all RAM,
//     all ROM, or mixed, and only a mixed page keeps a PageSize-bit
//     mask of its ROM bytes. Every shipped image's ROM regions start
//     on page boundaries, so a machine has at most two mixed pages,
//     where its regions end;
//   - per-page write-generation counters (PageSize-byte pages), bumped
//     by EVERY change to a byte, whatever the path — instruction
//     stores, bulk copies (CopyForward), test Pokes, fault-injection
//     PokeRAMs and ROM installation. The machine's superblock engine
//     validates blocks against these counters, which is what keeps the
//     fast path sound from arbitrary configurations: no decoded block
//     entry can survive a change (or an injected bit-flip) to its
//     backing bytes, because any such change bumps the backing page's
//     counter. An instruction store of the value a byte already holds,
//     or a CopyForward whose source already matches its destination,
//     changes nothing and so moves nothing: the engine relies only on
//     "generation unchanged ⇒ bytes unchanged", which such a store
//     keeps true, and a refresh that rewrites RAM with the bytes it
//     already holds leaves the blocks decoded over it valid. A copy
//     that does change bytes bumps each changed page once, not once per
//     byte, which keeps the same implication true. Copying a shared
//     page before a write changes no byte either, so it moves nothing.
package mem

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// AddrSpace is the size of the physical address space in bytes
// (20 address bits, as in real-mode Pentium).
const AddrSpace = 1 << 20

// AddrMask masks a linear address to the physical address space.
const AddrMask = AddrSpace - 1

// PageShift is the log2 of the page size.
const PageShift = 8

// PageSize is the granularity of both paging and write-generation
// tracking. Small enough that a store invalidates few cached decodes
// and a first write copies little, large enough that the page table
// and the counter array stay cache-resident.
const PageSize = 1 << PageShift

// NumPages is the number of pages in the address space.
const NumPages = AddrSpace >> PageShift

// pageMask masks an address to its offset within its page.
const pageMask = PageSize - 1

// ROMWritePolicy selects what a store to a ROM address does.
type ROMWritePolicy uint8

const (
	// ROMWriteIgnore silently drops the store, as stock hardware does.
	ROMWriteIgnore ROMWritePolicy = iota
	// ROMWriteFault reports the store as a memory fault so the
	// processor can raise an exception (used by the tailored designs,
	// which turn anomalies into reinstall triggers).
	ROMWriteFault
)

// Region is a named address range.
type Region struct {
	Name  string
	Start uint32
	Size  uint32
}

// End returns the first address past the region.
func (r Region) End() uint32 { return r.Start + r.Size }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint32) bool {
	return addr >= r.Start && addr < r.End()
}

func (r Region) String() string {
	return fmt.Sprintf("%s [%05x..%05x)", r.Name, r.Start, r.End())
}

// page is the bytes of one page.
type page [PageSize]byte

// zeroPage backs every page a bus has not written. It is never written:
// every bus marks the pages pointing at it shared, so a first write
// copies it.
var zeroPage page

// Page flags.
const (
	// pageShared marks a page whose memory another page-table entry may
	// point at (the zero page, or a page shared with a fork): it must be
	// copied before it is written.
	pageShared uint8 = 1 << iota
	// pageROM marks a page holding at least one ROM byte: a store to it
	// must ask which bytes are ROM.
	pageROM
	// pageAllROM marks a page every byte of which is ROM; it is set
	// together with pageROM. A page with pageROM alone is mixed, and
	// its ROM bytes are the ones its mask (Bus.mixed) marks.
	pageAllROM
)

// romMask marks the ROM bytes of one mixed page, one bit per byte.
type romMask [PageSize / 64]uint64

// mixedPage is the ROM mask of one page holding both ROM and RAM bytes.
type mixedPage struct {
	page uint32
	mask romMask
}

// Bus is the physical memory bus. The zero value is not usable; create
// one with NewBus.
type Bus struct {
	// pages is the page table: page p holds the bytes at addresses
	// p<<PageShift up to the next page.
	pages [NumPages]*page
	// flags holds each page's pageShared, pageROM and pageAllROM bits.
	// A page with none is RAM this bus alone holds, which a store
	// writes straight away.
	flags [NumPages]uint8

	// mixed holds the ROM mask of every mixed page, in no order. It is
	// short (at most one entry per ROM region edge that falls inside a
	// page), so a lookup scans it. With the flags it makes InROM O(1); the
	// region list is kept only for reporting and RAM-range
	// enumeration. AddROM builds it; it is fixed once the bus has
	// forked, and a fork shares it.
	mixed []mixedPage

	roms   []Region
	policy ROMWritePolicy

	// gens holds one write-generation counter per PageSize-byte page.
	// Every mutation that changes a byte of memory bumps the counter of
	// each page it touches; a store of the present value changes
	// nothing and bumps nothing. Consumers (the machine's superblock
	// engine) snapshot the counters covering a cached range and treat
	// any change as an invalidation. 64-bit counters cannot
	// realistically wrap.
	gens *[NumPages]uint64

	// stamp is the bus-wide write epoch: advanced at least once by every
	// mutation that bumps any page generation, and by no store that
	// changes nothing. It gives consumers that validate multi-page spans
	// (the machine's superblock engine) a one-compare fast path: an
	// unchanged stamp proves no byte anywhere changed since the last
	// full span validation, so the per-page counters only need
	// rechecking when the stamp moved.
	stamp uint64

	// forked records that the bus has forked or is a fork, after which
	// its ROM layout is fixed (AddROM refuses).
	forked bool

	// ROMWriteCount counts stores that targeted ROM, regardless of
	// policy. Useful for detecting misbehaving guests in tests.
	ROMWriteCount uint64
}

// NewBus returns a bus with all RAM zeroed and no ROM regions. It
// holds no page of its own: every page is the shared zero page until
// first written.
func NewBus() *Bus {
	b := &Bus{gens: new([NumPages]uint64)}
	for p := range b.pages {
		b.pages[p] = &zeroPage
		b.flags[p] = pageShared
	}
	return b
}

// Fork returns a bus that continues b: the same bytes, ROM regions,
// policy, generations, stamp and ROM-write count. The two share every
// page, and both mark every page shared, so the first write on either
// side to a page copies that page for the writer alone; neither ever
// sees the other's stores. They also share the mixed pages' ROM
// masks, which are fixed from here on: AddROM refuses on both. Fork
// costs one page table and one counter array, whatever b holds. It must
// not run concurrently with any other use of b.
func (b *Bus) Fork() *Bus {
	for p := range b.flags {
		b.flags[p] |= pageShared
	}
	b.forked = true
	f := new(Bus)
	*f = *b
	f.gens = new([NumPages]uint64)
	*f.gens = *b.gens
	return f
}

// own returns page p for writing: a page this bus alone holds, first
// copying it when it is shared. The copy changes no byte, so it moves
// no generation and not the stamp. Every write into page memory goes
// through own; the caller bumps the page's generation and the stamp
// when it changes a byte.
func (b *Bus) own(p uint32) *page {
	if b.flags[p]&pageShared != 0 {
		b.unshare(p)
	}
	return b.pages[p]
}

// unshare gives page p a copy of its bytes that only this bus holds.
//
//ssos:alloc-ok copy-on-write: a page is copied at most once per fork (once ever from the zero page), and only when a write changes it
//go:noinline
func (b *Bus) unshare(p uint32) {
	c := new(page)
	*c = *b.pages[p]
	b.pages[p] = c
	b.flags[p] &^= pageShared
}

// SetROMWritePolicy selects the behaviour of stores targeting ROM.
func (b *Bus) SetROMWritePolicy(p ROMWritePolicy) { b.policy = p }

// ROMWritePolicy returns the current policy for stores targeting ROM.
func (b *Bus) ROMWritePolicy() ROMWritePolicy { return b.policy }

// AddROM installs data as a write-protected region at start. It fails
// if the region is empty, exceeds the address space, overlaps an
// existing ROM region, or the bus has forked.
func (b *Bus) AddROM(name string, start uint32, data []byte) (Region, error) {
	r := Region{Name: name, Start: start & AddrMask, Size: uint32(len(data))}
	if len(data) == 0 {
		return Region{}, fmt.Errorf("mem: rom %q is empty", name)
	}
	if uint64(r.Start)+uint64(r.Size) > AddrSpace {
		return Region{}, fmt.Errorf("mem: rom %q exceeds address space: %v", name, r)
	}
	if b.forked {
		return Region{}, fmt.Errorf("mem: rom %q added after a fork", name)
	}
	for _, other := range b.roms {
		if r.Start < other.End() && other.Start < r.End() {
			return Region{}, fmt.Errorf("mem: rom %q overlaps %v", name, other)
		}
	}
	for a := r.Start; a < r.End(); {
		p, o := a>>PageShift, a&pageMask
		n := uint32(copy(b.own(p)[o:], data[a-r.Start:]))
		b.markROM(p, o, n)
		a += n
	}
	b.bumpRange(r.Start, r.End())
	b.roms = append(b.roms, r)
	sort.Slice(b.roms, func(i, j int) bool { return b.roms[i].Start < b.roms[j].Start })
	return r, nil
}

// markROM records bytes [o, o+n) of page p as ROM; they are RAM until
// then. A page that ends up all ROM drops its mask.
func (b *Bus) markROM(p, o, n uint32) {
	b.flags[p] |= pageROM
	if n == PageSize {
		b.flags[p] |= pageAllROM
		return
	}
	i := slices.IndexFunc(b.mixed, func(m mixedPage) bool { return m.page == p })
	if i < 0 {
		i = len(b.mixed)
		b.mixed = append(b.mixed, mixedPage{page: p})
	}
	m := &b.mixed[i].mask
	for x := o; x < o+n; x++ {
		m[x>>6] |= 1 << (x & 63)
	}
	if *m == fullMask {
		b.flags[p] |= pageAllROM
		b.mixed = slices.Delete(b.mixed, i, i+1)
	}
}

// fullMask is the mask of a page whose every byte is ROM.
var fullMask = romMask{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// InROM reports whether addr falls inside a ROM region. A page's flags
// answer for an all-RAM or all-ROM page; only a mixed page reads its
// mask.
func (b *Bus) InROM(addr uint32) bool {
	switch b.flags[addr>>PageShift&(NumPages-1)] & (pageROM | pageAllROM) {
	case 0:
		return false
	case pageROM:
		return b.mixedROM(addr)
	}
	return true
}

// mixedROM reports whether addr, on a mixed page, is a ROM byte.
//
//go:noinline
func (b *Bus) mixedROM(addr uint32) bool {
	o := addr & pageMask
	return b.mask(pageOf(addr))[o>>6]&(1<<(o&63)) != 0
}

// mask returns the ROM mask of mixed page p. Every mixed page has one,
// so the scan ends inside the table.
func (b *Bus) mask(p uint32) *romMask {
	for i := 0; ; i++ {
		if b.mixed[i].page == p {
			return &b.mixed[i].mask
		}
	}
}

// PageGen returns the write-generation counter of the page containing
// addr. Two equal readings bracket an interval during which the page's
// bytes were provably not written.
func (b *Bus) PageGen(addr uint32) uint64 {
	return b.gens[pageOf(addr)]
}

// PageGens exposes the write-generation counter array itself, indexed
// by page number (linear address >> PageShift). Callers must treat it
// as read-only; the machine's fetch fast path holds on to it so a
// cache probe costs two array loads instead of two method calls. The
// array is allocated once per bus and never replaced, so a cached
// pointer stays valid for the bus's lifetime.
func (b *Bus) PageGens() *[NumPages]uint64 { return b.gens }

// WriteStamp exposes the bus-wide write epoch counter. Callers must
// treat it as read-only; like PageGens it is handed out as a pointer so
// the machine's superblock fast path pays one load per step instead of
// a method call, and it stays valid for the bus's lifetime.
func (b *Bus) WriteStamp() *uint64 { return &b.stamp }

// pageOf returns the number of the page holding addr (mod the address
// space).
func pageOf(addr uint32) uint32 { return addr >> PageShift & (NumPages - 1) }

// bumpRange advances the generation of every page overlapping
// [start, end).
func (b *Bus) bumpRange(start, end uint32) {
	for p := start >> PageShift; p <= (end-1)>>PageShift; p++ {
		b.gens[p]++
	}
	b.stamp++
}

// LoadByte returns the byte at addr.
func (b *Bus) LoadByte(addr uint32) byte {
	return b.pages[pageOf(addr)][addr&pageMask]
}

// StoreByte stores v at addr. It returns false when the store targeted
// ROM and the policy is ROMWriteFault; the store never alters ROM
// either way. A RAM store of the value the byte already holds is
// silent: it succeeds without bumping the page generation or advancing
// the stamp, since nothing changed, and copies no shared page.
func (b *Bus) StoreByte(addr uint32, v byte) bool {
	addr &= AddrMask
	p, o := pageOf(addr), addr&pageMask
	if b.InROM(addr) {
		b.ROMWriteCount++
		return b.policy == ROMWriteIgnore
	}
	if b.pages[p][o] == v {
		return true
	}
	b.own(p)[o] = v
	b.gens[p]++
	b.stamp++
	return true
}

// CopyForward carries out the longest prefix, up to n bytes, of the
// forward byte copy StoreByte(dst+i, LoadByte(src+i)), i = 0, 1, …,
// that stays inside dst's page, crosses the top of the address space
// in neither range, stores to no ROM byte and, when src < dst, moves
// at most dst−src bytes. It returns the prefix's length, which is 0
// only when n is 0 or dst is in ROM.
//
// Within such a prefix one memmove computes exactly what the byte
// stores do. When src < dst the clamp makes the two ranges disjoint, so
// no byte is read after it was written (a caller that goes on from
// where the prefix ended reads what it wrote, replicating the pattern
// as byte stores do). When dst ≤ src a forward byte store never
// overwrites a byte before it has been read. The source may span two
// pages and is moved in two pieces; if copying dst's shared page
// leaves a piece reading the old page, that page holds the same bytes.
// The copy is silent like StoreByte: when the bytes already match it
// changes nothing, copies no page and bumps nothing, and otherwise it
// bumps dst's page generation and the stamp once.
func (b *Bus) CopyForward(dst, src, n uint32) uint32 {
	dst &= AddrMask
	src &= AddrMask
	n = min(n, PageSize-dst&pageMask, AddrSpace-src)
	if src < dst {
		n = min(n, dst-src)
	}
	n = b.ramPrefix(dst, n)
	p, o := pageOf(dst), dst&pageMask
	s0 := src & pageMask
	k := min(n, PageSize-s0) // the piece in src's first page
	lo := b.pages[pageOf(src)][s0 : s0+k]
	d := b.pages[p][o : o+n]
	if k == n {
		if string(d) == string(lo) {
			return n
		}
		copy(b.own(p)[o:o+n], lo)
	} else {
		hi := b.pages[pageOf(src+PageSize)][:n-k]
		if string(d[:k]) == string(lo) && string(d[k:]) == string(hi) {
			return n
		}
		pg := b.own(p)
		copy(pg[o:o+k], lo)
		copy(pg[o+k:o+n], hi)
	}
	b.gens[p]++
	b.stamp++
	return n
}

// zeroChunk is the all-zero operand ZeroRun compares memory against,
// a chunk at a time.
var zeroChunk [64]byte

// ZeroRun returns the length of the longest run of zero bytes, ROM or
// RAM, that starts at addr, is at most n bytes long and does not cross
// the top of the address space. It reads memory and changes nothing.
// Opcode 0x00 is nop: the machine's turbo lane measures nop sleds with
// it, to retire them without decoding blocks over them. A page still
// on the zero page is passed over whole.
func (b *Bus) ZeroRun(addr, n uint32) uint32 {
	addr &= AddrMask
	n = min(n, AddrSpace-addr)
	r := uint32(0)
	for r < n {
		a := addr + r
		o := a & pageMask
		m := min(n-r, PageSize-o)
		pg := b.pages[a>>PageShift]
		if pg == &zeroPage {
			r += m
			continue
		}
		d := pg[o : o+m]
		z := 0
		for len(d)-z >= len(zeroChunk) && string(d[z:z+len(zeroChunk)]) == string(zeroChunk[:]) {
			z += len(zeroChunk)
		}
		for z < len(d) && d[z] == 0 {
			z++
		}
		r += uint32(z)
		if uint32(z) < m {
			break
		}
	}
	return r
}

// ramPrefix returns the length of the longest ROM-free prefix of
// [a, a+n), which must lie in one page: all of it on a RAM page, none
// of it on an all-ROM page, and on a mixed page the bytes before the
// first ROM byte, found a mask word at a time.
func (b *Bus) ramPrefix(a, n uint32) uint32 {
	switch b.flags[a>>PageShift] & (pageROM | pageAllROM) {
	case 0:
		return n
	case pageROM:
		return b.mixedRAMPrefix(a, n)
	}
	return 0
}

// mixedRAMPrefix is ramPrefix on a mixed page.
func (b *Bus) mixedRAMPrefix(a, n uint32) uint32 {
	m := b.mask(a >> PageShift)
	o := a & pageMask
	end := o + n
	for w := o >> 6; w<<6 < end; w++ {
		rom := m[w]
		if w == o>>6 {
			rom &^= 1<<(o&63) - 1 // the bits below o
		}
		if rom != 0 {
			return min(w<<6+uint32(bits.TrailingZeros64(rom)), end) - o
		}
	}
	return n
}

// LoadWord returns the little-endian 16-bit word at addr. The two bytes
// are read at addr and addr+1 (mod address space), matching byte-wise
// access. A word inside one page costs one page-table load.
func (b *Bus) LoadWord(addr uint32) uint16 {
	pg := b.pages[pageOf(addr)]
	if o := addr & pageMask; o != pageMask {
		return uint16(pg[o]) | uint16(pg[(o+1)&pageMask])<<8
	}
	return uint16(pg[pageMask]) | uint16(b.LoadByte(addr+1))<<8
}

// StoreWord stores the little-endian 16-bit word v at addr, reporting
// whether both byte stores succeeded.
//
// When both bytes lie in one page that holds no ROM (the
// overwhelmingly common case) the word commits behind that one fused
// test. When either byte targets ROM the store degrades to the
// byte-wise path, preserving the long-standing straddle semantics: a
// word straddling a RAM→ROM boundary under ROMWriteFault half-commits —
// the RAM byte is written, the ROM byte is dropped, and the store
// reports failure. That partial write is exactly what byte-serial
// hardware does, and the paper's designs must stabilize from it like
// from any other corruption.
//
// Like StoreByte, a store that changes neither byte is silent; one
// that changes either byte bumps both bytes' pages.
func (b *Bus) StoreWord(addr uint32, v uint16) bool {
	a0 := addr & AddrMask
	p, o := pageOf(a0), a0&pageMask
	if o != pageMask && b.flags[p]&pageROM == 0 {
		o1 := (o + 1) & pageMask
		if pg := b.pages[p]; pg[o] == byte(v) && pg[o1] == byte(v>>8) {
			return true
		}
		pg := b.own(p)
		pg[o] = byte(v)
		pg[o1] = byte(v >> 8)
		b.gens[p]++
		b.stamp++
		return true
	}
	return b.storeWordSlow(a0, v)
}

// storeWordSlow is StoreWord for a word that straddles two pages or
// lies in a page holding ROM.
func (b *Bus) storeWordSlow(a0 uint32, v uint16) bool {
	a1 := (a0 + 1) & AddrMask
	if b.InROM(a0) || b.InROM(a1) {
		ok1 := b.StoreByte(a0, byte(v))
		ok2 := b.StoreByte(a1, byte(v>>8))
		return ok1 && ok2
	}
	if b.LoadByte(a0) == byte(v) && b.LoadByte(a1) == byte(v>>8) {
		return true
	}
	p0, p1 := pageOf(a0), pageOf(a1)
	b.own(p0)[a0&pageMask] = byte(v)
	b.own(p1)[a1&pageMask] = byte(v >> 8)
	b.gens[p0]++
	if p1 != p0 {
		b.gens[p1]++
	}
	b.stamp++
	return true
}

// Poke writes v at addr bypassing ROM protection. It models agents
// outside the instruction stream (initial-state setup in tests); fault
// injection must use PokeRAM instead, since transient faults cannot
// alter ROM.
func (b *Bus) Poke(addr uint32, v byte) {
	p := pageOf(addr)
	b.own(p)[addr&pageMask] = v
	b.gens[p]++
	b.stamp++
}

// PokeRAM writes v at addr unless addr is in ROM; it reports whether
// the write happened. This is the fault-injection entry point: soft
// errors flip RAM and register bits but never ROM.
func (b *Bus) PokeRAM(addr uint32, v byte) bool {
	addr &= AddrMask
	if b.InROM(addr) {
		return false
	}
	p := pageOf(addr)
	b.own(p)[addr&pageMask] = v
	b.gens[p]++
	b.stamp++
	return true
}

// WriteRAM stores src at addr, addr+1, …, skipping ROM bytes as a loop
// of PokeRAM does; the range must not cross the top of the address
// space. It is silent like StoreByte: each page in which a byte changed
// has its generation bumped once, the stamp advances once when any byte
// changed, and a write of the bytes memory already holds moves nothing
// and copies no shared page. Fault injectors randomize whole regions
// through it.
func (b *Bus) WriteRAM(addr uint32, src []byte) {
	addr &= AddrMask
	end := addr + uint32(len(src))
	changed := false
	for a := addr; a < end; {
		p := a >> PageShift
		pageEnd := min(end, (p+1)<<PageShift)
		dirty := false
		for a < pageEnd {
			n, o := b.ramPrefix(a, pageEnd-a), a&pageMask
			if s := src[a-addr : a-addr+n]; string(b.pages[p][o:o+n]) != string(s) {
				copy(b.own(p)[o:o+n], s)
				dirty = true
			}
			for a += n; a < pageEnd && b.InROM(a); {
				a++ // a ROM byte keeps its contents
			}
		}
		if dirty {
			b.gens[p]++
			changed = true
		}
	}
	if changed {
		b.stamp++
	}
}

// Peek reads addr without any side effects (same as LoadByte; provided
// for symmetry with Poke).
func (b *Bus) Peek(addr uint32) byte { return b.LoadByte(addr) }

// View returns the len(buf) bytes at addr, addr+1, …, which must not
// cross the top of the address space, without allocating: a slice of
// the page that holds them when they lie in one page, else buf filled
// with them. Callers must not write through the result and must not
// retain it across bus mutations; it exists so the decoder can read
// straight from page memory.
func (b *Bus) View(addr uint32, buf []byte) []byte {
	addr &= AddrMask
	if o := addr & pageMask; int(o)+len(buf) <= PageSize {
		return b.pages[addr>>PageShift][o : int(o)+len(buf)]
	}
	for i := range buf {
		buf[i] = b.LoadByte(addr + uint32(i))
	}
	return buf
}

// CopyOut copies length bytes starting at addr into a new slice. A
// range that wraps the top of the address space continues from address
// 0 (possibly several times for lengths beyond AddrSpace), matching
// the modular byte-wise reads.
func (b *Bus) CopyOut(addr, length uint32) []byte {
	out := make([]byte, length)
	for i := 0; i < len(out); {
		a := (addr + uint32(i)) & AddrMask
		i += copy(out[i:], b.pages[a>>PageShift][a&pageMask:])
	}
	return out
}

// RAMRegions returns the maximal address ranges not covered by ROM, in
// address order. Fault injectors draw target addresses from these.
func (b *Bus) RAMRegions() []Region {
	var out []Region
	next := uint32(0)
	for _, r := range b.roms {
		if r.Start > next {
			out = append(out, Region{Name: "ram", Start: next, Size: r.Start - next})
		}
		if r.End() > next {
			next = r.End()
		}
	}
	if next < AddrSpace {
		out = append(out, Region{Name: "ram", Start: next, Size: AddrSpace - next})
	}
	return out
}

// RAMSize returns the total number of RAM (non-ROM) bytes.
func (b *Bus) RAMSize() uint32 {
	var n uint32
	for _, r := range b.RAMRegions() {
		n += r.Size
	}
	return n
}

// RAMAddr maps an index in [0, RAMSize()) to the linear address of the
// i'th RAM byte. It lets fault injectors choose uniformly among RAM
// bytes without rejection sampling.
func (b *Bus) RAMAddr(i uint32) uint32 {
	for _, r := range b.RAMRegions() {
		if i < r.Size {
			return r.Start + i
		}
		i -= r.Size
	}
	return AddrMask // unreachable for in-range i
}

// Snapshot returns a copy of the full address space contents.
func (b *Bus) Snapshot() []byte { return b.CopyOut(0, AddrSpace) }
