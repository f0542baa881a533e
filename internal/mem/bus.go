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
// The bus additionally maintains two O(1) lookup structures that the
// simulator's hot paths depend on:
//
//   - a per-byte ROM membership bitmap, so InROM (consulted on every
//     store and every protection check) costs one word load instead of
//     a scan over the region list;
//   - per-page write-generation counters (PageSize-byte pages), bumped
//     by EVERY change to a byte, whatever the path — instruction
//     stores, bulk copies (CopyForward), test Pokes, fault-injection
//     PokeRAMs, snapshot Restores and ROM installation. The machine's
//     superblock engine validates blocks against these counters, which
//     is what keeps the fast path sound from arbitrary configurations:
//     no decoded block entry can survive a change (or an injected
//     bit-flip) to its backing bytes, because any such change bumps the
//     backing page's counter. An instruction store of the value a byte
//     already holds, or a CopyForward whose source already matches its
//     destination, changes nothing and so moves nothing: the engine
//     relies only on "generation unchanged ⇒ bytes unchanged", which
//     such a store keeps true, and a refresh that rewrites RAM with the
//     bytes it already holds leaves the blocks decoded over it valid.
//     A copy that does change bytes bumps each changed page once, not
//     once per byte, which keeps the same implication true.
package mem

import (
	"fmt"
	"math/bits"
	"sort"
)

// AddrSpace is the size of the physical address space in bytes
// (20 address bits, as in real-mode Pentium).
const AddrSpace = 1 << 20

// AddrMask masks a linear address to the physical address space.
const AddrMask = AddrSpace - 1

// PageShift is the log2 of the write-generation page size.
const PageShift = 8

// PageSize is the granularity of write-generation tracking. Small
// enough that a store invalidates few cached decodes, large enough
// that the counter array stays cache-resident.
const PageSize = 1 << PageShift

// NumPages is the number of generation-tracked pages.
const NumPages = AddrSpace >> PageShift

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

// Bus is the physical memory bus. The zero value is not usable; create
// one with NewBus.
type Bus struct {
	data   []byte
	roms   []Region
	policy ROMWritePolicy

	// romBits is the per-byte ROM membership bitmap (1 bit per
	// address). It makes InROM O(1); the region list is kept only for
	// reporting and RAM-range enumeration.
	romBits []uint64

	// gens holds one write-generation counter per PageSize-byte page.
	// Every mutation that changes a byte of data bumps the counter of
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

	// ROMWriteCount counts stores that targeted ROM, regardless of
	// policy. Useful for detecting misbehaving guests in tests.
	ROMWriteCount uint64
}

// NewBus returns a bus with all RAM zeroed and no ROM regions.
func NewBus() *Bus {
	return &Bus{
		data:    make([]byte, AddrSpace),
		romBits: make([]uint64, AddrSpace/64),
		gens:    new([NumPages]uint64),
	}
}

// SetROMWritePolicy selects the behaviour of stores targeting ROM.
func (b *Bus) SetROMWritePolicy(p ROMWritePolicy) { b.policy = p }

// ROMWritePolicy returns the current policy for stores targeting ROM.
func (b *Bus) ROMWritePolicy() ROMWritePolicy { return b.policy }

// AddROM installs data as a write-protected region at start. It fails
// if the region is empty, exceeds the address space or overlaps an
// existing ROM region.
func (b *Bus) AddROM(name string, start uint32, data []byte) (Region, error) {
	r := Region{Name: name, Start: start & AddrMask, Size: uint32(len(data))}
	if len(data) == 0 {
		return Region{}, fmt.Errorf("mem: rom %q is empty", name)
	}
	if uint64(r.Start)+uint64(r.Size) > AddrSpace {
		return Region{}, fmt.Errorf("mem: rom %q exceeds address space: %v", name, r)
	}
	for _, other := range b.roms {
		if r.Start < other.End() && other.Start < r.End() {
			return Region{}, fmt.Errorf("mem: rom %q overlaps %v", name, other)
		}
	}
	copy(b.data[r.Start:r.End()], data)
	for a := r.Start; a < r.End(); a++ {
		b.romBits[a>>6] |= 1 << (a & 63)
	}
	b.bumpRange(r.Start, r.End())
	b.roms = append(b.roms, r)
	sort.Slice(b.roms, func(i, j int) bool { return b.roms[i].Start < b.roms[j].Start })
	return r, nil
}

// ROMs returns the installed ROM regions in address order.
func (b *Bus) ROMs() []Region {
	out := make([]Region, len(b.roms))
	copy(out, b.roms)
	return out
}

// InROM reports whether addr falls inside a ROM region.
func (b *Bus) InROM(addr uint32) bool {
	addr &= AddrMask
	return b.romBits[addr>>6]&(1<<(addr&63)) != 0
}

// PageGen returns the write-generation counter of the page containing
// addr. Two equal readings bracket an interval during which the page's
// bytes were provably not written.
func (b *Bus) PageGen(addr uint32) uint64 {
	return b.gens[(addr&AddrMask)>>PageShift]
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

// bumpRange advances the generation of every page overlapping
// [start, end).
func (b *Bus) bumpRange(start, end uint32) {
	for p := start >> PageShift; p <= (end-1)>>PageShift; p++ {
		b.gens[p]++
	}
	b.stamp++
}

// bumpAll advances every page generation (full-memory mutation).
func (b *Bus) bumpAll() {
	for i := range b.gens {
		b.gens[i]++
	}
	b.stamp++
}

// LoadByte returns the byte at addr.
func (b *Bus) LoadByte(addr uint32) byte {
	return b.data[addr&AddrMask]
}

// StoreByte stores v at addr. It returns false when the store targeted
// ROM and the policy is ROMWriteFault; the store never alters ROM
// either way. A RAM store of the value the byte already holds is
// silent: it succeeds without bumping the page generation or advancing
// the stamp, since nothing changed.
func (b *Bus) StoreByte(addr uint32, v byte) bool {
	addr &= AddrMask
	if b.romBits[addr>>6]&(1<<(addr&63)) != 0 {
		b.ROMWriteCount++
		return b.policy == ROMWriteIgnore
	}
	if b.data[addr] == v {
		return true
	}
	b.data[addr] = v
	b.gens[addr>>PageShift]++
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
// overwrites a byte before it has been read. The copy is silent like
// StoreByte: when the bytes already match it changes nothing and bumps
// nothing, and otherwise it bumps dst's page generation and the stamp
// once.
func (b *Bus) CopyForward(dst, src, n uint32) uint32 {
	dst &= AddrMask
	src &= AddrMask
	n = min(n, PageSize-dst&(PageSize-1), AddrSpace-src)
	if src < dst {
		n = min(n, dst-src)
	}
	n = b.ramPrefix(dst, n)
	d, s := b.data[dst:dst+n], b.data[src:src+n]
	if string(d) == string(s) {
		return n
	}
	copy(d, s)
	b.gens[dst>>PageShift]++
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
// it, to retire them without decoding blocks over them.
func (b *Bus) ZeroRun(addr, n uint32) uint32 {
	addr &= AddrMask
	d := b.data[addr : addr+min(n, AddrSpace-addr)]
	r := 0
	for len(d)-r >= len(zeroChunk) && string(d[r:r+len(zeroChunk)]) == string(zeroChunk[:]) {
		r += len(zeroChunk)
	}
	for r < len(d) && d[r] == 0 {
		r++
	}
	return uint32(r)
}

// ramPrefix returns the length of the longest ROM-free prefix of
// [a, a+n), scanning romBits a word at a time; a+n must not exceed
// AddrSpace.
func (b *Bus) ramPrefix(a, n uint32) uint32 {
	end := a + n
	for w := a >> 6; w<<6 < end; w++ {
		rom := b.romBits[w]
		if w == a>>6 {
			rom &^= 1<<(a&63) - 1 // the bits below a
		}
		if rom != 0 {
			return min(w<<6+uint32(bits.TrailingZeros64(rom)), end) - a
		}
	}
	return n
}

// LoadWord returns the little-endian 16-bit word at addr. The two bytes
// are read at addr and addr+1 (mod address space), matching byte-wise
// access.
func (b *Bus) LoadWord(addr uint32) uint16 {
	a0 := addr & AddrMask
	if a0 < AddrMask {
		return uint16(b.data[a0]) | uint16(b.data[a0+1])<<8
	}
	return uint16(b.data[a0]) | uint16(b.data[0])<<8
}

// StoreWord stores the little-endian 16-bit word v at addr, reporting
// whether both byte stores succeeded.
//
// When neither byte lands in ROM (the overwhelmingly common case) the
// word commits with a single fused check. When either byte targets ROM
// the store degrades to the byte-wise path, preserving the
// long-standing straddle semantics: a word straddling a RAM→ROM
// boundary under ROMWriteFault half-commits — the RAM byte is written,
// the ROM byte is dropped, and the store reports failure. That partial
// write is exactly what byte-serial hardware does, and the paper's
// designs must stabilize from it like from any other corruption.
//
// Like StoreByte, a store that changes neither byte is silent; one
// that changes either byte bumps both bytes' pages.
func (b *Bus) StoreWord(addr uint32, v uint16) bool {
	a0 := addr & AddrMask
	a1 := (addr + 1) & AddrMask
	if (b.romBits[a0>>6]&(1<<(a0&63)))|(b.romBits[a1>>6]&(1<<(a1&63))) == 0 {
		if b.data[a0] == byte(v) && b.data[a1] == byte(v>>8) {
			return true
		}
		b.data[a0] = byte(v)
		b.data[a1] = byte(v >> 8)
		b.gens[a0>>PageShift]++
		if a1>>PageShift != a0>>PageShift {
			b.gens[a1>>PageShift]++
		}
		b.stamp++
		return true
	}
	ok1 := b.StoreByte(a0, byte(v))
	ok2 := b.StoreByte(a1, byte(v>>8))
	return ok1 && ok2
}

// Poke writes v at addr bypassing ROM protection. It models agents
// outside the instruction stream (initial-state setup in tests); fault
// injection must use PokeRAM instead, since transient faults cannot
// alter ROM.
func (b *Bus) Poke(addr uint32, v byte) {
	addr &= AddrMask
	b.data[addr] = v
	b.gens[addr>>PageShift]++
	b.stamp++
}

// PokeRAM writes v at addr unless addr is in ROM; it reports whether
// the write happened. This is the fault-injection entry point: soft
// errors flip RAM and register bits but never ROM.
func (b *Bus) PokeRAM(addr uint32, v byte) bool {
	addr &= AddrMask
	if b.romBits[addr>>6]&(1<<(addr&63)) != 0 {
		return false
	}
	b.data[addr] = v
	b.gens[addr>>PageShift]++
	b.stamp++
	return true
}

// WriteRAM stores src at addr, addr+1, …, skipping ROM bytes as a loop
// of PokeRAM does; the range must not cross the top of the address
// space. It is silent like StoreByte: each page in which a byte changed
// has its generation bumped once, the stamp advances once when any byte
// changed, and a write of the bytes memory already holds moves nothing.
// Fault injectors randomize whole regions through it.
func (b *Bus) WriteRAM(addr uint32, src []byte) {
	addr &= AddrMask
	end := addr + uint32(len(src))
	changed := false
	for a := addr; a < end; {
		p := a >> PageShift
		pageEnd := min(end, (p+1)<<PageShift)
		dirty := false
		for a < pageEnd {
			n := b.ramPrefix(a, pageEnd-a)
			if d, s := b.data[a:a+n], src[a-addr:a-addr+n]; string(d) != string(s) {
				copy(d, s)
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
func (b *Bus) Peek(addr uint32) byte { return b.data[addr&AddrMask] }

// View returns a read-only window over [addr, addr+n), which must not
// wrap the address space (addr+n <= AddrSpace). Callers must not write
// through the slice and must not retain it across bus mutations; it
// exists so the fetch fast path can decode straight from backing
// memory without a copy.
func (b *Bus) View(addr, n uint32) []byte { return b.data[addr : addr+n] }

// CopyOut copies length bytes starting at addr into a new slice.
func (b *Bus) CopyOut(addr, length uint32) []byte {
	out := make([]byte, length)
	addr &= AddrMask
	if uint64(addr)+uint64(length) <= AddrSpace {
		copy(out, b.data[addr:addr+length])
		return out
	}
	// The range wraps the top of the address space: copy the tail,
	// then keep copying from the bottom (possibly multiple times for
	// lengths beyond AddrSpace, matching the modular byte-wise reads).
	n := copy(out, b.data[addr:])
	for n < len(out) {
		n += copy(out[n:], b.data)
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
func (b *Bus) Snapshot() []byte {
	out := make([]byte, AddrSpace)
	copy(out, b.data)
	return out
}

// Restore overwrites the full address space (including ROM images —
// the regions stay registered) from a snapshot taken with Snapshot.
func (b *Bus) Restore(snap []byte) error {
	if len(snap) != AddrSpace {
		return fmt.Errorf("mem: snapshot length %d, want %d", len(snap), AddrSpace)
	}
	copy(b.data, snap)
	b.bumpAll()
	return nil
}
