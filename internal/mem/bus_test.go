package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReadStoreByte(t *testing.T) {
	b := NewBus()
	if !b.StoreByte(0x1234, 0xAB) {
		t.Fatal("write failed")
	}
	if got := b.LoadByte(0x1234); got != 0xAB {
		t.Fatalf("read = %#x, want 0xAB", got)
	}
}

func TestAddressWrapping(t *testing.T) {
	b := NewBus()
	b.StoreByte(AddrSpace+5, 0x42) // wraps to 5
	if got := b.LoadByte(5); got != 0x42 {
		t.Fatalf("wrapped read = %#x, want 0x42", got)
	}
}

func TestWordLittleEndian(t *testing.T) {
	b := NewBus()
	b.StoreWord(0x100, 0xBEEF)
	if b.LoadByte(0x100) != 0xEF || b.LoadByte(0x101) != 0xBE {
		t.Fatal("word not little-endian")
	}
	if got := b.LoadWord(0x100); got != 0xBEEF {
		t.Fatalf("LoadWord = %#x", got)
	}
}

func TestWordWrapsAtTop(t *testing.T) {
	b := NewBus()
	b.StoreWord(AddrMask, 0x1234)
	if b.LoadByte(AddrMask) != 0x34 || b.LoadByte(0) != 0x12 {
		t.Fatal("word at top of memory should wrap")
	}
	if got := b.LoadWord(AddrMask); got != 0x1234 {
		t.Fatalf("LoadWord wrap = %#x", got)
	}
}

func TestROMProtection(t *testing.T) {
	b := NewBus()
	rom := []byte{1, 2, 3, 4}
	r, err := b.AddROM("bios", 0xF0000, rom)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(0xF0002) || r.Contains(0xF0004) {
		t.Fatal("region bounds wrong")
	}

	// Ignore policy: write reports ok but ROM unchanged.
	b.SetROMWritePolicy(ROMWriteIgnore)
	if !b.StoreByte(0xF0001, 0xFF) {
		t.Fatal("ignore policy should report ok")
	}
	if b.LoadByte(0xF0001) != 2 {
		t.Fatal("ROM was modified")
	}

	// Fault policy: write reports failure, ROM unchanged.
	b.SetROMWritePolicy(ROMWriteFault)
	if b.StoreByte(0xF0001, 0xFF) {
		t.Fatal("fault policy should report failure")
	}
	if b.LoadByte(0xF0001) != 2 {
		t.Fatal("ROM was modified under fault policy")
	}
	if b.ROMWriteCount != 2 {
		t.Fatalf("ROMWriteCount = %d, want 2", b.ROMWriteCount)
	}

	// PokeRAM must refuse ROM addresses.
	if b.PokeRAM(0xF0000, 9) {
		t.Fatal("PokeRAM wrote to ROM")
	}
	// Poke bypasses protection (test setup only).
	b.Poke(0xF0000, 9)
	if b.LoadByte(0xF0000) != 9 {
		t.Fatal("Poke did not write")
	}
}

func TestAddROMErrors(t *testing.T) {
	b := NewBus()
	if _, err := b.AddROM("empty", 0, nil); err == nil {
		t.Error("empty ROM accepted")
	}
	if _, err := b.AddROM("huge", AddrSpace-2, make([]byte, 4)); err == nil {
		t.Error("out-of-range ROM accepted")
	}
	if _, err := b.AddROM("a", 0x1000, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddROM("b", 0x1008, make([]byte, 16)); err == nil {
		t.Error("overlapping ROM accepted")
	}
}

func TestRAMRegions(t *testing.T) {
	b := NewBus()
	if n := b.RAMSize(); n != AddrSpace {
		t.Fatalf("RAMSize = %d, want full space", n)
	}
	if _, err := b.AddROM("lo", 0x0000, make([]byte, 0x400)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddROM("hi", 0xF0000, make([]byte, 0x10000)); err != nil {
		t.Fatal(err)
	}
	regs := b.RAMRegions()
	if len(regs) != 1 {
		t.Fatalf("RAMRegions = %v", regs)
	}
	if regs[0].Start != 0x400 || regs[0].End() != 0xF0000 {
		t.Fatalf("RAM region = %v", regs[0])
	}
	if got, want := b.RAMSize(), uint32(0xF0000-0x400); got != want {
		t.Fatalf("RAMSize = %#x, want %#x", got, want)
	}
}

func TestRAMAddrCoversExactlyRAM(t *testing.T) {
	b := NewBus()
	if _, err := b.AddROM("mid", 0x8000, make([]byte, 0x100)); err != nil {
		t.Fatal(err)
	}
	// Every index maps to a RAM (non-ROM) address; boundary indices map
	// around the ROM hole.
	if a := b.RAMAddr(0x7FFF); a != 0x7FFF {
		t.Fatalf("RAMAddr(0x7FFF) = %#x", a)
	}
	if a := b.RAMAddr(0x8000); a != 0x8100 {
		t.Fatalf("RAMAddr(0x8000) = %#x", a)
	}
	f := func(i uint32) bool {
		return !b.InROM(b.RAMAddr(i % b.RAMSize()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotFork: a fork holds its source's bytes, ROM image
// included, and a snapshot taken before a store on either side keeps
// reading what the other side still holds.
func TestSnapshotFork(t *testing.T) {
	b := NewBus()
	if _, err := b.AddROM("r", 0x100, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	b.StoreByte(0x50, 0x11)
	snap := b.Snapshot()
	f := b.Fork()
	b.StoreByte(0x50, 0x22)
	if !bytes.Equal(f.Snapshot(), snap) {
		t.Fatal("the fork does not hold the bytes of its source at the fork")
	}
	if f.LoadByte(0x50) != 0x11 || f.LoadByte(0x100) != 9 {
		t.Fatal("the fork lost RAM or the ROM image")
	}
	f.StoreByte(0x60, 0x33)
	if b.LoadByte(0x60) != 0 || b.LoadByte(0x50) != 0x22 {
		t.Fatal("a store on one side shows on the other")
	}
	if _, err := b.AddROM("late", 0x200, []byte{1}); err == nil {
		t.Error("AddROM accepted on a bus that has forked")
	}
	if _, err := f.AddROM("late", 0x200, []byte{1}); err == nil {
		t.Error("AddROM accepted on a fork")
	}
}

func TestCopyOut(t *testing.T) {
	b := NewBus()
	b.StoreByte(AddrMask, 1)
	b.StoreByte(0, 2)
	got := b.CopyOut(AddrMask, 2) // wraps
	if !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("CopyOut = %v", got)
	}
}

func TestROMWritesNeverAlterROMProperty(t *testing.T) {
	b := NewBus()
	img := make([]byte, 256)
	for i := range img {
		img[i] = byte(i)
	}
	if _, err := b.AddROM("rom", 0x2000, img); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, v byte, fault bool) bool {
		if fault {
			b.SetROMWritePolicy(ROMWriteFault)
		} else {
			b.SetROMWritePolicy(ROMWriteIgnore)
		}
		addr := 0x2000 + off%256
		b.StoreByte(addr, v)
		b.PokeRAM(addr, v)
		return b.LoadByte(addr) == byte(addr-0x2000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCopyOutMultiWrap(t *testing.T) {
	b := NewBus()
	b.StoreByte(0, 7)
	b.StoreByte(AddrMask, 8)
	// Longer than the whole address space: the modular byte-wise
	// semantics repeat the image.
	got := b.CopyOut(AddrMask, AddrSpace+2)
	if got[0] != 8 || got[1] != 7 {
		t.Fatalf("head = %v", got[:2])
	}
	if got[AddrSpace] != 8 || got[AddrSpace+1] != 7 {
		t.Fatalf("wrapped tail = %v", got[AddrSpace:])
	}
	if got[1+0x40] != b.LoadByte(0x40) {
		t.Fatal("interior byte mismatch")
	}
}

// TestStoreWordStraddlesIntoROM pins the byte-wise semantics of a word
// store whose low byte is RAM and high byte is ROM: under every policy
// the RAM byte commits and the ROM byte is dropped. Under
// ROMWriteFault the store reports failure; under ROMWriteIgnore it
// reports success, exactly as two sequential StoreByte calls would.
// The fused fast path must preserve this.
func TestStoreWordStraddlesIntoROM(t *testing.T) {
	for _, policy := range []ROMWritePolicy{ROMWriteIgnore, ROMWriteFault} {
		b := NewBus()
		b.SetROMWritePolicy(policy)
		if _, err := b.AddROM("rom", 0x2000, []byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		before := b.ROMWriteCount
		ok := b.StoreWord(0x1FFF, 0xBBAA)
		if want := policy == ROMWriteIgnore; ok != want {
			t.Fatalf("policy %v: StoreWord ok = %v, want %v", policy, ok, want)
		}
		if b.LoadByte(0x1FFF) != 0xAA {
			t.Fatalf("policy %v: RAM half did not commit", policy)
		}
		if b.LoadByte(0x2000) != 0xEE {
			t.Fatalf("policy %v: ROM half changed", policy)
		}
		if b.ROMWriteCount != before+1 {
			t.Fatalf("policy %v: ROMWriteCount = %d, want %d", policy, b.ROMWriteCount, before+1)
		}
	}
}

// TestPageGenerations pins the invalidation contract the superblock
// engine depends on: every mutation that changes a byte bumps the
// written page's generation and advances the write stamp, reads never
// do, blocked ROM writes leave generations alone, and a store of the
// value already there is silent.
func TestPageGenerations(t *testing.T) {
	b := NewBus()
	if _, err := b.AddROM("rom", 0x2000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	gen := func(addr uint32) uint64 { return b.PageGen(addr) }

	g := gen(0x50)
	b.StoreByte(0x50, 1)
	if gen(0x50) != g+1 {
		t.Fatal("StoreByte did not bump the page generation")
	}
	b.LoadByte(0x50)
	b.LoadWord(0x50)
	b.Peek(0x50)
	b.CopyOut(0x50, 4)
	if gen(0x50) != g+1 {
		t.Fatal("a read path bumped the page generation")
	}

	// A word store straddling a page boundary bumps both pages.
	g0, g1 := gen(PageSize-1), gen(PageSize)
	b.StoreWord(PageSize-1, 0xFFFF)
	if gen(PageSize-1) != g0+1 || gen(PageSize) != g1+1 {
		t.Fatal("straddling StoreWord did not bump both pages")
	}

	// Silent stores: a store of the present value changes nothing, so
	// it bumps no generation and leaves the stamp alone, byte or word,
	// within a page or straddling two.
	stamp := *b.WriteStamp()
	g, g0, g1 = gen(0x50), gen(PageSize-1), gen(PageSize)
	b.StoreByte(0x50, 1)
	b.StoreWord(0x50, 0x0001) // 0x50 holds 1, 0x51 still 0
	b.StoreWord(PageSize-1, 0xFFFF)
	if gen(0x50) != g || gen(PageSize-1) != g0 || gen(PageSize) != g1 {
		t.Fatal("a store of the present value bumped a page generation")
	}
	if *b.WriteStamp() != stamp {
		t.Fatal("a store of the present value advanced the write stamp")
	}

	// A word store that changes only one byte is a change: it bumps and
	// advances the stamp, and a straddling one bumps both pages whichever
	// byte changed.
	b.StoreWord(0x50, 0x0201) // only 0x51 changes
	if gen(0x50) != g+1 || *b.WriteStamp() == stamp {
		t.Fatal("StoreWord changing only its high byte did not bump")
	}
	for i, v := range []uint16{0xFF00, 0x0000} { // low byte, then high byte
		g0, g1, stamp = gen(PageSize-1), gen(PageSize), *b.WriteStamp()
		b.StoreWord(PageSize-1, v)
		if gen(PageSize-1) != g0+1 || gen(PageSize) != g1+1 || *b.WriteStamp() == stamp {
			t.Fatalf("straddling StoreWord changing one byte (%d) did not bump both pages", i)
		}
	}

	g = gen(0x60)
	b.Poke(0x60, 9)
	if gen(0x60) != g+1 {
		t.Fatal("Poke did not bump the page generation")
	}
	g = gen(0x70)
	b.PokeRAM(0x70, 9)
	if gen(0x70) != g+1 {
		t.Fatal("PokeRAM did not bump the page generation")
	}

	// Blocked writes to ROM must not bump (nothing changed) — and a
	// PokeRAM refused on ROM must not either.
	g = gen(0x2000)
	b.StoreByte(0x2000, 0xFF)
	b.PokeRAM(0x2000, 0xFF)
	if gen(0x2000) != g {
		t.Fatal("blocked ROM write bumped the page generation")
	}

	// AddROM invalidates the covered pages.
	g = gen(0x3000)
	if _, err := b.AddROM("rom2", 0x3000, []byte{5}); err != nil {
		t.Fatal(err)
	}
	if gen(0x3000) == g {
		t.Fatal("AddROM did not bump the covered page generation")
	}

	// A fork continues the generations and the stamp, and the copy of a
	// shared page a first write makes moves only what the write moves:
	// a silent store to a shared page moves nothing on either side.
	f := b.Fork()
	if *f.PageGens() != *b.PageGens() || *f.WriteStamp() != *b.WriteStamp() {
		t.Fatal("Fork did not carry over the generations and the stamp")
	}
	g, stamp = gen(0x50), *b.WriteStamp()
	b.StoreByte(0x50, 1)
	f.StoreWord(0x50, 0x0201)
	if gen(0x50) != g || f.PageGen(0x50) != g || *b.WriteStamp() != stamp || *f.WriteStamp() != stamp {
		t.Fatal("a silent store to a shared page moved a generation or the stamp")
	}
	b.StoreByte(0x50, 7)
	if gen(0x50) != g+1 || f.PageGen(0x50) != g || *f.WriteStamp() != stamp {
		t.Fatal("a store to a shared page did not move exactly its own side's generation")
	}
}

// sameMemory reports whether two buses hold the same bytes. It reads
// them a page at a time through View, which copies nothing.
func sameMemory(a, b *Bus) bool {
	var x, y [PageSize]byte
	for p := uint32(0); p < NumPages; p++ {
		if !bytes.Equal(a.View(p<<PageShift, x[:]), b.View(p<<PageShift, y[:])) {
			return false
		}
	}
	return true
}

// TestCopyForwardMatchesByteStores holds CopyForward against the byte
// stores it stands for. Twin buses start identical; for random
// (dst, src, n) — destinations around ROM regions that sit at word and
// page edges and at the top of the address space, sources 1 to 300
// bytes on either side of them or far away — one bus takes the method
// and the other StoreByte(dst+i, LoadByte(src+i)) for the count the
// method returned. The count must be the documented clamp, the memory
// must match, a page's generation must move iff a byte in it changed,
// the stamp iff any byte changed, and ROM must be untouched. Bytes are
// drawn from four values, so many copies are partly or wholly silent.
func TestCopyForwardMatchesByteStores(t *testing.T) {
	roms := []Region{
		{Start: 0x10040, Size: 16}, // word-aligned
		{Start: 0x100FF, Size: 2},  // across a page edge
		{Start: 0x10200, Size: 1},  // a page's first byte
		{Start: 0x1033F, Size: 1},  // a word's last bit
		{Start: 0x103A5, Size: 16}, // mid-word
		{Start: 0xFFFFE, Size: 2},  // the top of the address space
	}
	var twin [2]*Bus
	for i := range twin {
		twin[i] = NewBus()
		for _, r := range roms {
			if _, err := twin[i].AddROM("rom", r.Start, bytes.Repeat([]byte{0xEE}, int(r.Size))); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := twin[0], twin[1]
	rng := rand.New(rand.NewSource(1))
	fill := func() {
		for _, base := range []uint32{0, 0xFF00, 0xFFE00} {
			for x := base; x < base+0x800 && x < AddrSpace; x++ {
				v := byte(rng.Intn(4))
				a.PokeRAM(x, v)
				b.PokeRAM(x, v)
			}
		}
	}
	// clamp is the documented prefix length, byte by byte.
	clamp := func(dst, src, n uint32) uint32 {
		var i uint32
		for ; i < n; i++ {
			if (dst+i)>>PageShift != dst>>PageShift || src+i >= AddrSpace ||
				a.InROM(dst+i) || src < dst && i == dst-src {
				break
			}
		}
		return i
	}
	var gens [NumPages]uint64
	for trial := 0; trial < 4000; trial++ {
		if trial%500 == 0 {
			fill()
		}
		var dst uint32
		switch rng.Intn(4) {
		case 0:
			dst = 0xFFE00 + uint32(rng.Intn(0x200))
		case 1:
			dst = uint32(rng.Intn(0x300))
		default:
			dst = 0xFF00 + uint32(rng.Intn(0x600))
		}
		var src uint32
		switch dist := uint32(rng.Intn(300) + 1); rng.Intn(3) {
		case 0:
			src = (dst - dist) & AddrMask
		case 1:
			src = (dst + dist) & AddrMask
		default:
			src = uint32(rng.Intn(AddrSpace))
		}
		n := uint32(rng.Intn(600))
		if rng.Intn(10) == 0 {
			n = 0
		}

		gens = *a.PageGens()
		stamp := *a.WriteStamp()
		p := dst >> PageShift
		before := a.CopyOut(p<<PageShift, PageSize)
		got := a.CopyForward(dst, src, n)
		if want := clamp(dst, src, n); got != want {
			t.Fatalf("CopyForward(%#x, %#x, %d) = %d, want %d", dst, src, n, got, want)
		}
		for i := uint32(0); i < got; i++ {
			b.StoreByte(dst+i, b.LoadByte(src+i))
		}
		after := a.CopyOut(p<<PageShift, PageSize)
		if !sameMemory(a, b) {
			t.Fatalf("CopyForward(%#x, %#x, %d): memory differs from byte stores", dst, src, n)
		}
		changed := !bytes.Equal(before, after)
		for q, g := range a.PageGens() {
			if moved := g != gens[q]; moved != (changed && uint32(q) == p) {
				t.Fatalf("CopyForward(%#x, %#x, %d): page %#x generation moved = %v, dst page changed = %v",
					dst, src, n, q, moved, changed)
			}
		}
		if moved := *a.WriteStamp() != stamp; moved != changed {
			t.Fatalf("CopyForward(%#x, %#x, %d): stamp moved = %v, bytes changed = %v", dst, src, n, moved, changed)
		}
	}
	if a.ROMWriteCount != 0 || b.ROMWriteCount != 0 {
		t.Fatalf("ROMWriteCount = %d (method), %d (byte stores), want 0", a.ROMWriteCount, b.ROMWriteCount)
	}
	for _, r := range roms {
		for x := r.Start; x < r.End(); x++ {
			if v := a.LoadByte(x); v != 0xEE {
				t.Fatalf("ROM byte %#x = %#x, want 0xEE", x, v)
			}
		}
	}
}

// TestWriteRAMMatchesByteStores holds WriteRAM against the PokeRAM loop
// it stands for, over a hand-made ROM layout (regions at word and page
// edges and at the top of the address space) and four random
// romLayouts. Twin buses start identical, the second a fork of the
// first; for random ranges — over the ROM regions' edges and at the
// top of the address space, up to three pages long and ending at the
// top at most — the bus takes the method and its fork
// PokeRAM(addr+i, src[i]). The memory must match, ROM must be
// untouched, each page's generation must move by one iff a byte in it
// changed and by nothing otherwise, and the stamp must move by one iff
// any byte changed. Bytes are drawn from four values, and some writes
// copy memory's own bytes, so many are partly or wholly silent.
func TestWriteRAMMatchesByteStores(t *testing.T) {
	layouts := [][]Region{{
		{Start: 0x10040, Size: 16}, // word-aligned
		{Start: 0x100FF, Size: 2},  // across a page edge
		{Start: 0x10200, Size: 1},  // a page's first byte
		{Start: 0x1033F, Size: 1},  // a word's last bit
		{Start: 0x103A5, Size: 16}, // mid-word
		{Start: 0xFFFFE, Size: 2},  // the top of the address space
	}}
	rng := rand.New(rand.NewSource(13))
	for range 4 {
		layouts = append(layouts, romLayout(rng))
	}
	for i, roms := range layouts {
		t.Run(fmt.Sprintf("layout%d", i), func(t *testing.T) {
			checkWriteRAM(t, roms, rand.New(rand.NewSource(1+int64(i))))
		})
	}
}

// checkWriteRAM is TestWriteRAMMatchesByteStores on one ROM layout.
func checkWriteRAM(t *testing.T, roms []Region, rng *rand.Rand) {
	a := NewBus()
	for _, r := range roms {
		if _, err := a.AddROM("rom", r.Start, bytes.Repeat([]byte{0xEE}, int(r.Size))); err != nil {
			t.Fatal(err)
		}
	}
	b := a.Fork()
	one := func(moved bool) uint64 {
		if moved {
			return 1
		}
		return 0
	}
	var gens [NumPages]uint64
	src := make([]byte, 3*PageSize)
	for trial := 0; trial < 3000; trial++ {
		var addr uint32
		switch rng.Intn(3) {
		case 0:
			addr = 0xFFC00 + uint32(rng.Intn(0x400))
		case 1:
			addr = uint32(rng.Intn(0x300))
		default: // from up to a page and a half below a ROM region's edge
			r := roms[rng.Intn(len(roms))]
			e := r.Start
			if rng.Intn(2) == 0 {
				e = r.End()
			}
			addr = (e - uint32(rng.Intn(3*PageSize/2))) & AddrMask
		}
		n := min(uint32(rng.Intn(len(src)+1)), AddrSpace-addr)
		w := src[:n]
		if rng.Intn(8) == 0 {
			copy(w, a.CopyOut(addr, n)) // memory's own bytes
			if n > 0 && rng.Intn(2) == 0 {
				w[rng.Intn(len(w))] ^= 1
			}
		} else {
			for i := range w {
				w[i] = byte(rng.Intn(4))
			}
		}

		// Pages outside [lo, hi) cannot change: the twin, which
		// writes only the range, must match afterwards.
		lo, hi := addr&^(PageSize-1), (addr+n+PageSize-1)&^(PageSize-1)
		before := a.CopyOut(lo, hi-lo)
		gens = *a.PageGens()
		stamp := *a.WriteStamp()
		a.WriteRAM(addr, w)
		for i, v := range w {
			b.PokeRAM(addr+uint32(i), v)
		}
		after := a.CopyOut(lo, hi-lo)
		if !sameMemory(a, b) {
			t.Fatalf("WriteRAM(%#x, %d bytes): memory differs from byte stores", addr, n)
		}
		anyChanged := false
		for q, g := range a.PageGens() {
			changed := false
			if p := uint32(q) << PageShift; p >= lo && p < hi {
				changed = !bytes.Equal(before[p-lo:p-lo+PageSize], after[p-lo:p-lo+PageSize])
			}
			anyChanged = anyChanged || changed
			if g != gens[q]+one(changed) {
				t.Fatalf("WriteRAM(%#x, %d bytes): page %#x generation %d -> %d, page changed = %v",
					addr, n, q, gens[q], g, changed)
			}
		}
		if got := *a.WriteStamp(); got != stamp+one(anyChanged) {
			t.Fatalf("WriteRAM(%#x, %d bytes): stamp %d -> %d, bytes changed = %v", addr, n, stamp, got, anyChanged)
		}
	}
	if a.ROMWriteCount != 0 || b.ROMWriteCount != 0 {
		t.Fatalf("ROMWriteCount = %d (method), %d (byte stores), want 0", a.ROMWriteCount, b.ROMWriteCount)
	}
	for _, r := range roms {
		for x := r.Start; x < r.End(); x++ {
			if v, w := a.LoadByte(x), b.LoadByte(x); v != 0xEE || w != 0xEE {
				t.Fatalf("ROM byte %#x = %#x (method), %#x (byte stores), want 0xEE", x, v, w)
			}
		}
	}
}

// TestZeroRunMatchesBytes holds ZeroRun against a byte loop: from random
// starts and lengths, the run it reports is the zero bytes a loop finds
// before the first non-zero byte, the length n or the top of the
// address space, whichever comes first. Memory is mostly zero, with
// sparse non-zero bytes, so runs reach across page edges and the
// method's 64-byte compare chunks, and end on either side of them. A
// zero ROM region and a ROM byte of 0xEE check that ROM reads like RAM.
// Starts cluster at the bottom, around a page edge and at the top; the
// method must change no byte, generation or stamp.
func TestZeroRunMatchesBytes(t *testing.T) {
	b := NewBus()
	if _, err := b.AddROM("zeros", 0x20080, make([]byte, 0x180)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddROM("byte", 0x20300, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	loop := func(addr, n uint32) uint32 {
		var i uint32
		for ; i < n && addr+i < AddrSpace && b.LoadByte(addr+i) == 0; i++ {
		}
		return i
	}
	bases := []uint32{0, 0x1FF00, 0x20000, 0xFFC00}
	var snap []byte
	for trial := 0; trial < 6000; trial++ {
		if trial%600 == 0 {
			if snap != nil && !bytes.Equal(b.Snapshot(), snap) {
				t.Fatalf("trial %d: ZeroRun changed memory", trial)
			}
			// Re-seed the sparse non-zero bytes, at every offset
			// around the page and chunk edges in turn.
			for _, base := range bases {
				for x := base; x < base+0x400; x++ {
					v := byte(0)
					if rng.Intn(150) == 0 {
						v = byte(rng.Intn(255) + 1)
					}
					b.PokeRAM(x, v)
				}
			}
			b.PokeRAM(0xFFFFF, 0)
			snap = b.Snapshot()
		}
		addr := bases[rng.Intn(len(bases))] + uint32(rng.Intn(0x400))
		if rng.Intn(8) == 0 {
			addr = AddrSpace - 1 - uint32(rng.Intn(80)) // near the top
		}
		n := uint32(rng.Intn(0x500))
		if rng.Intn(10) == 0 {
			n = uint32(rng.Intn(4))
		}
		gens, stamp := *b.PageGens(), *b.WriteStamp()
		if got, want := b.ZeroRun(addr, n), loop(addr, n); got != want {
			t.Fatalf("ZeroRun(%#x, %d) = %d, want %d", addr, n, got, want)
		}
		if *b.PageGens() != gens || *b.WriteStamp() != stamp {
			t.Fatalf("ZeroRun(%#x, %d) moved a generation or the stamp", addr, n)
		}
	}
	// The exact edges: a run to the top, one cut a byte below it, and
	// one that starts on the last byte.
	for x := uint32(0xFFF00); x < AddrSpace; x++ {
		b.PokeRAM(x, 0)
	}
	for _, c := range []struct{ addr, n, want uint32 }{
		{0xFFF00, 0x1000, 0x100},
		{0xFFF00, 0xFF, 0xFF},
		{0xFFFFF, 5, 1},
		{0xFFFFF, 0, 0},
		{0x20300, 9, 0}, // the 0xEE ROM byte
	} {
		if got := b.ZeroRun(c.addr, c.n); got != c.want {
			t.Fatalf("ZeroRun(%#x, %d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

// TestInROMMatchesRegions cross-checks the O(1) per-page membership
// against the region list it is derived from.
func TestInROMMatchesRegions(t *testing.T) {
	b := NewBus()
	if _, err := b.AddROM("a", 0x100, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddROM("b", 0xFFFFE, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		addr uint32
		want bool
	}{
		{0x0FF, false}, {0x100, true}, {0x102, true}, {0x103, false},
		{0xFFFFD, false}, {0xFFFFE, true}, {0xFFFFF, true}, {0, false},
		{AddrSpace + 0x100, true}, // wraps to 0x100
	} {
		if got := b.InROM(tc.addr); got != tc.want {
			t.Errorf("InROM(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}
