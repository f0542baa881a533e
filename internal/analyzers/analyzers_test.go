package analyzers_test

import (
	"fmt"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ssos/internal/analyzers"
)

func newLoader(t *testing.T) *analyzers.Loader {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analyzers.ModuleRoot(wd)
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	l, err := analyzers.NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// runOne applies a single analyzer to synthetic source, bypassing the
// Applies path predicate (unit tests pick the analyzer directly).
func runOne(t *testing.T, a *analyzers.Analyzer, path, src string) []string {
	t.Helper()
	l := newLoader(t)
	pkg, err := l.CheckSource(path, src)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	var msgs []string
	a.Run(pkg, func(pos token.Pos, format string, args ...any) {
		p := pkg.Fset.Position(pos)
		msgs = append(msgs, fmt.Sprintf("%s@%d: %s", a.Name, p.Line, fmt.Sprintf(format, args...)))
	})
	return msgs
}

// genbumpBus is the paged bus the genbump fixtures share: a page
// table, the owning accessor that copies a shared page, and a sibling
// that bumps a generation and the stamp.
const genbumpBus = `package mem

type page [16]byte

type Bus struct {
	pages [16]*page
	flags [16]uint8
	gens  [16]uint64
	stamp uint64
}

func (b *Bus) own(p int) *page {
	if b.flags[p] != 0 {
		b.unshare(p)
	}
	return b.pages[p]
}

func (b *Bus) unshare(p int) {
	c := new(page)
	*c = *b.pages[p]
	b.pages[p] = c
	b.flags[p] = 0
}

func (b *Bus) bump(p int) { b.gens[p]++; b.stamp++ }
`

// wantFindings fails unless msgs holds exactly one finding naming each
// of the methods.
func wantFindings(t *testing.T, msgs []string, methods ...string) {
	t.Helper()
	if len(msgs) != len(methods) {
		t.Fatalf("got %d findings, want %d (%v):\n%s", len(msgs), len(methods), methods, strings.Join(msgs, "\n"))
	}
	for _, want := range methods {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, "Bus."+want+" ") {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding mentioning Bus.%s in %v", want, msgs)
		}
	}
}

// TestGenbumpFlagsUnbumpedMutation: writes into an owned page without
// a generation bump (direct or via a bumping sibling) are flagged,
// whether they write through own's result or through a local slice of
// it; bumped paths and reads through the page table are not.
func TestGenbumpFlagsUnbumpedMutation(t *testing.T) {
	src := genbumpBus + `
func (b *Bus) Good(p, o int, v byte) {
	b.own(p)[o] = v
	b.bump(p)
}

func (b *Bus) GoodDirect(p, o int, v byte) {
	pg := b.own(p)
	pg[o] = v
	b.gens[p]++
	b.stamp++
}

func (b *Bus) Bad(p, o int, v byte) {
	b.own(p)[o] = v
}

func (b *Bus) BadCopy(p int, src []byte) {
	copy(b.own(p)[:], src)
}

func (b *Bus) ReadOnly(p int, dst []byte) {
	copy(dst, b.pages[p][:])
}

func (b *Bus) BadAliasCopy(p, i, j int, s []byte) {
	d := b.own(p)[i:j]
	copy(d, s)
}

func (b *Bus) BadAliasIndex(p, i int, v byte) {
	var d []byte
	d = b.own(p)[i:]
	e := d[1:]
	e[0] = v
}

func (b *Bus) GoodAlias(p, i, j int, s []byte) {
	if string(b.pages[p][i:j]) == string(s) {
		return
	}
	copy(b.own(p)[i:j], s)
	b.gens[p]++
	b.stamp++
}

func (b *Bus) ReadOnlyAlias(p int, dst []byte) int {
	d := b.pages[p][:]
	n := copy(dst, d)
	for n < len(dst) {
		n += copy(dst[n:], d)
	}
	return n
}
`
	msgs := runOne(t, analyzers.Genbump, "ssos/testdata/genbump", src)
	wantFindings(t, msgs, "Bad", "BadCopy", "BadAliasCopy", "BadAliasIndex")
}

// TestGenbumpFlagsPageTableWrites: a write into page memory through the
// page table — indexed, copied into, through a local taken from it, or
// through a whole-page store — is flagged even when it bumps, since on
// a shared page it writes what a fork or the zero page also holds; so
// is repointing a page-table entry outside the owning accessor.
func TestGenbumpFlagsPageTableWrites(t *testing.T) {
	src := genbumpBus + `
func (b *Bus) BadTable(p, o int, v byte) {
	b.pages[p][o] = v
	b.bump(p)
}

func (b *Bus) BadTableCopy(p int, s []byte) {
	copy(b.pages[p][:], s)
	b.bump(p)
}

func (b *Bus) BadTableAlias(p, o int) {
	pg := b.pages[p]
	pg[o]++
	b.bump(p)
}

func (b *Bus) BadTablePage(p int) {
	*b.pages[p] = page{}
	b.bump(p)
}

func (b *Bus) BadRepoint(p int) {
	b.pages[p] = new(page)
	b.bump(p)
}

func (b *Bus) GoodOwned(p, o int) {
	pg := b.own(p)
	pg[o]++
	b.bump(p)
}
`
	msgs := runOne(t, analyzers.Genbump, "ssos/testdata/genpages", src)
	wantFindings(t, msgs, "BadTable", "BadTableCopy", "BadTableAlias", "BadTablePage", "BadRepoint")
}

// TestGenbumpStampRule: a direct generation bump that skips the
// bus-wide write stamp is flagged — the superblock engine's one-compare
// fast path proves "nothing changed" from the stamp alone, so every
// gens bump must advance it, directly or via a sibling in the
// stamp-advancing closure.
func TestGenbumpStampRule(t *testing.T) {
	src := genbumpBus + `
func (b *Bus) touch() { b.stamp++ }

func (b *Bus) GoodDirect(p, o int, v byte) {
	b.own(p)[o] = v
	b.gens[p]++
	b.stamp++
}

func (b *Bus) GoodViaSibling(p, o int, v byte) {
	b.own(p)[o] = v
	b.gens[p]++
	b.touch()
}

func (b *Bus) BadNoStamp(p, o int, v byte) {
	b.own(p)[o] = v
	b.gens[p]++
}

func (b *Bus) BadCopyNoStamp(p int, s []byte) {
	copy(b.own(p)[:], s)
	b.gens[p]++
}

func (b *Bus) BadLoop() {
	for i := range b.gens {
		b.gens[i]++
	}
}
`
	msgs := runOne(t, analyzers.Genbump, "ssos/testdata/genstamp", src)
	wantFindings(t, msgs, "BadNoStamp", "BadCopyNoStamp", "BadLoop")
	for _, m := range msgs {
		if !strings.Contains(m, "stamp") {
			t.Errorf("stamp-rule finding does not mention the stamp: %s", m)
		}
	}
}

// TestDetmapFlagsOrderSensitiveRange: map ranges that leak iteration
// order are flagged; pure key-indexed transfers are not.
func TestDetmapFlagsOrderSensitiveRange(t *testing.T) {
	src := `package obs

func Leaky(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func Transfer(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = v
	}
	return out
}

func Accumulate(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

func Count(m map[string]int) map[string]int {
	c := map[string]int{}
	for k := range m {
		c[k]++
	}
	return c
}

func SliceLoop(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}
`
	msgs := runOne(t, analyzers.Detmap, "ssos/testdata/detmap", src)
	if len(msgs) != 1 {
		t.Fatalf("got %d findings, want 1 (Leaky only):\n%s", len(msgs), strings.Join(msgs, "\n"))
	}
	if !strings.Contains(msgs[0], "map m") {
		t.Errorf("finding does not name the map: %s", msgs[0])
	}
}

// TestDetmapSanctionsSortedKeyCollect: the sorted-iteration prologue —
// collect the keys, sort them immediately — is order-insensitive and
// must pass; collecting without the sort (or sorting a different
// slice) still leaks iteration order and must be flagged.
func TestDetmapSanctionsSortedKeyCollect(t *testing.T) {
	src := `package obs

import "sort"

func Sorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func SortedSlice(m map[int][]uint64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func Unsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func SortsOther(m map[string]int, other []string) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}
`
	msgs := runOne(t, analyzers.Detmap, "ssos/testdata/detmapsort", src)
	if len(msgs) != 2 {
		t.Fatalf("got %d findings, want 2 (Unsorted, SortsOther):\n%s", len(msgs), strings.Join(msgs, "\n"))
	}
}

// TestProbenilFlagsUnguardedEmit: Emit on an obs.Probe-typed value
// without a preceding nil comparison in the same function is flagged.
func TestProbenilFlagsUnguardedEmit(t *testing.T) {
	src := `package probetest

import "ssos/internal/obs"

type holder struct {
	p obs.Probe
}

func (h *holder) guarded(e obs.Event) {
	if h.p != nil {
		h.p.Emit(e)
	}
}

func (h *holder) earlyReturn(e obs.Event) {
	if h.p == nil {
		return
	}
	h.p.Emit(e)
}

func (h *holder) unguarded(e obs.Event) {
	h.p.Emit(e)
}

type notProbe struct{}

func (notProbe) Emit(s string) {}

func otherEmit(n notProbe) {
	n.Emit("fine")
}
`
	msgs := runOne(t, analyzers.Probenil, "ssos/testdata/probenil", src)
	if len(msgs) != 1 {
		t.Fatalf("got %d findings, want 1 (unguarded only):\n%s", len(msgs), strings.Join(msgs, "\n"))
	}
	if !strings.Contains(msgs[0], "unguarded") {
		t.Errorf("finding does not name the function: %s", msgs[0])
	}
}

// TestNodetermFlagsClockAndGlobalRand: wall-clock calls and global rng
// draws are flagged; seeded construction and *rand.Rand methods pass.
func TestNodetermFlagsClockAndGlobalRand(t *testing.T) {
	src := `package core

import (
	"math/rand"
	"time"
)

func bad() int64 {
	t := time.Now()
	_ = time.Since(t)
	return rand.Int63()
}

func good(seed int64) uint64 {
	r := rand.New(rand.NewSource(seed))
	return r.Uint64()
}

func alsoFine(d time.Duration) time.Duration {
	return d * 2
}
`
	msgs := runOne(t, analyzers.Nodeterm, "ssos/testdata/nodeterm", src)
	if len(msgs) != 3 {
		t.Fatalf("got %d findings, want 3 (Now, Since, Int63):\n%s", len(msgs), strings.Join(msgs, "\n"))
	}
	for _, want := range []string{"time.Now", "time.Since", "rand.Int63"} {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no finding mentioning %q in %v", want, msgs)
		}
	}
}

// runGlobalOne applies a single global analyzer to synthetic source
// forming a one-package load set.
func runGlobalOne(t *testing.T, a *analyzers.GlobalAnalyzer, path, src string) []string {
	t.Helper()
	l := newLoader(t)
	pkg, err := l.CheckSource(path, src)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	var msgs []string
	a.Run([]*analyzers.Package{pkg}, func(pos token.Pos, format string, args ...any) {
		msgs = append(msgs, fmt.Sprintf(format, args...))
	})
	return msgs
}

// TestNoallocFlagsAllocationClasses: one crafted violation per noalloc
// rule class, each asserting the exact finding string. The hotpath root
// reaches every violator by plain static call; the alloc-ok exemption
// stops traversal.
func TestNoallocFlagsAllocationClasses(t *testing.T) {
	src := `package machine

import "fmt"

type point struct{ x, y int }

//ssos:hotpath
func root() {
	sliceLit()
	mapLit()
	escape()
	closure()
	mapIndex(nil)
	mapRange(nil)
	appendGrow(nil)
	makeIt()
	newIt()
	mapDelete(nil)
	boxArg()
	convert()
	external()
	coldBuild()
	valueLit()
}

func sliceLit() []int          { v := []int{1, 2}; return v }
func mapLit() map[int]int      { m := map[int]int{}; return m }
func escape() *point           { return &point{1, 2} }
func closure() func() int      { n := 0; return func() int { n++; return n } }
func mapIndex(m map[int]int) int { return m[3] }
func mapRange(m map[int]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
func appendGrow(s []int) []int { return append(s, 1) }
func makeIt() []int            { return make([]int, 4) }
func newIt() *point            { return new(point) }
func mapDelete(m map[int]int)  { delete(m, 1) }
func sink(v any)               { _ = v }
func boxArg()                  { sink(42) }
func convert() any             { n := 7; return any(n) }
func external()                { fmt.Sprint(1) }
func valueLit() point          { return point{3, 4} }

//ssos:alloc-ok one-time build path, amortized
func coldBuild() []int { return make([]int, 8) }

func unreachable() []int { return make([]int, 16) }
`
	msgs := runGlobalOne(t, analyzers.Noalloc, "ssos/testdata/noalloc", src)
	want := []string{
		"hot path appendGrow allocates: append may grow its backing array",
		"hot path boxArg allocates: int argument boxed into interface parameter",
		"hot path closure allocates: function literal (closure)",
		"hot path convert allocates: conversion to interface type any",
		"hot path escape allocates: composite literal escapes through &",
		"hot path external calls fmt.Sprint outside the module (allocation behaviour unknown)",
		"hot path makeIt allocates: make",
		"hot path mapDelete uses a map operation: delete",
		"hot path mapIndex uses a map operation: index",
		"hot path mapLit allocates: map literal",
		"hot path mapRange uses a map operation: range",
		"hot path newIt allocates: new",
		"hot path sliceLit allocates: slice literal",
	}
	got := append([]string(nil), msgs...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("noalloc findings mismatch:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestNoallocReferenceClosure: a function mentioned (not called) on the
// hot path — the dispatch-table pattern — is pulled into the closure;
// functions with no path from a root are not checked.
func TestNoallocReferenceClosure(t *testing.T) {
	src := `package machine

var table [2]func() []int

//ssos:hotpath
func install() {
	table[0] = executor
}

func executor() []int { return make([]int, 4) }

func cold() []int { return make([]int, 4) }
`
	msgs := runGlobalOne(t, analyzers.Noalloc, "ssos/testdata/noallocref", src)
	want := []string{"hot path executor allocates: make"}
	if !reflect.DeepEqual(msgs, want) {
		t.Errorf("got %v, want %v", msgs, want)
	}
}

// TestLockzoneFlagsUnguardedAccess: one crafted violation per lockzone
// rule class — plain unguarded access, access after a source-order
// Unlock, untrackable owner — with exact finding strings; the guarded
// patterns (defer, early-return bail-out, //ssos:locked annotation,
// fresh construction) must pass.
func TestLockzoneFlagsUnguardedAccess(t *testing.T) {
	src := `package obs

import "sync"

type box struct {
	mu sync.Mutex
	//ssos:guarded-by mu
	val int
}

func (b *box) Good() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val
}

func (b *box) GoodEarlyReturn(stop bool) int {
	b.mu.Lock()
	if stop {
		b.mu.Unlock()
		return 0
	}
	v := b.val
	b.mu.Unlock()
	return v
}

// goodLocked runs with the lock held by its caller.
//
//ssos:locked mu
func (b *box) goodLocked() int { return b.val }

func goodFresh() *box {
	b := &box{}
	b.val = 1
	return b
}

func (b *box) Bad() int { return b.val }

func (b *box) BadAfterUnlock() int {
	b.mu.Lock()
	b.mu.Unlock()
	return b.val
}

func BadUntrackable(bs []*box) int {
	return bs[0].val
}
`
	msgs := runOne(t, analyzers.Lockzone, "ssos/testdata/lockzone", src)
	want := []string{
		"lockzone@39: field b.val is guarded by b.mu but accessed without holding it",
		"lockzone@44: field b.val is guarded by b.mu but accessed without holding it",
		"lockzone@48: guarded field val accessed through an untrackable expression",
	}
	got := append([]string(nil), msgs...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lockzone findings mismatch:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestAnalyzersRepoClean runs the full suite — per-package and global —
// over the entire module: the repository must stay lint-clean, and the
// run must be deterministic.
func TestAnalyzersRepoClean(t *testing.T) {
	l := newLoader(t)
	pkgs, err := l.Load([]string{"./..."})
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded; pattern expansion is broken", len(pkgs))
	}
	diags := analyzers.Run(pkgs, analyzers.All())
	diags = append(diags, analyzers.RunGlobal(pkgs, analyzers.AllGlobal())...)
	analyzers.Sort(diags)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	again := analyzers.Run(pkgs, analyzers.All())
	again = append(again, analyzers.RunGlobal(pkgs, analyzers.AllGlobal())...)
	analyzers.Sort(again)
	if !reflect.DeepEqual(diags, again) {
		t.Error("analyzer output is not deterministic across runs")
	}
}

// TestLoadCleansPattern: a directory pattern loads under its clean
// import path whatever its spelling, so the path-scoped analyzers
// (genbump, detmap, lockzone, nodeterm) see it. Under a path such as
// ssos/internal/mem/ they would skip the package without a word.
func TestLoadCleansPattern(t *testing.T) {
	l := newLoader(t)
	for _, pat := range []string{"./internal/mem", "./internal/mem/", "internal/mem", "./internal/./mem//"} {
		pkgs, err := l.Load([]string{pat})
		if err != nil {
			t.Fatalf("Load %q: %v", pat, err)
		}
		if len(pkgs) != 1 || pkgs[0].Path != "ssos/internal/mem" || !analyzers.Genbump.Applies(pkgs[0].Path) {
			var got []string
			for _, p := range pkgs {
				got = append(got, p.Path)
			}
			t.Errorf("Load %q = %v, want [ssos/internal/mem], which genbump applies to", pat, got)
		}
	}
}

// TestAppliesScoping pins the path predicates: genbump only sees
// internal/mem, detmap only the deterministic result packages,
// nodeterm the simulation core.
func TestAppliesScoping(t *testing.T) {
	cases := []struct {
		a    *analyzers.Analyzer
		path string
		want bool
	}{
		{analyzers.Genbump, "ssos/internal/mem", true},
		{analyzers.Genbump, "ssos/internal/machine", false},
		{analyzers.Detmap, "ssos/internal/cluster", true},
		{analyzers.Detmap, "ssos/internal/obs", true},
		{analyzers.Detmap, "ssos/internal/expt", true},
		{analyzers.Detmap, "ssos/internal/analyzers", false},
		{analyzers.Nodeterm, "ssos/internal/machine", true},
		{analyzers.Nodeterm, "ssos/cmd/ssos-run", false},
		{analyzers.Lockzone, "ssos/internal/obs", true},
		{analyzers.Lockzone, "ssos/internal/serve", true},
		{analyzers.Lockzone, "ssos/internal/machine", false},
	}
	for _, c := range cases {
		if got := c.a.Applies(c.path); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
	if analyzers.Probenil.Applies != nil {
		t.Error("probenil should apply to every package (Applies == nil)")
	}
}
