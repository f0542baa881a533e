package imglint_test

import (
	"fmt"
	"reflect"
	"testing"

	"ssos/internal/guest"
	"ssos/internal/imglint"
	"ssos/internal/isa"
)

// certByName builds the full certificate catalog and returns one spec.
func certByName(t *testing.T, name string) guest.RingCertSpec {
	t.Helper()
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		t.Fatalf("ConvergenceCerts: %v", err)
	}
	for _, s := range specs {
		if s.Cert.Name == name {
			return s
		}
	}
	t.Fatalf("no certificate named %q", name)
	return guest.RingCertSpec{}
}

// TestConvergenceCertsProve: every catalog certificate proves, and the
// ranking-mode ones carry a finite steps-to-legal bound.
func TestConvergenceCertsProve(t *testing.T) {
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		t.Fatalf("ConvergenceCerts: %v", err)
	}
	if len(specs) < 18 {
		t.Fatalf("only %d certificates in the catalog, want >= 18", len(specs))
	}
	modes := map[string]int{}
	for _, spec := range specs {
		r := imglint.CheckRingCert(spec.Cert)
		if !r.Proved() {
			t.Errorf("%s: not proved:", r.Name)
			for _, f := range r.Findings {
				t.Errorf("  %s", f)
			}
			continue
		}
		modes[r.Mode]++
		if r.Mode == "ranking" && r.Bound < r.N {
			t.Errorf("%s: bound %d below the mid-entry grace %d", r.Name, r.Bound, r.N)
		}
	}
	if modes["ranking"] < 12 {
		t.Errorf("only %d ranking-mode certificates, want >= 12 (got %v)", modes["ranking"], modes)
	}
}

// TestCertDeterministic: the checker's result is identical across runs
// on the same certificate, findings included, for a proving
// certificate and a failing one.
func TestCertDeterministic(t *testing.T) {
	for _, name := range []string{"mbox-dijkstra3", "mbox-kstate-n4"} {
		a := imglint.CheckRingCert(certByName(t, name).Cert)
		b := imglint.CheckRingCert(certByName(t, name).Cert)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: result not deterministic: %+v vs %+v", name, a, b)
		}
	}
	broken := certByName(t, "mbox-dijkstra3-n4")
	broken.Cert.Legal = func(x []uint16) bool { return x[0] == 0 }
	a, b := imglint.CheckRingCert(broken.Cert), imglint.CheckRingCert(broken.Cert)
	if len(a.Findings) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("broken legal set: result not deterministic or proved: %+v vs %+v", a, b)
	}
}

// wantFindings compares a result's findings with the complete expected
// list: image, check, offset, message and order.
func wantFindings(t *testing.T, r imglint.CertResult, want []imglint.Finding) {
	t.Helper()
	if reflect.DeepEqual(r.Findings, want) {
		return
	}
	t.Errorf("%s: %d findings, want %d", r.Name, len(r.Findings), len(want))
	for i := 0; i < max(len(r.Findings), len(want)); i++ {
		var got, exp string
		if i < len(r.Findings) {
			got = r.Findings[i].String()
		}
		if i < len(want) {
			exp = want[i].String()
		}
		if got != exp {
			t.Errorf("finding %d:\n got  %s\n want %s", i, got, exp)
		}
	}
}

// noPaths is the extraction finding for a triple of dijkstra3's bottom
// node (which reads only its right neighbour) whose walk never
// completes.
func noPaths(img string, self, right int) imglint.Finding {
	return imglint.Finding{Image: img, Check: "cert-extraction", Offset: -1,
		Msg: fmt.Sprintf("triple (self=%d,l=0,r=%d) yielded 0 completed paths, want exactly 1", self, right)}
}

// TestCertTamperedImageFails: planting a forbidden instruction in the
// certified bytes (hlt at the iteration head) breaks the graph
// obligations — the certificate must not prove. The hlt's one-byte
// encoding also shifts the decode of the head slot, and no singleton
// walk can complete.
func TestCertTamperedImageFails(t *testing.T) {
	spec := certByName(t, "mbox-dijkstra3")
	bytes := append([]byte(nil), spec.Cert.Nodes[0].Image.Bytes...)
	bytes[0] = byte(isa.OpHlt)
	spec.Cert.Nodes[0].Image.Bytes = bytes
	r := imglint.CheckRingCert(spec.Cert)
	if r.Proved() {
		t.Fatal("tampered image (hlt at head) still proves")
	}
	const img = "mbox-dijkstra3-0"
	want := []imglint.Finding{
		{Image: img, Check: "reachability", Offset: 0x3, Msg: "reachable offset does not decode to a valid instruction (byte 0xa0)"},
		{Image: img, Check: "cert-termination", Offset: 0x0, Msg: `certified image uses forbidden instruction "hlt"`},
	}
	for self := 0; self < 3; self++ {
		for right := 0; right < 3; right++ {
			want = append(want, noPaths(img, self, right))
		}
	}
	wantFindings(t, r, want)
}

// TestCertWrongMovesFails: a declared move table that disagrees with
// the shipped bytes is caught by the extraction cross-check — the
// declared protocol cannot silently drift from the ROM.
func TestCertWrongMovesFails(t *testing.T) {
	spec := certByName(t, "mbox-dijkstra3")
	orig := spec.Cert.Moves
	spec.Cert.Moves = func(node int, self, left, right uint16) (bool, uint16) {
		w, v := orig(node, self, left, right)
		if node == 1 && w {
			return true, (v + 1) % 3 // deliberately wrong successor value
		}
		return w, v
	}
	r := imglint.CheckRingCert(spec.Cert)
	if r.Proved() {
		t.Fatal("certificate with a wrong declared move table still proves")
	}
	const img = "mbox-dijkstra3-1"
	var want []imglint.Finding
	for _, m := range []struct{ self, l, r, got, declared int }{
		{0, 0, 1, 1, 2}, {0, 1, 0, 1, 2}, {0, 1, 1, 1, 2}, {0, 1, 2, 1, 2}, {0, 2, 1, 1, 2},
		{1, 0, 2, 2, 0}, {1, 1, 2, 2, 0}, {1, 2, 0, 2, 0}, {1, 2, 1, 2, 0}, {1, 2, 2, 2, 0},
		{2, 0, 0, 0, 1}, {2, 0, 1, 0, 1}, {2, 0, 2, 0, 1}, {2, 1, 0, 0, 1}, {2, 2, 0, 0, 1},
	} {
		want = append(want, imglint.Finding{Image: img, Check: "cert-extraction", Offset: -1,
			Msg: fmt.Sprintf("triple (self=%d,l=%d,r=%d): extracted move (write=true value=%d) differs from declared (write=true value=%d)",
				m.self, m.l, m.r, m.got, m.declared)})
	}
	wantFindings(t, r, want)
}

// TestCertLegalSetNotClosed: a legal set of one configuration is not
// closed under the extracted relation — its privileged node steps out
// of it — and the product pass reports the step instead of ranking.
func TestCertLegalSetNotClosed(t *testing.T) {
	spec := certByName(t, "mbox-dijkstra3")
	spec.Cert.Legal = func(x []uint16) bool { return reflect.DeepEqual(x, []uint16{0, 1, 0}) }
	r := imglint.CheckRingCert(spec.Cert)
	wantFindings(t, r, []imglint.Finding{{Image: "mbox-dijkstra3", Check: "cert-closure", Offset: -1,
		Msg: "legal state [0 1 0] steps to illegal [2 1 0]"}})
	if r.Mode != "ranking" || r.Bound != -1 {
		t.Errorf("mode %q bound %d, want ranking and -1", r.Mode, r.Bound)
	}
}

// TestCertIllegalDeadlock: a node whose iteration is a bare `jmp 0`
// never writes its slot, so its one illegal configuration has no
// successor. Heights would rank that state 1; the product pass reports
// it as a deadlock instead.
func TestCertIllegalDeadlock(t *testing.T) {
	code := isa.Inst{Op: isa.OpJmp, Imm: 0}.Encode(nil)
	cert := imglint.RingCert{
		Name:    "deadlock",
		N:       1,
		Slots:   []uint32{0xA000},
		Domains: [][]uint16{{0, 1}},
		Nodes: []imglint.RingNode{{
			Image: imglint.Image{Name: "jmp0", Bytes: code, Seg: 0x1000, CodeEnd: len(code)},
			Left:  -1, Right: -1, DataLo: 0x60000, DataHi: 0x60010,
		}},
		Legal: func(x []uint16) bool { return x[0] == 0 },
	}
	r := imglint.CheckRingCert(cert)
	wantFindings(t, r, []imglint.Finding{{Image: "deadlock", Check: "cert-ranking", Offset: -1,
		Msg: "illegal state [1] is deadlocked (no privileged node)"}})
	if r.Mode != "ranking" || r.Bound != -1 {
		t.Errorf("mode %q bound %d, want ranking and -1", r.Mode, r.Bound)
	}
}

// TestCertIllegalCycle: under a legal set that admits nothing, the
// extracted relation — deadlock-free, as every ring protocol is — runs
// forever among illegal states. The heights walk finds no finite
// height and reports a state from which the cycle is reachable.
func TestCertIllegalCycle(t *testing.T) {
	spec := certByName(t, "mbox-dijkstra3")
	spec.Cert.Legal = func(x []uint16) bool { return false }
	r := imglint.CheckRingCert(spec.Cert)
	wantFindings(t, r, []imglint.Finding{{Image: "mbox-dijkstra3", Check: "cert-ranking", Offset: -1,
		Msg: "illegal cycle reachable from state [0 0 0]"}})
	if r.Mode != "ranking" || r.Bound != -1 {
		t.Errorf("mode %q bound %d, want ranking and -1", r.Mode, r.Bound)
	}
}

// TestCertConfinementCatchesForeignStore: shrinking a node's declared
// data window turns its own in-window stores into confinement
// violations — the write-confinement obligation is live.
func TestCertConfinementCatchesForeignStore(t *testing.T) {
	spec := certByName(t, "mbox-dijkstra3")
	spec.Cert.Nodes[0].DataHi = spec.Cert.Nodes[0].DataLo // empty window
	r := imglint.CheckRingCert(spec.Cert)
	if r.Proved() {
		t.Fatal("empty data window still proves")
	}
	const img = "mbox-dijkstra3-0"
	outside := func(off int, lin string) imglint.Finding {
		return imglint.Finding{Image: img, Check: "cert-confinement", Offset: off,
			Msg: fmt.Sprintf("store to %s outside the node's slot and data window [0x060000,0x060000)", lin)}
	}
	park := outside(0xa0, "0x060006") // the parked right-neighbour read
	beat := outside(0x290, "0x060002")
	var want []imglint.Finding
	// The fork walk: both normalization paths park, and each of their
	// twelve paths through the guard stores the beat counter.
	for path := 0; path < 2; path++ {
		want = append(want, park)
		for range 12 {
			want = append(want, beat)
		}
	}
	// The singleton walks: the rejected park leaves the reload at 0xd0
	// unbounded, so the branch after its normalization cannot decide.
	for self := 0; self < 3; self++ {
		for right := 0; right < 3; right++ {
			want = append(want, park,
				imglint.Finding{Image: img, Check: "cert-extraction", Offset: 0x100,
					Msg: "branch undecided on a canonical singleton input — behaviour depends on unobservable state"},
				noPaths(img, self, right))
		}
	}
	wantFindings(t, r, want)
}

// TestCertWalkBudgetOnNopRun: a node image of 9,000 nops before its
// closing `jmp 0` cannot complete an iteration within the walk budget.
// Every walk reports the budget at the nop it would have stepped past
// the budget on, exactly as it does one instruction at a time.
func TestCertWalkBudgetOnNopRun(t *testing.T) {
	code := make([]byte, 9000) // 0x00 is nop
	code = isa.Inst{Op: isa.OpJmp, Imm: 0}.Encode(code)
	const img = "nop-run"
	cert := imglint.RingCert{
		Name:    "budget",
		N:       1,
		Slots:   []uint32{0xA000},
		Domains: [][]uint16{{0, 1}},
		Nodes: []imglint.RingNode{{
			Image: imglint.Image{Name: img, Bytes: code, Seg: 0x1000, CodeEnd: len(code)},
			Left:  -1, Right: -1, DataLo: 0x60000, DataHi: 0x60010,
		}},
		Legal: func(x []uint16) bool { return x[0] == 0 },
	}
	r := imglint.CheckRingCert(cert)
	budget := imglint.Finding{Image: img, Check: "cert-termination", Offset: 0x2000,
		Msg: "abstract walk exceeded 8192 steps without completing the iteration"}
	want := []imglint.Finding{budget}
	for self := 0; self < 2; self++ {
		want = append(want, budget, imglint.Finding{Image: img, Check: "cert-extraction", Offset: -1,
			Msg: fmt.Sprintf("triple (self=%d,l=0,r=0) yielded 0 completed paths, want exactly 1", self)})
	}
	wantFindings(t, r, want)
	if r.Mode != "local" || r.Bound != -1 {
		t.Errorf("mode %q bound %d, want local and -1", r.Mode, r.Bound)
	}
}

// TestCertRepeatedDomainValueRejected: a domain that repeats a value
// would alias two product positions and over-count the states; the
// certificate is rejected as malformed before any walk — also when the
// domain still holds every value the node writes.
func TestCertRepeatedDomainValueRejected(t *testing.T) {
	for _, dom := range [][]uint16{{0, 1, 1}, {0, 1, 1, 2}} {
		spec := certByName(t, "mbox-dijkstra3")
		spec.Cert.Domains = append([][]uint16(nil), spec.Cert.Domains...)
		spec.Cert.Domains[1] = dom
		r := imglint.CheckRingCert(spec.Cert)
		wantFindings(t, r, []imglint.Finding{{Image: "mbox-dijkstra3", Check: "cert-spec", Offset: -1,
			Msg: "slot 1 domain is not strictly ascending"}})
		if r.Mode != "local" || r.States != 0 {
			t.Errorf("domain %v: mode %q with %d states, want local with none", dom, r.Mode, r.States)
		}
	}
}

// TestCertNodeOrderIrrelevant: listing a certificate's nodes in reverse
// (node i then owns slot N-1-i) describes the same ring, so it proves
// with the same product and bounds — the product's successor arithmetic
// follows each node's slot, not its index.
func TestCertNodeOrderIrrelevant(t *testing.T) {
	for _, name := range []string{"mbox-dijkstra3-n4", "mbox-ghosh4-n5", "mbox-kstate-n3"} {
		spec := certByName(t, name)
		want := imglint.CheckRingCert(spec.Cert)
		rev := spec.Cert
		n := rev.N
		rev.Nodes = make([]imglint.RingNode, n)
		for i := range rev.Nodes {
			rev.Nodes[i] = spec.Cert.Nodes[n-1-i]
		}
		moves := spec.Cert.Moves
		rev.Moves = func(node int, self, left, right uint16) (bool, uint16) {
			return moves(n-1-node, self, left, right)
		}
		got := imglint.CheckRingCert(rev)
		if !got.Proved() || got.States != want.States || got.RankBound != want.RankBound || got.Bound != want.Bound {
			t.Errorf("%s reversed: proved=%v states %d rank %d bound %d, want states %d rank %d bound %d (%v)",
				name, got.Proved(), got.States, got.RankBound, got.Bound, want.States, want.RankBound, want.Bound, got.Findings)
		}
	}
}
