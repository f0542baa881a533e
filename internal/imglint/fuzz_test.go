package imglint_test

import (
	"reflect"
	"testing"

	"ssos/internal/guest"
	"ssos/internal/imglint"
	"ssos/internal/isa"
)

// mailboxSeedImages returns the assembled mailbox ring node images —
// real certified bytes, the highest-value seeds for both fuzzers since
// every interesting code shape (normalizers, guards, beat footer,
// slot padding) appears in them.
func mailboxSeedImages(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, v := range guest.RingVariants() {
		set, err := guest.BuildMailboxProcesses(v)
		if err != nil {
			tb.Fatalf("BuildMailboxProcesses(%v): %v", v, err)
		}
		for i := 0; i < guest.MailboxNodes; i++ {
			out = append(out, set.Images[i])
		}
	}
	return out
}

// lintSeed is one FuzzImageLint input.
type lintSeed struct {
	img                []byte
	codeEnd, entry, cs uint16
}

// lintSeeds returns FuzzImageLint's seed corpus: small crafted images,
// then the certified mailbox ring images plus crafted near-misses
// (tampered head, truncated tail) kept as regression counterexamples
// for the certificate checker's lifted-CFG path.
func lintSeeds(tb testing.TB) []lintSeed {
	seeds := []lintSeed{
		{[]byte{}, 0, 0, 0},
		{[]byte{0x40, 0x00, 0x00}, 0, 3, 0},
		{[]byte{0xFF, 0x00, 0x90, 0x40}, 2, 1, 0x2000},
		{make([]byte, 64), 64, 16, 0xFFFF},
	}
	for _, img := range mailboxSeedImages(tb) {
		tampered := append([]byte(nil), img...)
		tampered[0] = byte(isa.OpHlt)
		seeds = append(seeds,
			lintSeed{img, uint16(len(img)), 0, 0xA000},
			lintSeed{tampered, uint16(len(img)), 0, 0xA000},
			lintSeed{img[:len(img)/2], uint16(len(img)), 16, 0xA000})
	}
	return seeds
}

// lintSpec is the adversarial spec FuzzImageLint checks an input under:
// every check enabled.
func lintSpec(s lintSeed) imglint.Image {
	return imglint.Image{
		Name:         "fuzz",
		Bytes:        s.img,
		Seg:          0xF000,
		Entries:      []imglint.Entry{{Name: "e", Off: s.entry}},
		CodeEnd:      int(s.codeEnd),
		CheckFill:    true,
		FillTarget:   0,
		SlotPadded:   true,
		StraightLine: true,
		Tables:       []imglint.Table{{Name: "t", Off: s.entry, Want: []uint16{s.cs}}},
		CSAllowed:    []uint16{s.cs},
		ROM:          []imglint.Range{{Name: "rom", Start: 0xF0000, End: 0x100000}},
	}
}

// FuzzImageLint feeds arbitrary byte images through every check with
// an adversarial spec: Check must never panic and must return the same
// verdict for the same input.
func FuzzImageLint(f *testing.F) {
	for _, s := range lintSeeds(f) {
		f.Add(s.img, s.codeEnd, s.entry, s.cs)
	}
	f.Fuzz(func(t *testing.T, img []byte, codeEnd, entry, cs uint16) {
		spec := lintSpec(lintSeed{img, codeEnd, entry, cs})
		first := imglint.Check(spec)
		if again := imglint.Check(spec); !reflect.DeepEqual(first, again) {
			t.Fatalf("verdict not deterministic:\n%v\nvs\n%v", first, again)
		}
	})
}

// FuzzRingCert swaps arbitrary bytes into one node of the smallest
// catalog certificate and re-runs the prover: CheckRingCert must never
// panic, must return the identical result twice, and whenever it
// proves, the bound must equal the ranked bound plus the mid-entry
// grace — i.e. a proof is always a real ranking proof, never a
// degenerate verdict. (Byte
// mutations may still legitimately prove: the extraction is semantic,
// and e.g. truncating trailing padding leaves the step loop intact.)
// Tampered and truncated catalog images ride in the seed corpus as
// kept counterexamples.
func FuzzRingCert(f *testing.F) {
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		f.Fatalf("ConvergenceCerts: %v", err)
	}
	var base *guest.RingCertSpec
	for i := range specs {
		if specs[i].Cert.Name == "mbox-dijkstra3-n2" {
			base = &specs[i]
		}
	}
	if base == nil {
		f.Fatal("no mbox-dijkstra3-n2 certificate in the catalog")
	}
	for i, node := range base.Cert.Nodes {
		f.Add(uint8(i), node.Image.Bytes)
		tampered := append([]byte(nil), node.Image.Bytes...)
		tampered[0] = byte(isa.OpHlt)
		f.Add(uint8(i), tampered)
		f.Add(uint8(i), node.Image.Bytes[:len(node.Image.Bytes)/2])
		f.Add(uint8(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, idx uint8, img []byte) {
		i := int(idx) % len(base.Cert.Nodes)
		cert := base.Cert
		cert.Nodes = append([]imglint.RingNode(nil), base.Cert.Nodes...)
		cert.Nodes[i].Image.Bytes = img
		first := imglint.CheckRingCert(cert)
		again := imglint.CheckRingCert(cert)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("result not deterministic: %+v vs %+v", first, again)
		}
		if first.Proved() {
			if first.Mode != "ranking" {
				t.Fatalf("proved in mode %q, want ranking (n=%d fits the cap)", first.Mode, first.N)
			}
			if first.Bound != first.RankBound+first.N || first.RankBound < 0 {
				t.Fatalf("degenerate proof: bound %d, rank %d, n %d", first.Bound, first.RankBound, first.N)
			}
		}
	})
}

// TestFixpointMatchesReference: the id-indexed lint fixpoint computes,
// at every lifted node, exactly the state the offset-keyed reference
// does — on every catalog image and every FuzzImageLint seed.
func TestFixpointMatchesReference(t *testing.T) {
	imgs, err := guest.LintImages()
	if err != nil {
		t.Fatalf("LintImages: %v", err)
	}
	for _, s := range lintSeeds(t) {
		imgs = append(imgs, lintSpec(s))
	}
	for _, img := range imgs {
		if diff := imglint.FixpointMatchesReference(img); diff != "" {
			t.Error(diff)
		}
	}
}
