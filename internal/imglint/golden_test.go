package imglint_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ssos/internal/guest"
	"ssos/internal/imglint"
)

var update = flag.Bool("update", false, "rewrite testdata/mutations.json.gz from the current checker")

// goldenMutations is the checked-in record of the prover's and the
// linter's complete output on a seeded corpus of single-byte mutations
// of the catalog's images. It pins every verdict, bound and finding —
// text and order — so a change to how the checkers represent their
// state spaces cannot move any of them. Regenerate it with -update only
// when the catalog images change on purpose, from a checker already
// known to agree with the file on the old images. The record is
// gzipped JSON: the failing mutations carry up to a few hundred
// findings each.
const goldenMutations = "testdata/mutations.json.gz"

// mutation is one single-byte change to one catalog image: byte Off of
// node Node of certificate Target, or byte Off of lint image Target.
type mutation struct {
	Target string `json:"target"`
	Node   int    `json:"node"`
	Off    int    `json:"off"`
	Byte   byte   `json:"byte"`
}

type certCase struct {
	mutation
	Result imglint.CertResult `json:"result"`
}

type lintCase struct {
	mutation
	Findings []imglint.Finding `json:"findings"`
}

type mutationRecord struct {
	Certs []certCase `json:"certs"`
	Lint  []lintCase `json:"lint"`
}

// certMutations and lintMutations size the corpus. Every certificate
// and every lint image is drawn uniformly, and the byte from the
// image's code region: the only bytes the prover lifts, and the ones
// the lint fixpoint reads.
const (
	certMutations = 512
	lintMutations = 256
)

// mutate returns b with byte off replaced by a value drawn from rng
// that differs from the original.
func mutate(rng *rand.Rand, b []byte, off int) ([]byte, byte) {
	out := append([]byte(nil), b...)
	out[off] += byte(1 + rng.Intn(255))
	return out, out[off]
}

// codeLen is the code region length the checkers lift.
func codeLen(img imglint.Image) int {
	if img.CodeEnd > 0 && img.CodeEnd <= len(img.Bytes) {
		return img.CodeEnd
	}
	return len(img.Bytes)
}

// runMutations checks every mutation of the seeded corpus.
func runMutations(t *testing.T) mutationRecord {
	t.Helper()
	specs, err := guest.ConvergenceCerts()
	if err != nil {
		t.Fatalf("ConvergenceCerts: %v", err)
	}
	imgs, err := guest.LintImages()
	if err != nil {
		t.Fatalf("LintImages: %v", err)
	}
	rng := rand.New(rand.NewSource(18))
	var rec mutationRecord
	for range certMutations {
		sp := specs[rng.Intn(len(specs))]
		cert := sp.Cert
		cert.Nodes = append([]imglint.RingNode(nil), cert.Nodes...)
		m := mutation{Target: cert.Name, Node: rng.Intn(cert.N)}
		img := &cert.Nodes[m.Node].Image
		m.Off = rng.Intn(codeLen(*img))
		img.Bytes, m.Byte = mutate(rng, img.Bytes, m.Off)
		rec.Certs = append(rec.Certs, certCase{mutation: m, Result: imglint.CheckRingCert(cert)})
	}
	for range lintMutations {
		img := imgs[rng.Intn(len(imgs))]
		m := mutation{Target: img.Name, Off: rng.Intn(codeLen(img))}
		img.Bytes, m.Byte = mutate(rng, img.Bytes, m.Off)
		rec.Lint = append(rec.Lint, lintCase{mutation: m, Findings: imglint.Check(img)})
	}
	return rec
}

// TestMutationGolden re-runs the corpus and compares each case with the
// recorded output.
func TestMutationGolden(t *testing.T) {
	got := runMutations(t)
	if *update {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	if len(got.Certs) != len(want.Certs) || len(got.Lint) != len(want.Lint) {
		t.Fatalf("corpus has %d cert and %d lint cases, golden %d and %d",
			len(got.Certs), len(got.Lint), len(want.Certs), len(want.Lint))
	}
	proved, failed := 0, 0
	for i, w := range want.Certs {
		g := got.Certs[i]
		if g.Result.Proved() {
			proved++
		} else {
			failed++
		}
		// Compare through JSON so an empty and a nil findings list
		// agree, exactly as the file records them.
		if !sameJSON(t, g, w) {
			t.Errorf("cert case %d (%+v):\n got  %+v\n want %+v", i, w.mutation, g.Result, w.Result)
		}
	}
	for i, w := range want.Lint {
		if g := got.Lint[i]; !sameJSON(t, g, w) {
			t.Errorf("lint case %d (%+v):\n got  %v\n want %v", i, w.mutation, g.Findings, w.Findings)
		}
	}
	// The corpus must exercise both outcomes of the prover.
	if proved < 50 || failed < 50 {
		t.Errorf("corpus: %d mutated certificates prove, %d fail; want both well represented", proved, failed)
	}
}

// writeGolden records rec as the golden file.
func writeGolden(t *testing.T, rec mutationRecord) {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(rec); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenMutations), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenMutations, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGolden loads the golden file.
func readGolden(t *testing.T) mutationRecord {
	t.Helper()
	f, err := os.Open(goldenMutations)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var rec mutationRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// sameJSON reports whether a and b encode identically.
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
