package serve

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"ssos/internal/core"
	"ssos/internal/guest"
	"ssos/internal/model"
)

// TestReachableImagesHaveLintSpecs is the spec-completeness check: every
// ROM image a client can reach — through the named image catalog (the
// construction path of ssos-run and the daemon) or through the ring
// fleet's per-node builds (ssos-cluster -ring) — must be byte-identical
// to some entry of guest.LintImages(), so the bytes the simulator
// installs are bytes the lint suite proves. A builder variant added to
// core without a matching lintspec entry fails here.
func TestReachableImagesHaveLintSpecs(t *testing.T) {
	lint, err := guest.LintImages()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		n   int
		sum [sha256.Size]byte
	}
	index := map[key]string{}
	lens := map[int]bool{}
	for _, img := range lint {
		index[key{len(img.Bytes), sha256.Sum256(img.Bytes)}] = img.Name
		lens[len(img.Bytes)] = true
	}
	var sizes []int
	for n := range lens {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes))) // longest match wins
	maxLen := sizes[0]

	// lookup matches a peeked ROM region against the lint set by prefix
	// (spec images carry only their own bytes; the mapped region may be
	// longer).
	lookup := func(region []byte) (string, bool) {
		for _, n := range sizes {
			if n > len(region) {
				continue
			}
			if name, ok := index[key{n, sha256.Sum256(region[:n])}]; ok {
				return name, true
			}
		}
		return "", false
	}

	peek := func(s *core.System, start uint32, size int) []byte {
		b := make([]byte, size)
		for off := range b {
			b[off] = s.M.Bus.Peek(start + uint32(off))
		}
		return b
	}
	allZero := func(b []byte) bool {
		for _, x := range b {
			if x != 0 {
				return false
			}
		}
		return true
	}

	matched := 0
	check := func(label string, cfg core.Config) {
		s, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		regions := []struct {
			name  string
			start uint32
			size  int
		}{
			{"os-image", uint32(guest.OSROMSeg) << 4, maxLen},
			{"handler-rom", uint32(guest.HandlerROMSeg) << 4, maxLen},
		}
		for i := 0; i < guest.NumProcs; i++ {
			regions = append(regions, struct {
				name  string
				start uint32
				size  int
			}{fmt.Sprintf("proc-%d", i), uint32(guest.ProcROMSeg(i)) << 4, guest.ProcRegionSize})
		}
		for _, r := range regions {
			b := peek(s, r.start, r.size)
			if allZero(b) {
				continue // this approach maps no ROM here
			}
			if name, ok := lookup(b); ok {
				matched++
				_ = name
			} else {
				t.Errorf("%s: installed %s ROM matches no lint spec", label, r.name)
			}
		}
	}

	// Every named image of the catalog — the ssos-run / daemon surface.
	for _, img := range Images() {
		check("image "+img.Name, img.Cfg)
	}
	// The flag-reachable variants ssos-run adds on top of the catalog.
	check("scheduler -protect", core.Config{Approach: core.ApproachScheduler, ProtectMemory: true})
	// Every per-node build the ring fleet can request (ssos-cluster -ring).
	for _, v := range guest.RingVariants() {
		for n := 2; n <= model.MaxRingNodes; n++ {
			for node := 0; node < n; node++ {
				check(fmt.Sprintf("fleet %v n=%d node=%d", v, n, node), core.Config{
					Approach: core.ApproachScheduler,
					Workload: core.MailboxWorkload(v),
					RingNode: node, RingNodes: n,
				})
			}
		}
	}

	if matched < 100 {
		t.Fatalf("only %d ROM regions matched — the check is not seeing installed images", matched)
	}
	t.Logf("%d installed ROM regions matched lint specs", matched)
}
