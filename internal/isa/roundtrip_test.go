package isa_test

import (
	"fmt"
	"testing"

	"ssos/internal/guest"
	"ssos/internal/isa"
)

// TestGuestImagesRoundTrip disassembles every full guest ROM image and
// re-encodes each instruction, requiring byte-for-byte identity. This
// closes the gap imglint's CFG lifter rests on: the decoder's view of
// an image is exactly the image (no instruction decodes to something
// that would encode differently), so properties proved about decoded
// instructions are properties of the ROM bytes.
func TestGuestImagesRoundTrip(t *testing.T) {
	specs, err := guest.LintImages()
	if err != nil {
		t.Fatalf("LintImages: %v", err)
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// Walk the decodable prefix: code plus (when present) the
			// self-synchronizing fill. The data sections beyond are not
			// instruction streams.
			bound := spec.CodeEnd
			if bound == 0 {
				bound = len(spec.Bytes)
			}
			if spec.CheckFill {
				bound = spec.FillEnd
				if bound == 0 {
					bound = len(spec.Bytes)
				}
			}
			// Embedded data tables are skipped by range.
			inTable := func(off int) (int, bool) {
				for _, tab := range spec.Tables {
					start, end := int(tab.Off), int(tab.Off)+2*len(tab.Want)
					if off >= start && off < end {
						return end, true
					}
				}
				return 0, false
			}

			instrs := 0
			for off := 0; off < bound; {
				if end, ok := inTable(off); ok {
					off = end
					continue
				}
				in, size, ok := isa.Decode(spec.Bytes[off:bound])
				if !ok {
					t.Fatalf("%s+%#04x: image byte %#02x does not decode", spec.Name, off, spec.Bytes[off])
				}
				re := in.Encode(nil)
				if len(re) != size {
					t.Fatalf("%s+%#04x: %v decoded from %d bytes, re-encodes to %d", spec.Name, off, in, size, len(re))
				}
				for i, b := range re {
					if b != spec.Bytes[off+i] {
						t.Fatalf("%s+%#04x: %v re-encodes to % x, image has % x",
							spec.Name, off, in, re, spec.Bytes[off:off+size])
					}
				}
				instrs++
				off += size
			}
			if instrs == 0 {
				t.Fatalf("%s: no instructions round-tripped", spec.Name)
			}
		})
	}
}

// TestRoundTripCoversAllBuilders pins the sweep's breadth: every
// builder family must appear, so a new image cannot silently skip the
// round-trip (and lint) sweep.
func TestRoundTripCoversAllBuilders(t *testing.T) {
	specs, err := guest.LintImages()
	if err != nil {
		t.Fatalf("LintImages: %v", err)
	}
	got := map[string]bool{}
	for _, s := range specs {
		got[s.Name] = true
	}
	for _, want := range []string{
		"kernel", "kernel-padded", "kernel-tickful", "primitive",
		"handler-reinstall", "handler-continue", "handler-monitor", "handler-checkpoint",
		"scheduler", "scheduler-validate-ds", "scheduler-protect",
	} {
		if !got[want] {
			t.Errorf("LintImages is missing %q", want)
		}
	}
	for i := 0; i < guest.NumProcs; i++ {
		for _, prefix := range []string{"proc", "mbox-kstate", "mbox-dijkstra3", "mbox-ghosh4"} {
			name := fmt.Sprintf("%s-%d", prefix, i)
			if !got[name] {
				t.Errorf("LintImages is missing %q", name)
			}
		}
	}
}
