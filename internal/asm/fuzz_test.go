package asm

import (
	"bytes"
	"testing"

	"ssos/internal/isa"
)

// FuzzAssemble feeds arbitrary source text to the assembler: it must
// either fail cleanly or produce code whose sequential decode never
// panics. Run with `go test -fuzz=FuzzAssemble ./internal/asm`.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"mov ax, 1\nhlt",
		"start:\n\tjmp start",
		"x equ 5\n\tmov word [ss:x-2], ax",
		"%pad on\n\tinc ax\n%pad off",
		"times 3 db 0xEE\nalign 8",
		"db \"hello\", 0\ndw start\nstart:",
		"\tout 0x10, ax\n\tin ax, dx",
		"; comment only",
		"lbl: lbl2:",
		"mov ax, $-$$",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		off := 0
		for off < len(p.Code) {
			_, size, ok := isa.Decode(p.Code[off:])
			if !ok {
				off++ // data bytes are fine; skip like the disassembler
				continue
			}
			off += size
		}
		_ = p.ListingString()
	})
}

// FuzzDecode feeds arbitrary bytes to the instruction decoder, which
// must be total (the self-stabilization model requires garbage bytes to
// decode as either a valid instruction or a clean fault). A decoded
// instruction must re-encode to its bytes, and its disassembly must
// reassemble to them, which ties the disassembler to the assembler's
// matcher.
func FuzzDecode(f *testing.F) {
	for _, in := range []isa.Inst{
		{Op: isa.OpMovRI, R1: 0, Imm: 0x1234},
		{Op: isa.OpRepMovsb},
		{Op: isa.OpJmpFar, Imm: 0xF000, Imm2: 2},
		{Op: isa.OpMovRM, R1: 3, Mem: isa.MemOp{Seg: isa.DS, Base: isa.BaseBP, Disp: 0x10}},
		{Op: isa.OpMovMI, Imm: 0xFFFF, Mem: isa.MemOp{Seg: isa.SS, Base: isa.BaseBP, Disp: 2}},
		{Op: isa.OpShlRI, R1: 1, Imm: 200},
		{Op: isa.OpOutI, Imm: 0xFF},
		{Op: isa.OpPushI, Imm: 7},
	} {
		f.Add(in.Encode(nil))
	}
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		in, size, ok := isa.Decode(b)
		if !ok {
			return
		}
		if size <= 0 || size > len(b) {
			t.Fatalf("size %d out of range for %d bytes", size, len(b))
		}
		enc := in.Encode(nil)
		if len(enc) != size {
			t.Fatalf("re-encode size %d != %d", len(enc), size)
		}
		for i := range enc {
			if enc[i] != b[i] {
				t.Fatalf("re-encode differs at %d", i)
			}
		}
		p, err := Assemble(in.String())
		if err != nil {
			t.Fatalf("%q, decoded from % x, does not reassemble: %v", in, b[:size], err)
		}
		if !bytes.Equal(p.Code, b[:size]) {
			t.Fatalf("%q reassembles to % x, decoded from % x", in, p.Code, b[:size])
		}
	})
}
