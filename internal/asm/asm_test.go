package asm

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"ssos/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	return p
}

func assembleErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Assemble(src)
	if err == nil {
		t.Fatalf("expected error for:\n%s", src)
	}
	return err
}

func TestBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
		mov ax, 0x1234
		mov bx, ax
		inc cx
		hlt
	`)
	want := []byte{
		byte(isa.OpMovRI), 0, 0x34, 0x12,
		byte(isa.OpMovRR), 1, 0,
		byte(isa.OpIncR), 2,
		byte(isa.OpHlt),
	}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code:\n got % x\nwant % x", p.Code, want)
	}
}

func TestLabelsAndJumps(t *testing.T) {
	p := mustAssemble(t, `
start:
		nop
loop_top:
		inc ax
		jmp loop_top
		je start
	`)
	if p.Symbols["start"] != 0 || p.Symbols["loop_top"] != 1 {
		t.Fatalf("symbols: %v", p.Symbols)
	}
	// jmp loop_top encodes target 1.
	want := []byte{
		byte(isa.OpNop),
		byte(isa.OpIncR), 0,
		byte(isa.OpJmp), 1, 0,
		byte(isa.OpJe), 0, 0,
	}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code: % x", p.Code)
	}
}

func TestOrgAffectsLabels(t *testing.T) {
	p := mustAssemble(t, `
		org 0x100
start:
		jmp start
	`)
	if p.Origin != 0x100 {
		t.Fatalf("origin = %#x", p.Origin)
	}
	if p.Symbols["start"] != 0x100 {
		t.Fatalf("start = %#x", p.Symbols["start"])
	}
	if !bytes.Equal(p.Code, []byte{byte(isa.OpJmp), 0x00, 0x01}) {
		t.Fatalf("code: % x", p.Code)
	}
}

func TestEquAndExpressions(t *testing.T) {
	p := mustAssemble(t, `
STACK_TOP equ 0x1000
N equ 4
		mov word [ss:STACK_TOP-2], ax
		mov ax, N*8+2
		and ax, N-1
	`)
	// [ss:0xFFE]
	if p.Code[1] != 0x05 { // mode: base none(0), seg ss(5)
		t.Fatalf("mem mode byte = %#x", p.Code[1])
	}
	d := uint16(p.Code[2]) | uint16(p.Code[3])<<8
	if d != 0x0FFE {
		t.Fatalf("disp = %#x", d)
	}
	// mov ax, 34
	off := 5
	if p.Code[off] != byte(isa.OpMovRI) || p.Code[off+2] != 34 {
		t.Fatalf("imm expr: % x", p.Code[off:off+4])
	}
}

func TestMemoryOperandForms(t *testing.T) {
	p := mustAssemble(t, `
v equ 0x200
		mov ax, [v]
		mov ax, [bx]
		mov ax, [bx+4]
		mov cx, [bx-2]
		mov ax, [si]
		mov ax, [es:di]
		mov ax, [ss:bp+6]
		mov ax, [bp]
	`)
	lines := p.Listing
	checkMode := func(i int, wantMode byte) {
		t.Helper()
		b := lines[i].Bytes
		if b[2] != wantMode {
			t.Errorf("line %d mode byte = %#02x, want %#02x (bytes % x)", i, b[2], wantMode, b)
		}
	}
	checkMode(0, 0x01) // abs, ds
	checkMode(1, 0x11) // bx, ds
	checkMode(2, 0x11)
	checkMode(3, 0x11)
	checkMode(4, 0x21) // si, ds
	checkMode(5, 0x32) // di, es
	checkMode(6, 0x45) // bp, ss
	checkMode(7, 0x45) // bp defaults to ss
	// [bx-2] → disp 0xFFFE
	b := lines[3].Bytes
	if d := uint16(b[3]) | uint16(b[4])<<8; d != 0xFFFE {
		t.Errorf("negative disp = %#x", d)
	}
}

func TestSegmentMoves(t *testing.T) {
	p := mustAssemble(t, `
		mov ds, ax
		mov ax, ds
		mov ds, [ss:0x10]
		mov [0x20], ds
		push cs
		pop es
	`)
	if p.Listing[0].Bytes[0] != byte(isa.OpMovSR) {
		t.Error("mov ds, ax")
	}
	if p.Listing[2].Bytes[0] != byte(isa.OpMovSM) {
		t.Error("mov ds, [mem]")
	}
	if p.Listing[3].Bytes[0] != byte(isa.OpMovMS) {
		t.Error("mov [mem], ds")
	}
	if p.Listing[4].Bytes[0] != byte(isa.OpPushS) || p.Listing[5].Bytes[0] != byte(isa.OpPopS) {
		t.Error("push/pop sreg")
	}
}

func TestByteRegisters(t *testing.T) {
	p := mustAssemble(t, `
		mov ah, 26
		mov al, ah
		mul ah
	`)
	want := []byte{
		byte(isa.OpMovR8I), uint8(isa.AH), 26,
		byte(isa.OpMovR8R8), uint8(isa.AL), uint8(isa.AH),
		byte(isa.OpMulR8), uint8(isa.AH),
	}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code: % x", p.Code)
	}
}

func TestDataDirectives(t *testing.T) {
	p := mustAssemble(t, `
		db 1, 2, 0x41, "abc"
		dw 0x1234, after
after:
	`)
	want := []byte{1, 2, 0x41, 'a', 'b', 'c', 0x34, 0x12, 10, 0}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("data: % x", p.Code)
	}
}

func TestTimesAndAlign(t *testing.T) {
	p := mustAssemble(t, `
		nop
		times 3 db 0xEE
		align 8
		hlt
	`)
	want := []byte{0, 0xEE, 0xEE, 0xEE, 0, 0, 0, 0, byte(isa.OpHlt)}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code: % x", p.Code)
	}
}

func TestDollarExpressions(t *testing.T) {
	p := mustAssemble(t, `
		org 0x10
		nop
		dw $
		dw $$
	`)
	// $ at the dw statement = 0x11; $$ = 0x10.
	want := []byte{0, 0x11, 0, 0x10, 0}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code: % x", p.Code)
	}
}

func TestPadModeCreatesSlots(t *testing.T) {
	p := mustAssemble(t, `
		%pad on
first:
		mov ax, 0x1111
second:
		inc ax
		%pad off
		nop
		nop
	`)
	if p.Symbols["first"] != 0 || p.Symbols["second"] != 16 {
		t.Fatalf("slot labels: %v", p.Symbols)
	}
	if len(p.Code) != 34 {
		t.Fatalf("code length = %d, want 34", len(p.Code))
	}
	// Padding bytes are nops.
	for i := 4; i < 16; i++ {
		if p.Code[i] != byte(isa.OpNop) {
			t.Fatalf("pad byte %d = %#x", i, p.Code[i])
		}
	}
	// After %pad off, instructions are dense.
	if p.Code[32] != byte(isa.OpNop) || p.Code[33] != byte(isa.OpNop) {
		t.Fatalf("tail: % x", p.Code[30:])
	}
}

func TestPadSlotsDecodeFromEveryBoundary(t *testing.T) {
	// Property (paper 5.2): in padded code every slot boundary is an
	// instruction start.
	p := mustAssemble(t, `
		%pad on
		mov ax, 0x1234
		add ax, bx
		cmp ax, 0x10
		jb 0
		mov word [ss:0x100], ax
		iret
	`)
	if len(p.Code)%isa.SlotSize != 0 {
		t.Fatalf("padded code length %d not slot-multiple", len(p.Code))
	}
	for off := 0; off < len(p.Code); off += isa.SlotSize {
		if _, _, ok := isa.Decode(p.Code[off:]); !ok {
			t.Errorf("slot at %#x does not decode", off)
		}
	}
}

func TestIOAndInt(t *testing.T) {
	p := mustAssemble(t, `
		out 0x10, ax
		in ax, 0x10
		out dx, ax
		in ax, dx
		int 0x21
	`)
	want := []byte{
		byte(isa.OpOutI), 0x10,
		byte(isa.OpInI), 0x10,
		byte(isa.OpOutDx),
		byte(isa.OpInDx),
		byte(isa.OpInt), 0x21,
	}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code: % x", p.Code)
	}
}

func TestJmpFar(t *testing.T) {
	p := mustAssemble(t, `
SEG equ 0xF000
		jmp SEG:0x0010
	`)
	want := []byte{byte(isa.OpJmpFar), 0x00, 0xF0, 0x10, 0x00}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code: % x", p.Code)
	}
}

func TestRepMovsb(t *testing.T) {
	p := mustAssemble(t, `
		cld
		rep movsb
		movsb
	`)
	want := []byte{byte(isa.OpCld), byte(isa.OpRepMovsb), byte(isa.OpMovsb)}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code: % x", p.Code)
	}
}

// TestFigure1Transcription assembles the paper's Figure 1
// watchdog/reinstall procedure, transcribed to this assembler.
func TestFigure1Transcription(t *testing.T) {
	src := `
OS_ROM_SEGMENT  equ 0xE000
OS_SEGMENT      equ 0x2000
IMAGE_SIZE      equ 0x1000

; copy OS image
	mov ax, OS_ROM_SEGMENT
	mov ds, ax
	mov si, 0x00
	mov ax, OS_SEGMENT
	mov es, ax
	mov di, 0x00
	mov cx, IMAGE_SIZE
	cld
	rep movsb
; prepare for journey
	mov ax, OS_SEGMENT
	mov ss, ax
	mov sp, 0xFFFF
	push word 0x02       ;flag
	push word OS_SEGMENT ;cs
	push word 0x0        ;ip
	iret
`
	p := mustAssemble(t, src)
	if len(p.Listing) != 16 {
		t.Fatalf("figure 1 has 16 instructions, listed %d", len(p.Listing))
	}
	if p.Listing[15].Bytes[0] != byte(isa.OpIret) {
		t.Fatal("last instruction must be iret")
	}
	// Every byte decodes in sequence (no junk).
	off := 0
	for off < len(p.Code) {
		_, size, ok := isa.Decode(p.Code[off:])
		if !ok {
			t.Fatalf("undecodable byte at %#x", off)
		}
		off += size
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"bogus ax, 1",         // unknown mnemonic
		"mov ax",              // missing operand
		"mov [0x10], [0x20]",  // mem,mem unsupported
		"jmp ax",              // register jump unsupported
		"mov ax, undefined_x", // undefined symbol
		"x equ 1\nx equ 2",    // redefinition
		"a:\na:",              // label redefinition
		"db \"abc",            // unterminated string
		"times -1 nop",        // negative times
		"org 0x200000",        // out of range
		"nop\norg 0",          // org after emission
		"mov ax, 1 2",         // trailing tokens
		"%pad maybe",          // bad pad arg
		"%frob on",            // unknown directive
		"out bx, ax",          // bad out port
		"in bx, 0x10",         // bad in dest
		"dw \"s\"",            // string in dw
		"mov ax, 0xZZ",        // bad number
		"align 0",             // bad align
		"times 2 org 0",       // times body must emit
		"out 0x144, ax",       // port beyond a byte
		"in ax, 0x100",        // port beyond a byte
		"int 0x321",           // vector beyond a byte
		"shl ax, 300",         // shift count beyond a byte
		"shr ax, -129",        // shift count beyond a byte
		"mov al, 0x1ff",       // byte immediate beyond a byte
		"db 0x1ff",            // db item beyond a byte
		"db 1, -129",          // db item beyond a byte
	}
	for _, src := range cases {
		assembleErr(t, src)
	}
}

// An 8-bit operand or db item takes a byte read as signed or unsigned;
// a 16-bit operand keeps its low 16 bits.
func TestOperandWidths(t *testing.T) {
	p := mustAssemble(t, "mov al, -128\nmov al, 255\nshl ax, -1\nout -1, ax\ndb -1, 255, -128\nmov ax, 0x12345\ndw -1")
	want := []byte{
		byte(isa.OpMovR8I), 0, 0x80,
		byte(isa.OpMovR8I), 0, 0xff,
		byte(isa.OpShlRI), 0, 0xff,
		byte(isa.OpOutI), 0xff,
		0xff, 0xff, 0x80,
		byte(isa.OpMovRI), 0, 0x45, 0x23,
		0xff, 0xff,
	}
	if !bytes.Equal(p.Code, want) {
		t.Fatalf("code:\n got % x\nwant % x", p.Code, want)
	}
	err := assembleErr(t, "nop\nint 0x100")
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "256") {
		t.Fatalf("error %q should name line 2 and the value", err)
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	err := assembleErr(t, "nop\nnop\nbogus ax")
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q lacks line number", err)
	}
}

func TestListingString(t *testing.T) {
	p := mustAssemble(t, "start:\n\tmov ax, 1\n\thlt")
	s := p.ListingString()
	if !strings.Contains(s, "mov ax, 1") || !strings.Contains(s, "hlt") {
		t.Fatalf("listing:\n%s", s)
	}
}

func TestMustSymbolPanics(t *testing.T) {
	p := mustAssemble(t, "a equ 1")
	if p.MustSymbol("a") != 1 {
		t.Fatal("MustSymbol value")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustSymbol should panic on undefined symbol")
		}
	}()
	p.MustSymbol("nope")
}

func TestMustAssemblePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble should panic")
		}
	}()
	MustAssemble("bogus")
}

func TestAssembledCodeRoundTripsThroughDisasm(t *testing.T) {
	// Property: assembling a program of random simple instructions
	// yields code whose sequential decode matches instruction count.
	mnems := []string{"nop", "hlt", "cld", "sti", "iret", "inc ax", "dec bx",
		"mov ax, 5", "add ax, bx", "push ax", "pop bx", "out 0x10, ax"}
	f := func(picks []uint8) bool {
		if len(picks) == 0 || len(picks) > 64 {
			return true
		}
		var src strings.Builder
		for _, p := range picks {
			src.WriteString(mnems[int(p)%len(mnems)] + "\n")
		}
		prog, err := Assemble(src.String())
		if err != nil {
			return false
		}
		n := 0
		off := 0
		for off < len(prog.Code) {
			_, size, ok := isa.Decode(prog.Code[off:])
			if !ok {
				return false
			}
			off += size
			n++
		}
		return n == len(picks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExpressionOperators(t *testing.T) {
	p := mustAssemble(t, `
A equ 10
B equ 3
	mov ax, A/B
	mov bx, A%B
	mov cx, ~0
	mov dx, -(A-B)
	mov si, (A+B)*2
`)
	want := map[int]uint16{0: 3, 1: 1, 2: 0xFFFF, 3: 0xFFF9, 4: 26}
	for i, w := range want {
		b := p.Listing[i].Bytes
		if got := uint16(b[2]) | uint16(b[3])<<8; got != w {
			t.Errorf("expr %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	cases := []string{
		"mov ax, 1/0",             // division by zero
		"mov ax, 1%0",             // modulo by zero
		"mov ax, (1",              // unclosed paren
		"mov ax, *3",              // missing left operand
		"x equ forward\nforward:", // equ is eager
	}
	for _, src := range cases {
		assembleErr(t, src)
	}
}

func TestSymbolAccessors(t *testing.T) {
	p := mustAssemble(t, "v equ 7\nstart:\n\tnop")
	if v, ok := p.Symbol("v"); !ok || v != 7 {
		t.Fatalf("Symbol(v) = %d, %v", v, ok)
	}
	if _, ok := p.Symbol("missing"); ok {
		t.Fatal("missing symbol found")
	}
}

// The parser matches every statement, so matching a bare mnemonic must
// not build its lookup table per call.
func TestMatchBareMnemonicAllocatesNothing(t *testing.T) {
	var op isa.Op
	allocs := testing.AllocsPerRun(100, func() {
		op, _ = matchInstr("rep movsb", nil)
	})
	if op != isa.OpRepMovsb {
		t.Fatalf("rep movsb matched %v", op)
	}
	if allocs != 0 {
		t.Fatalf("matchInstr on a bare mnemonic: %v allocations per call, want 0", allocs)
	}
}

func TestAllMnemonicForms(t *testing.T) {
	// Exercise every mnemonic-form branch of the instruction matcher.
	p := mustAssemble(t, `
	nop
	hlt
	cld
	std
	sti
	cli
	iret
	pushf
	popf
	movsb
	rep movsb
	stosb
	lodsb
	ret
	wpset ax
	mov ax, 1
	mov ax, bx
	mov ds, ax
	mov ax, ds
	mov ax, [0]
	mov [0], ax
	mov word [0], 5
	mov ds, [0]
	mov [0], ds
	mov al, 1
	mov al, ah
	add ax, bx
	add ax, 1
	add ax, [0]
	sub ax, bx
	sub ax, 1
	inc ax
	dec ax
	and ax, bx
	and ax, 1
	or ax, bx
	or ax, 1
	xor ax, ax
	cmp ax, bx
	cmp ax, 1
	cmp ax, [0]
	lea ax, [0]
	mul ah
	shl ax, 1
	shr ax, 1
	jmp 0
	jz 0
	jnz 0
	jc 0
	jbe 0
	ja 0
	jnc 0
	loop 0
	call 0
	push ax
	push cs
	push word 1
	pop ax
	pop ds
	out 1, ax
	out dx, ax
	in ax, 1
	in ax, dx
	int 1
`)
	if len(p.Code) == 0 {
		t.Fatal("no code")
	}
	// Everything decodes sequentially.
	off := 0
	n := 0
	for off < len(p.Code) {
		_, size, ok := isa.Decode(p.Code[off:])
		if !ok {
			t.Fatalf("undecodable at %#x", off)
		}
		off += size
		n++
	}
}

func TestMoreOperandErrors(t *testing.T) {
	cases := []string{
		"add [0], ax",   // mem dest unsupported for add
		"sub ax, [0]",   // sub r,mem unsupported
		"inc [0]",       // inc mem unsupported
		"dec",           // missing operand
		"and ax",        // missing operand
		"or [0], 1",     // bad dest
		"xor ax, 1",     // xor imm unsupported
		"cmp [0], ax",   // bad dest
		"lea ax, bx",    // lea wants mem
		"mul ax",        // mul wants r8
		"shl ax, bx",    // shift wants imm
		"jmp [0]",       // indirect jmp unsupported
		"je ax",         // jcc wants imm
		"push word [0]", // push mem unsupported
		"pop 5",         // pop imm nonsense
		"out ax, 5",     // reversed operands
		"in 5, ax",      // reversed operands
		"int ax",        // int wants imm
		"wpset [0]",     // wpset wants r16
		"rep stosb",     // only rep movsb
		"mov ah, bx",    // size mismatch
		"movsb ax",      // trailing operand
	}
	for _, src := range cases {
		assembleErr(t, src)
	}
}

func TestTokenStringAndListing(t *testing.T) {
	// Lexer token String() paths via error messages.
	err := assembleErr(t, "mov ax, \x01")
	if err == nil {
		t.Fatal("expected lex error")
	}
	err = assembleErr(t, `db "unterminated`)
	if !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("err = %v", err)
	}
}

func TestCharacterLiterals(t *testing.T) {
	p := mustAssemble(t, "mov ax, 'A'\ndb 'z'")
	if p.Code[2] != 'A' {
		t.Fatalf("char literal: %#x", p.Code[2])
	}
	if p.Code[4] != 'z' {
		t.Fatalf("db char: %#x", p.Code[4])
	}
	assembleErr(t, "mov ax, 'ab'") // multi-char
	assembleErr(t, "mov ax, 'a")   // unterminated
}

func TestNumberBases(t *testing.T) {
	p := mustAssemble(t, "mov ax, 0b1010\nmov bx, 0xFF\nmov cx, 1_000")
	vals := []uint16{10, 255, 1000}
	for i, w := range vals {
		b := p.Listing[i].Bytes
		if got := uint16(b[2]) | uint16(b[3])<<8; got != w {
			t.Errorf("base %d = %d, want %d", i, got, w)
		}
	}
	assembleErr(t, "mov ax, 0x")          // empty digits
	assembleErr(t, "mov ax, 0b102")       // bad binary digit
	assembleErr(t, "mov ax, 99999999999") // too large
}
