package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegNamesRoundTrip(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		got, ok := ParseReg(r.String())
		if !ok || got != r {
			t.Errorf("ParseReg(%q) = %v, %v; want %v, true", r.String(), got, ok, r)
		}
	}
	for s := SReg(0); s < NumSRegs; s++ {
		got, ok := ParseSReg(s.String())
		if !ok || got != s {
			t.Errorf("ParseSReg(%q) = %v, %v; want %v, true", s.String(), got, ok, s)
		}
	}
	for r := Reg8(0); r < NumRegs8; r++ {
		got, ok := ParseReg8(r.String())
		if !ok || got != r {
			t.Errorf("ParseReg8(%q) = %v, %v; want %v, true", r.String(), got, ok, r)
		}
	}
}

func TestParseRejectsUnknown(t *testing.T) {
	if _, ok := ParseReg("zz"); ok {
		t.Error("ParseReg accepted zz")
	}
	if _, ok := ParseSReg("ax"); ok {
		t.Error("ParseSReg accepted ax")
	}
	if _, ok := ParseReg8("ax"); ok {
		t.Error("ParseReg8 accepted ax")
	}
}

func TestReg8Parent(t *testing.T) {
	cases := []struct {
		r    Reg8
		reg  Reg
		high bool
	}{
		{AL, AX, false}, {AH, AX, true},
		{BL, BX, false}, {BH, BX, true},
		{CL, CX, false}, {CH, CX, true},
		{DL, DX, false}, {DH, DX, true},
	}
	for _, c := range cases {
		reg, high := c.r.Parent()
		if reg != c.reg || high != c.high {
			t.Errorf("%v.Parent() = %v, %v; want %v, %v", c.r, reg, high, c.reg, c.high)
		}
	}
}

func TestFlagsOps(t *testing.T) {
	f := Flags(0)
	f = f.With(FlagZF | FlagCF)
	if !f.Has(FlagZF) || !f.Has(FlagCF) || f.Has(FlagSF) {
		t.Fatalf("flags after With: %v", f)
	}
	f = f.Without(FlagCF)
	if f.Has(FlagCF) {
		t.Fatalf("CF not cleared: %v", f)
	}
	f = f.Set(FlagIF, true)
	if !f.Has(FlagIF) {
		t.Fatalf("IF not set: %v", f)
	}
	f = f.Set(FlagIF, false)
	if f.Has(FlagIF) {
		t.Fatalf("IF not cleared: %v", f)
	}
}

func TestFlagsString(t *testing.T) {
	if got := Flags(0).String(); got != "-" {
		t.Errorf("empty flags = %q", got)
	}
	if got := (FlagCF | FlagZF).String(); got != "CF|ZF" {
		t.Errorf("CF|ZF = %q", got)
	}
}

// sampleInstructions covers every defined opcode with representative
// operands.
func sampleInstructions() []Inst {
	mem := MemOp{Seg: SS, Base: BaseBX, Disp: 0x1234}
	abs := MemOp{Seg: DS, Base: BaseNone, Disp: 0xBEEF}
	return []Inst{
		{Op: OpNop}, {Op: OpHlt}, {Op: OpCld}, {Op: OpStd}, {Op: OpSti},
		{Op: OpCli}, {Op: OpIret}, {Op: OpPushf}, {Op: OpPopf},
		{Op: OpMovRI, R1: uint8(AX), Imm: 0xABCD},
		{Op: OpMovRR, R1: uint8(BX), R2: uint8(SP)},
		{Op: OpMovSR, R1: uint8(SS), R2: uint8(AX)},
		{Op: OpMovRS, R1: uint8(CX), R2: uint8(GS)},
		{Op: OpMovRM, R1: uint8(DX), Mem: mem},
		{Op: OpMovMR, R1: uint8(SI), Mem: abs},
		{Op: OpMovMI, Imm: 0x0102, Mem: abs},
		{Op: OpMovSM, R1: uint8(DS), Mem: mem},
		{Op: OpMovMS, R1: uint8(ES), Mem: abs},
		{Op: OpMovR8I, R1: uint8(AH), Imm: 0x7F},
		{Op: OpMovR8R8, R1: uint8(AL), R2: uint8(DH)},
		{Op: OpAddRR, R1: uint8(AX), R2: uint8(BX)},
		{Op: OpAddRI, R1: uint8(DI), Imm: 2},
		{Op: OpAddRM, R1: uint8(SI), Mem: abs},
		{Op: OpSubRR, R1: uint8(CX), R2: uint8(DX)},
		{Op: OpSubRI, R1: uint8(SP), Imm: 6},
		{Op: OpIncR, R1: uint8(AX)},
		{Op: OpDecR, R1: uint8(CX)},
		{Op: OpAndRR, R1: uint8(AX), R2: uint8(AX)},
		{Op: OpAndRI, R1: uint8(AX), Imm: 0x0003},
		{Op: OpOrRR, R1: uint8(BX), R2: uint8(CX)},
		{Op: OpOrRI, R1: uint8(DX), Imm: 0x8000},
		{Op: OpXorRR, R1: uint8(AX), R2: uint8(AX)},
		{Op: OpCmpRR, R1: uint8(AX), R2: uint8(BX)},
		{Op: OpCmpRI, R1: uint8(SI), Imm: 0xFFFF},
		{Op: OpCmpRM, R1: uint8(AX), Mem: MemOp{Seg: DS, Base: BaseSI}},
		{Op: OpLea, R1: uint8(BX), Mem: abs},
		{Op: OpMulR8, R1: uint8(AH)},
		{Op: OpShlRI, R1: uint8(AX), Imm: 4},
		{Op: OpShrRI, R1: uint8(BX), Imm: 1},
		{Op: OpJmp, Imm: 0x0100},
		{Op: OpJmpFar, Imm: 0xF000, Imm2: 0x0010},
		{Op: OpJe, Imm: 0x10}, {Op: OpJne, Imm: 0x20},
		{Op: OpJb, Imm: 0x30}, {Op: OpJbe, Imm: 0x40},
		{Op: OpJa, Imm: 0x50}, {Op: OpJae, Imm: 0x60},
		{Op: OpLoop, Imm: 0x70},
		{Op: OpCall, Imm: 0x80},
		{Op: OpRet},
		{Op: OpPushR, R1: uint8(AX)},
		{Op: OpPopR, R1: uint8(BX)},
		{Op: OpPushI, Imm: 0x0002},
		{Op: OpPushS, R1: uint8(CS)},
		{Op: OpPopS, R1: uint8(DS)},
		{Op: OpMovsb}, {Op: OpRepMovsb}, {Op: OpStosb}, {Op: OpLodsb},
		{Op: OpOutI, Imm: 0x42},
		{Op: OpInI, Imm: 0x42},
		{Op: OpOutDx}, {Op: OpInDx},
		{Op: OpInt, Imm: 3},
		{Op: OpWPSet, R1: uint8(AX)},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, in := range sampleInstructions() {
		enc := in.Encode(nil)
		if len(enc) != in.Size() {
			t.Errorf("%v: encoded %d bytes, Size()=%d", in, len(enc), in.Size())
		}
		got, size, ok := Decode(enc)
		if !ok {
			t.Errorf("%v: decode failed (bytes % x)", in, enc)
			continue
		}
		if size != len(enc) {
			t.Errorf("%v: decode size %d, want %d", in, size, len(enc))
		}
		if got != in {
			t.Errorf("round trip: got %+v want %+v", got, in)
		}
	}
}

func TestEncodedSizesWithinSlot(t *testing.T) {
	for _, in := range sampleInstructions() {
		if in.Size() > MaxInstrSize {
			t.Errorf("%v: size %d exceeds MaxInstrSize", in, in.Size())
		}
	}
	if MaxInstrSize > SlotSize {
		t.Fatal("MaxInstrSize must not exceed SlotSize")
	}
}

func TestDecodeInvalid(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xFF},                         // undefined opcode
		{byte(OpMovRI), 1},             // truncated
		{byte(OpMovRR), 9, 0},          // bad register id
		{byte(OpMovSR), 7, 0},          // bad segment id
		{byte(OpMovRM), 0, 0x6F, 0, 0}, // bad mem mode (seg 15)
		{byte(OpMovRM), 0, 0x51, 0, 0}, // bad mem mode (base 5)
		{byte(OpPushS), 6},             // bad sreg
		{byte(OpMulR8), 8},             // bad reg8
	}
	for _, b := range cases {
		if _, _, ok := Decode(b); ok {
			t.Errorf("Decode(% x) unexpectedly ok", b)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	// Property: Decode is total over arbitrary byte windows.
	f := func(b []byte) bool {
		_, size, ok := Decode(b)
		if ok && (size <= 0 || size > len(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeEncodeIdempotent(t *testing.T) {
	// Property: any bytes that decode validly re-encode to the same bytes.
	f := func(b []byte) bool {
		in, size, ok := Decode(b)
		if !ok {
			return true
		}
		enc := in.Encode(nil)
		if len(enc) != size {
			return false
		}
		for i := range enc {
			if enc[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDisasm(t *testing.T) {
	var code []byte
	for _, in := range []Inst{
		{Op: OpMovRI, R1: uint8(AX), Imm: 0x1234},
		{Op: OpIret},
	} {
		code = in.Encode(code)
	}
	code = append(code, 0xFF) // junk byte
	lines := Disasm(code)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}
	if !lines[0].Valid || lines[0].Text != "mov ax, 0x1234" {
		t.Errorf("line 0: %+v", lines[0])
	}
	if !lines[1].Valid || lines[1].Text != "iret" {
		t.Errorf("line 1: %+v", lines[1])
	}
	if lines[2].Valid || lines[2].Text != "db 0xff" {
		t.Errorf("line 2: %+v", lines[2])
	}
	if s := DisasmString(code); len(s) == 0 {
		t.Error("empty DisasmString")
	}
}

func TestMemOpString(t *testing.T) {
	cases := []struct {
		m    MemOp
		want string
	}{
		{MemOp{Seg: DS, Disp: 0x10}, "[0x10]"},
		{MemOp{Seg: SS, Base: BaseBX, Disp: 2}, "[ss:bx+0x2]"},
		{MemOp{Seg: DS, Base: BaseSI}, "[si]"},
		{MemOp{Seg: ES, Disp: 0}, "[es:0x0]"},
		{MemOp{Seg: SS, Base: BaseBP, Disp: 6}, "[ss:bp+0x6]"},
		{MemOp{Seg: DS, Base: BaseBP}, "[ds:bp]"}, // the assembler reads [bp] as ss
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.m, got, c.want)
		}
	}
}

func TestOpMetadata(t *testing.T) {
	if Op(0xFE).Valid() {
		t.Error("0xFE should be invalid")
	}
	if Op(0xFE).Size() != 0 {
		t.Error("invalid op size should be 0")
	}
	if OpNop.Size() != 1 || OpMovMI.Size() != 6 {
		t.Error("wrong sizes for nop/mov-mi")
	}
	if OpJmp.Mnemonic() != "jmp" {
		t.Errorf("jmp mnemonic = %q", OpJmp.Mnemonic())
	}
}

func TestEveryInstructionStringIsNonEmpty(t *testing.T) {
	for _, in := range sampleInstructions() {
		s := in.String()
		if s == "" {
			t.Errorf("%+v renders empty", in)
		}
		if in.Op.Mnemonic() == "" {
			t.Errorf("%v has empty mnemonic", in.Op)
		}
	}
}

func TestDisasmEmptyInput(t *testing.T) {
	if lines := Disasm(nil); len(lines) != 0 {
		t.Fatalf("lines: %v", lines)
	}
	if s := DisasmString(nil); s != "" {
		t.Fatalf("string: %q", s)
	}
}

func TestBaseRegAccessors(t *testing.T) {
	if BaseNone.String() != "" {
		t.Error("BaseNone should render empty")
	}
	if _, ok := BaseNone.Reg(); ok {
		t.Error("BaseNone has no register")
	}
	for _, b := range []BaseReg{BaseBX, BaseSI, BaseDI, BaseBP} {
		if !b.Valid() {
			t.Errorf("%v invalid", b)
		}
		if r, ok := b.Reg(); !ok || !r.Valid() {
			t.Errorf("%v register: %v %v", b, r, ok)
		}
		if b.String() == "" {
			t.Errorf("%v renders empty", b)
		}
	}
	if BaseReg(9).Valid() {
		t.Error("bogus base valid")
	}
}

func TestInvalidRegisterStrings(t *testing.T) {
	if Reg(200).String() == "" || SReg(200).String() == "" || Reg8(200).String() == "" {
		t.Error("invalid registers should still render")
	}
	if Reg(200).Valid() || SReg(200).Valid() || Reg8(200).Valid() {
		t.Error("out-of-range registers reported valid")
	}
}

// TestInstLenCacheabilityContract verifies the contract InstLen
// documents for the machine's superblock engine: for every
// possible first byte, Decode's result is a pure function of the bytes
// [0, InstLen(b)) — trailing bytes never matter — and the decoded size
// equals InstLen for every accepted instruction.
func TestInstLenCacheabilityContract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for b0 := 0; b0 < 256; b0++ {
		n := InstLen(byte(b0))
		if n < 0 || n > MaxInstrSize {
			t.Fatalf("InstLen(%#02x) = %d out of range", b0, n)
		}
		for trial := 0; trial < 64; trial++ {
			var bufA, bufB [MaxInstrSize]byte
			bufA[0], bufB[0] = byte(b0), byte(b0)
			for i := 1; i < MaxInstrSize; i++ {
				v := byte(rng.Intn(256))
				bufA[i] = v
				if i < n {
					bufB[i] = v // shared prefix [0, InstLen)
				} else {
					bufB[i] = v ^ byte(rng.Intn(255)+1) // differing tail
				}
			}
			inA, szA, okA := Decode(bufA[:])
			inB, szB, okB := Decode(bufB[:])
			if inA != inB || szA != szB || okA != okB {
				t.Fatalf("Decode(%#02x...) depends on bytes beyond InstLen=%d:\n %v %d %v\n %v %d %v",
					b0, n, inA, szA, okA, inB, szB, okB)
			}
			if okA && szA != n {
				t.Fatalf("opcode %#02x: decoded size %d != InstLen %d", b0, szA, n)
			}
			if n == 0 && okA {
				t.Fatalf("opcode %#02x: InstLen 0 but Decode accepted it", b0)
			}
		}
	}
}

// TestSerializingClassification pins the superblock serialize-point
// set: exactly the control transfers, rep movsb, hlt, port I/O and int
// are serializing among valid opcodes, and every invalid opcode byte
// reports serializing (it raises, which ends straight-line execution).
// Adding an opcode forces an explicit classification decision here —
// misclassifying a new control transfer or I/O op as non-serializing
// would let the block builder chain across it.
func TestSerializingClassification(t *testing.T) {
	serial := map[Op]bool{
		OpHlt: true, OpIret: true,
		OpJmp: true, OpJmpFar: true, OpJe: true, OpJne: true,
		OpJb: true, OpJbe: true, OpJa: true, OpJae: true,
		OpLoop: true, OpCall: true, OpRet: true,
		OpRepMovsb: true,
		OpOutI:     true, OpInI: true, OpOutDx: true, OpInDx: true,
		OpInt: true,
	}
	for b := 0; b < 256; b++ {
		op := Op(b)
		want := serial[op] || !op.Valid()
		if got := op.Serializing(); got != want {
			t.Errorf("Op(%#02x) %q: Serializing() = %v, want %v", b, op.Mnemonic(), got, want)
		}
	}
	// The set must not silently shrink: all listed ops stay valid.
	for op := range serial {
		if !op.Valid() {
			t.Errorf("serializing op %#02x no longer defined", uint8(op))
		}
	}
}
