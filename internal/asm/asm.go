package asm

import (
	"fmt"
	"strings"

	"ssos/internal/isa"
)

// maxProgramSize bounds assembled output (the machine address space).
const maxProgramSize = 1 << 20

// ListLine is one line of the assembly listing: where the statement
// landed and what bytes it produced.
type ListLine struct {
	Addr   uint32 // address of the first emitted byte (origin-relative offsets + origin)
	Bytes  []byte
	Line   int    // source line number
	Source string // source text
}

// Program is the result of assembling one source file.
type Program struct {
	// Origin is the address of the first emitted byte (org directive,
	// default 0). Labels hold origin-based addresses.
	Origin uint32
	// Code is the emitted image, Code[0] at Origin.
	Code []byte
	// Symbols maps every label and equ name to its value.
	Symbols map[string]int64
	// Listing holds one entry per emitting statement, in order.
	Listing []ListLine
}

// Symbol returns the value of a label or equ constant.
func (p *Program) Symbol(name string) (int64, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSymbol returns the value of a symbol, panicking if undefined.
// Intended for ROM builders whose sources are compile-time constants.
func (p *Program) MustSymbol(name string) uint16 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return uint16(v)
}

// ListingString renders the listing as printable text.
func (p *Program) ListingString() string {
	var b strings.Builder
	for _, l := range p.Listing {
		fmt.Fprintf(&b, "%05x  %-20x  %s\n", l.Addr, l.Bytes, strings.TrimSpace(l.Source))
	}
	return b.String()
}

// placed is a statement bound to its output address during pass one.
type placed struct {
	s      *stmt
	addr   uint32 // absolute address (origin included)
	size   uint32 // emitted size including slot padding
	source string
}

// Assemble assembles NASM-flavoured source into a Program.
func Assemble(src string) (*Program, error) {
	lines := strings.Split(src, "\n")
	symbols := make(map[string]int64)
	ctx := &evalCtx{symbols: symbols}

	var place []placed
	origin := int64(0)
	originSet := false
	addr := int64(0)
	padOn := false
	emitted := false

	define := func(name string, v int64, lineNo int) error {
		if _, dup := symbols[name]; dup {
			return fmt.Errorf("line %d: symbol %q redefined", lineNo, name)
		}
		symbols[name] = v
		return nil
	}

	// Pass one: parse, place statements, define symbols.
	for lineNo, text := range lines {
		stmts, err := parseLine(text, lineNo+1)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
		}
		for i := range stmts {
			s := &stmts[i]
			ctx.here = addr
			ctx.origin = origin
			switch s.kind {
			case stmtLabel:
				if err := define(s.name, addr, s.line); err != nil {
					return nil, err
				}
			case stmtEqu:
				v, err := s.expr.eval(ctx)
				if err != nil {
					return nil, fmt.Errorf("line %d: equ %s: %v", s.line, s.name, err)
				}
				if err := define(s.name, v, s.line); err != nil {
					return nil, err
				}
			case stmtOrg:
				if emitted {
					return nil, fmt.Errorf("line %d: org after code emission", s.line)
				}
				v, err := s.expr.eval(ctx)
				if err != nil {
					return nil, fmt.Errorf("line %d: org: %v", s.line, err)
				}
				if v < 0 || v >= maxProgramSize {
					return nil, fmt.Errorf("line %d: org %#x out of range", s.line, v)
				}
				origin, addr, originSet = v, v, true
			case stmtPad:
				padOn = s.padOn
			case stmtAlign:
				v, err := s.expr.eval(ctx)
				if err != nil {
					return nil, fmt.Errorf("line %d: align: %v", s.line, err)
				}
				if v <= 0 || v > 4096 {
					return nil, fmt.Errorf("line %d: align %d out of range", s.line, v)
				}
				pad := (v - addr%v) % v
				if pad > 0 {
					place = append(place, placed{s: s, addr: uint32(addr), size: uint32(pad), source: text})
					addr += pad
					emitted = true
				}
			case stmtTimes:
				count, err := s.expr.eval(ctx)
				if err != nil {
					return nil, fmt.Errorf("line %d: times: %v", s.line, err)
				}
				if count < 0 || count > maxProgramSize {
					return nil, fmt.Errorf("line %d: times count %d out of range", s.line, count)
				}
				for rep := int64(0); rep < count; rep++ {
					one, err := stmtSize(s.inner, padOn, addr)
					if err != nil {
						return nil, fmt.Errorf("line %d: %v", s.line, err)
					}
					place = append(place, placed{s: s.inner, addr: uint32(addr), size: one, source: text})
					addr += int64(one)
				}
				emitted = emitted || count > 0
			default:
				size, err := stmtSize(s, padOn, addr)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", s.line, err)
				}
				place = append(place, placed{s: s, addr: uint32(addr), size: size, source: text})
				addr += int64(size)
				emitted = true
			}
			if addr > maxProgramSize {
				return nil, fmt.Errorf("line %d: program exceeds address space", s.line)
			}
		}
	}
	_ = originSet

	// Pass two: emit bytes.
	p := &Program{
		Origin:  uint32(origin),
		Code:    make([]byte, addr-origin),
		Symbols: symbols,
	}
	for _, pl := range place {
		ctx.here = int64(pl.addr)
		ctx.origin = origin
		bytes, err := emitStmt(pl.s, pl.size, ctx)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", pl.s.line, err)
		}
		if uint32(len(bytes)) != pl.size {
			return nil, fmt.Errorf("line %d: internal: size drift (%d != %d)", pl.s.line, len(bytes), pl.size)
		}
		copy(p.Code[pl.addr-uint32(origin):], bytes)
		p.Listing = append(p.Listing, ListLine{
			Addr:   pl.addr,
			Bytes:  bytes,
			Line:   pl.s.line,
			Source: pl.source,
		})
	}
	return p, nil
}

// MustAssemble assembles source that is a compile-time constant,
// panicking on error. ROM builders use it; errors there are bugs.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic("asm: " + err.Error())
	}
	return p
}

// stmtSize computes the emitted size of an instruction or data
// statement, including instruction-slot padding when pad mode is on.
func stmtSize(s *stmt, padOn bool, addr int64) (uint32, error) {
	switch s.kind {
	case stmtInstr:
		size := uint32(s.op.Size())
		if padOn {
			slotEnd := (addr/isa.SlotSize + 1) * isa.SlotSize
			size = uint32(slotEnd - addr)
			if int64(s.op.Size()) > int64(size) {
				// Cannot happen while MaxInstrSize <= SlotSize, but a
				// mid-slot starting address (after unpadded data) could
				// leave too little room.
				return 0, fmt.Errorf("instruction does not fit its slot at %#x", addr)
			}
		}
		return size, nil
	case stmtDb:
		var n uint32
		for _, it := range s.data {
			if it.isStr {
				n += uint32(len(it.str))
			} else {
				n++
			}
		}
		return n, nil
	case stmtDw:
		return uint32(2 * len(s.data)), nil
	case stmtAlign:
		return 0, nil // handled by caller
	}
	return 0, fmt.Errorf("internal: statement kind %d has no size", s.kind)
}

// emitStmt produces the bytes for one placed statement. size is the
// pass-one size (instruction slots include their nop padding).
func emitStmt(s *stmt, size uint32, ctx *evalCtx) ([]byte, error) {
	switch s.kind {
	case stmtInstr:
		in, err := buildInst(s.op, s.ops, ctx)
		if err != nil {
			return nil, err
		}
		bytes := in.Encode(nil)
		for uint32(len(bytes)) < size {
			bytes = append(bytes, byte(isa.OpNop)) // slot padding
		}
		return bytes, nil
	case stmtDb:
		var bytes []byte
		for _, it := range s.data {
			if it.isStr {
				bytes = append(bytes, it.str...)
				continue
			}
			v, err := evalByte(it.expr, ctx)
			if err != nil {
				return nil, err
			}
			bytes = append(bytes, v)
		}
		return bytes, nil
	case stmtDw:
		var bytes []byte
		for _, it := range s.data {
			v, err := it.expr.eval(ctx)
			if err != nil {
				return nil, err
			}
			bytes = append(bytes, byte(v), byte(v>>8))
		}
		return bytes, nil
	case stmtAlign:
		return make([]byte, size), nil // zero = nop
	}
	return nil, fmt.Errorf("internal: cannot emit statement kind %d", s.kind)
}
