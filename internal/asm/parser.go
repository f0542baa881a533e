package asm

import (
	"fmt"
	"strings"

	"ssos/internal/isa"
)

// operandKind classifies parsed instruction operands.
type operandKind uint8

const (
	opndReg operandKind = iota
	opndSReg
	opndReg8
	opndMem
	opndImm
	opndFar
)

// operand is one parsed instruction operand.
type operand struct {
	kind operandKind
	reg  uint8 // register id, for opndReg, opndSReg and opndReg8
	mem  memOperand
	imm  exprNode // for opndImm
	far  [2]exprNode
}

// memOperand is a parsed memory reference [seg:base+disp].
type memOperand struct {
	seg  isa.SReg
	base isa.BaseReg
	disp exprNode // nil means 0
}

// stmtKind classifies statements.
type stmtKind uint8

const (
	stmtInstr stmtKind = iota
	stmtLabel
	stmtOrg
	stmtEqu
	stmtDb
	stmtDw
	stmtTimes
	stmtAlign
	stmtPad
)

// stmt is one parsed statement. A source line may produce several
// statements (a label plus an instruction).
type stmt struct {
	kind stmtKind
	line int // 1-based source line

	op  isa.Op    // instruction opcode, matched when the line is parsed
	ops []operand // instruction operands

	name string   // label or equ name
	expr exprNode // org/equ/align value, times count

	data []dataItem // db/dw items

	inner *stmt // times body
	padOn bool  // %pad state
}

// dataItem is one element of a db/dw list.
type dataItem struct {
	str   string // non-empty for string literals (db only)
	expr  exprNode
	isStr bool
}

// parseLine parses one source line into zero or more statements.
func parseLine(line string, lineNo int) ([]stmt, error) {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	toks, err := lexLine(line)
	if err != nil {
		return nil, err
	}
	ts := &tokenStream{toks: toks}
	var out []stmt

	// Optional leading label ("name:") or equ definition ("name equ x").
	if t := ts.peek(); t.kind == tokIdent && !isReservedWord(t.text) {
		save := ts.pos
		name := ts.next().text
		switch {
		case ts.acceptPunct(":"):
			out = append(out, stmt{kind: stmtLabel, line: lineNo, name: name})
		case ts.peek().kind == tokIdent && strings.EqualFold(ts.peek().text, "equ"):
			ts.next()
			e, err := parseExpr(ts)
			if err != nil {
				return nil, err
			}
			if !ts.atEOF() {
				return nil, fmt.Errorf("trailing tokens after equ: %v", ts.peek())
			}
			return append(out, stmt{kind: stmtEqu, line: lineNo, name: name, expr: e}), nil
		default:
			ts.pos = save
		}
	}

	if ts.atEOF() {
		return out, nil
	}
	s, err := parseStatement(ts, lineNo)
	if err != nil {
		return nil, err
	}
	if !ts.atEOF() {
		return nil, fmt.Errorf("trailing tokens: %v", ts.peek())
	}
	return append(out, *s), nil
}

// parseStatement parses a directive or instruction (without label).
func parseStatement(ts *tokenStream, lineNo int) (*stmt, error) {
	// %pad directive.
	if t := ts.peek(); t.kind == tokPunct && t.text == "%" {
		ts.next()
		d := ts.next()
		if d.kind != tokIdent || !strings.EqualFold(d.text, "pad") {
			return nil, fmt.Errorf("unknown directive %%%s", d.text)
		}
		arg := ts.next()
		if arg.kind != tokIdent {
			return nil, fmt.Errorf("%%pad wants on or off, found %v", arg)
		}
		switch strings.ToLower(arg.text) {
		case "on":
			return &stmt{kind: stmtPad, line: lineNo, padOn: true}, nil
		case "off":
			return &stmt{kind: stmtPad, line: lineNo, padOn: false}, nil
		}
		return nil, fmt.Errorf("%%pad wants on or off, found %q", arg.text)
	}

	t := ts.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("expected mnemonic or directive, found %v", t)
	}
	word := strings.ToLower(t.text)
	switch word {
	case "org", "align":
		e, err := parseExpr(ts)
		if err != nil {
			return nil, err
		}
		k := stmtOrg
		if word == "align" {
			k = stmtAlign
		}
		return &stmt{kind: k, line: lineNo, expr: e}, nil
	case "db", "dw":
		items, err := parseDataList(ts, word == "db")
		if err != nil {
			return nil, err
		}
		k := stmtDb
		if word == "dw" {
			k = stmtDw
		}
		return &stmt{kind: k, line: lineNo, data: items}, nil
	case "times":
		count, err := parseExpr(ts)
		if err != nil {
			return nil, err
		}
		inner, err := parseStatement(ts, lineNo)
		if err != nil {
			return nil, err
		}
		if inner.kind != stmtInstr && inner.kind != stmtDb && inner.kind != stmtDw {
			return nil, fmt.Errorf("times body must be an instruction or data")
		}
		return &stmt{kind: stmtTimes, line: lineNo, expr: count, inner: inner}, nil
	case "rep":
		nx := ts.next()
		if nx.kind != tokIdent || !strings.EqualFold(nx.text, "movsb") {
			return nil, fmt.Errorf("only `rep movsb` is supported, found rep %v", nx)
		}
		word = "rep movsb"
	}

	// Instruction: its operands, then the form they select.
	s := &stmt{kind: stmtInstr, line: lineNo}
	for more := !ts.atEOF(); more; more = ts.acceptPunct(",") {
		op, err := parseOperand(ts)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, *op)
	}
	var err error
	if s.op, err = matchInstr(word, s.ops); err != nil {
		return nil, err
	}
	return s, nil
}

// parseDataList parses db/dw item lists.
func parseDataList(ts *tokenStream, allowStrings bool) ([]dataItem, error) {
	var items []dataItem
	for {
		if t := ts.peek(); t.kind == tokString {
			if !allowStrings {
				return nil, fmt.Errorf("string literal only allowed in db")
			}
			ts.next()
			items = append(items, dataItem{str: t.text, isStr: true})
		} else {
			e, err := parseExpr(ts)
			if err != nil {
				return nil, err
			}
			items = append(items, dataItem{expr: e})
		}
		if !ts.acceptPunct(",") {
			return items, nil
		}
	}
}

// parseOperand parses one instruction operand: a register, a memory
// reference, an immediate expression or a far pointer. A leading
// `word` or `byte` size keyword is accepted and ignored (the opcode
// fully determines operand size in this ISA).
func parseOperand(ts *tokenStream) (*operand, error) {
	if t := ts.peek(); t.kind == tokIdent {
		switch strings.ToLower(t.text) {
		case "word", "byte":
			ts.next()
		}
	}

	// Memory operand.
	if ts.acceptPunct("[") {
		m, err := parseMemBody(ts)
		if err != nil {
			return nil, err
		}
		if err := ts.expectPunct("]"); err != nil {
			return nil, err
		}
		return &operand{kind: opndMem, mem: *m}, nil
	}

	// Register operands.
	if t := ts.peek(); t.kind == tokIdent {
		low := strings.ToLower(t.text)
		if r, ok := isa.ParseReg(low); ok {
			ts.next()
			return &operand{kind: opndReg, reg: uint8(r)}, nil
		}
		if s, ok := isa.ParseSReg(low); ok {
			ts.next()
			return &operand{kind: opndSReg, reg: uint8(s)}, nil
		}
		if r8, ok := isa.ParseReg8(low); ok {
			ts.next()
			return &operand{kind: opndReg8, reg: uint8(r8)}, nil
		}
	}

	// Immediate or far pointer.
	e, err := parseExpr(ts)
	if err != nil {
		return nil, err
	}
	if ts.acceptPunct(":") {
		off, err := parseExpr(ts)
		if err != nil {
			return nil, err
		}
		return &operand{kind: opndFar, far: [2]exprNode{e, off}}, nil
	}
	return &operand{kind: opndImm, imm: e}, nil
}

// parseMemBody parses the inside of [...]: optional segment override,
// optional base register, optional +/- displacement expression.
func parseMemBody(ts *tokenStream) (*memOperand, error) {
	m := &memOperand{seg: isa.DS}
	explicitSeg := false

	// Segment override "seg:".
	if t := ts.peek(); t.kind == tokIdent {
		if s, ok := isa.ParseSReg(strings.ToLower(t.text)); ok {
			save := ts.pos
			ts.next()
			if ts.acceptPunct(":") {
				m.seg = s
				explicitSeg = true
			} else {
				ts.pos = save
			}
		}
	}

	// Base register.
	if t := ts.peek(); t.kind == tokIdent {
		switch strings.ToLower(t.text) {
		case "bx":
			m.base = isa.BaseBX
		case "si":
			m.base = isa.BaseSI
		case "di":
			m.base = isa.BaseDI
		case "bp":
			m.base = isa.BaseBP
			// A bp base defaults to the stack segment, as on x86.
			if !explicitSeg {
				m.seg = isa.SS
			}
		}
		if m.base != isa.BaseNone {
			ts.next()
			switch t := ts.peek(); {
			case t.kind == tokPunct && t.text == "+":
				ts.next()
				e, err := parseExpr(ts)
				if err != nil {
					return nil, err
				}
				m.disp = e
			case t.kind == tokPunct && t.text == "-":
				ts.next()
				e, err := parseExpr(ts)
				if err != nil {
					return nil, err
				}
				m.disp = unaryNode{op: '-', x: e}
			}
			return m, nil
		}
	}

	e, err := parseExpr(ts)
	if err != nil {
		return nil, err
	}
	m.disp = e
	return m, nil
}

// isReservedWord reports whether the identifier cannot be a label name.
func isReservedWord(s string) bool {
	low := strings.ToLower(s)
	if _, ok := isa.ParseReg(low); ok {
		return true
	}
	if _, ok := isa.ParseSReg(low); ok {
		return true
	}
	if _, ok := isa.ParseReg8(low); ok {
		return true
	}
	switch low {
	case "org", "equ", "db", "dw", "times", "align", "word", "byte", "rep":
		return true
	}
	return false
}
