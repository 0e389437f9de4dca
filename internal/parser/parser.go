package parser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// ParseError is a structured, positioned parse diagnostic. Line and Col are
// 1-based; both are 0 when the error has no single source position (e.g. a
// post-parse verification failure). The rendered message follows LLVM's opt
// front end — "line:col: error: <msg>", the offending source line, and a
// caret — because LPO forwards these messages verbatim to the LLM as repair
// feedback, and positions make the repair actionable.
type ParseError struct {
	Line int
	Col  int
	Msg  string
	Src  string // the offending source line ("" when unavailable)
}

// NewParseError builds a positioned diagnostic.
func NewParseError(msg string, line, col int, src string) *ParseError {
	return &ParseError{Line: line, Col: col, Msg: msg, Src: src}
}

func (e *ParseError) Error() string {
	var sb strings.Builder
	if e.Line > 0 {
		fmt.Fprintf(&sb, "%d:%d: ", e.Line, e.Col)
	}
	fmt.Fprintf(&sb, "error: %s", e.Msg)
	if e.Src != "" {
		sb.WriteString("\n")
		sb.WriteString(e.Src)
		sb.WriteString("\n")
		for i := 1; i < e.Col; i++ {
			sb.WriteString(" ")
		}
		sb.WriteString("^")
	}
	return sb.String()
}

// forwardRef is a placeholder operand for a %name not yet defined at its use
// site; it is patched after the whole function body has been parsed.
type forwardRef struct {
	name string
	ty   ir.Type
}

func (r *forwardRef) Type() ir.Type { return r.ty }
func (r *forwardRef) Ident() string { return "%" + r.name }

type parser struct {
	lex lexer
	// la holds the n tokens pulled from lex but not yet consumed; peek2 is
	// the deepest lookahead, and the parser never backtracks.
	la [2]token
	n  int

	// Per-function state.
	vals    map[string]ir.Value
	fwd     []*forwardRef
	nextNum int
}

// Parse parses an .ll module. Unrecognized top-level constructs (declares,
// attributes, metadata) are skipped; only define bodies are materialized.
func Parse(src string) (*ir.Module, error) {
	p := &parser{lex: lexer{src: src, line: 1, col: 1}}
	m := &ir.Module{}
	for {
		t := p.peek()
		if t.kind == tEOF {
			break
		}
		if t.kind == tIdent && t.text == "define" {
			f, err := p.parseFunc()
			if err != nil {
				return nil, err
			}
			m.Funcs = append(m.Funcs, f)
			continue
		}
		// Skip any other top-level token (declares, target lines, etc.).
		p.next()
	}
	if len(m.Funcs) == 0 {
		return nil, p.errAt(p.peek(), "expected at least one function definition")
	}
	for _, f := range m.Funcs {
		if err := ir.VerifyFunc(f); err != nil {
			return nil, &ParseError{Msg: err.Error()}
		}
	}
	return m, nil
}

// ParseFunc parses a module and returns its first function.
func ParseFunc(src string) (*ir.Func, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return m.Funcs[0], nil
}

// MustParseFunc is ParseFunc that panics on error; intended for tests and
// static registries.
func MustParseFunc(src string) *ir.Func {
	f, err := ParseFunc(src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParseFunc: %v\nsource:\n%s", err, src))
	}
	return f
}

func (p *parser) peek() token  { return p.lookahead(0) }
func (p *parser) peek2() token { return p.lookahead(1) }

func (p *parser) lookahead(k int) token {
	for p.n <= k {
		p.la[p.n] = p.lex.scan()
		p.n++
	}
	return p.la[k]
}

func (p *parser) next() token {
	t := p.peek()
	p.la[0] = p.la[1]
	p.n--
	return t
}

func (p *parser) errAt(t token, format string, args ...any) error {
	return NewParseError(fmt.Sprintf(format, args...), t.line, t.col, sourceLine(p.lex.src, t.line))
}

// sourceLine returns line n (1-based) of src split at "\n", any "\r" kept,
// or "" when src has no line n.
func sourceLine(src string, n int) string {
	if n < 1 {
		return ""
	}
	for ; n > 1; n-- {
		i := strings.IndexByte(src, '\n')
		if i < 0 {
			return ""
		}
		src = src[i+1:]
	}
	if i := strings.IndexByte(src, '\n'); i >= 0 {
		return src[:i]
	}
	return src
}

func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.kind == tPunct && t.text == s {
		p.next()
		return nil
	}
	return p.errAt(t, "expected '%s'", s)
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tPunct && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptIdent(s string) bool {
	t := p.peek()
	if t.kind == tIdent && t.text == s {
		p.next()
		return true
	}
	return false
}

// parseType parses a first-class type.
func (p *parser) parseType() (ir.Type, error) {
	t := p.peek()
	switch {
	case t.kind == tIdent && len(t.text) > 1 && t.text[0] == 'i' && allDigits(t.text[1:]):
		w, _ := strconv.Atoi(t.text[1:])
		if w < 1 || w > 64 {
			return nil, p.errAt(t, "unsupported integer width i%d", w)
		}
		p.next()
		return ir.IntT(w), nil
	case t.kind == tIdent && t.text == "float":
		p.next()
		return ir.F32, nil
	case t.kind == tIdent && t.text == "double":
		p.next()
		return ir.F64, nil
	case t.kind == tIdent && t.text == "ptr":
		p.next()
		return ir.Ptr, nil
	case t.kind == tIdent && t.text == "void":
		p.next()
		return ir.Void, nil
	case t.kind == tIdent && t.text == "label":
		p.next()
		return ir.LabelType{}, nil
	case t.kind == tPunct && t.text == "<":
		p.next()
		nt := p.peek()
		if nt.kind != tInt {
			return nil, p.errAt(nt, "expected vector length")
		}
		n, _ := strconv.Atoi(nt.text)
		p.next()
		if !p.acceptIdent("x") {
			return nil, p.errAt(p.peek(), "expected 'x' in vector type")
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
		return ir.VecT(n, elem), nil
	}
	return nil, p.errAt(t, "expected type")
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseValue parses an operand of the given type.
func (p *parser) parseValue(ty ir.Type) (ir.Value, error) {
	t := p.peek()
	switch {
	case t.kind == tLocal:
		p.next()
		if v, ok := p.vals[t.text]; ok {
			return v, nil
		}
		r := &forwardRef{name: t.text, ty: ty}
		p.fwd = append(p.fwd, r)
		return r, nil
	case t.kind == tInt:
		it, ok := ty.(ir.IntType)
		if !ok {
			return nil, p.errAt(t, "integer constant for non-integer type %s", ty)
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			// Very large unsigned patterns print as negative in LLVM, but
			// accept the raw u64 form too.
			u, uerr := strconv.ParseUint(t.text, 10, 64)
			if uerr != nil {
				return nil, p.errAt(t, "invalid integer literal")
			}
			v = int64(u)
		}
		p.next()
		return ir.CInt(it, v), nil
	case t.kind == tFloat:
		ft, ok := ty.(ir.FloatType)
		if !ok {
			return nil, p.errAt(t, "floating point constant for non-fp type %s", ty)
		}
		p.next()
		if strings.HasPrefix(t.text, "0x") || strings.HasPrefix(t.text, "0X") {
			bits, err := strconv.ParseUint(t.text[2:], 16, 64)
			if err != nil {
				return nil, p.errAt(t, "invalid hex float literal")
			}
			return ir.CFloat(ft, math.Float64frombits(bits)), nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errAt(t, "invalid float literal")
		}
		return ir.CFloat(ft, f), nil
	case t.kind == tIdent:
		switch t.text {
		case "true", "false":
			if !ir.Equal(ty, ir.I1) {
				return nil, p.errAt(t, "boolean constant for type %s", ty)
			}
			p.next()
			return ir.CBool(t.text == "true"), nil
		case "zeroinitializer":
			p.next()
			return &ir.Zero{Ty: ty}, nil
		case "undef":
			p.next()
			return &ir.Undef{Ty: ty}, nil
		case "poison":
			p.next()
			return &ir.PoisonVal{Ty: ty}, nil
		case "null":
			p.next()
			return &ir.Null{}, nil
		case "splat":
			p.next()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			et, err := p.parseType()
			if err != nil {
				return nil, err
			}
			ev, err := p.parseValue(et)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			vt, ok := ty.(ir.VecType)
			if !ok {
				return nil, p.errAt(t, "splat constant for non-vector type %s", ty)
			}
			return &ir.Splat{Ty: vt, Elem: ev}, nil
		}
	case t.kind == tPunct && t.text == "<":
		vt, ok := ty.(ir.VecType)
		if !ok {
			return nil, p.errAt(t, "vector constant for non-vector type %s", ty)
		}
		p.next()
		var elems []ir.Value
		for {
			et, err := p.parseType()
			if err != nil {
				return nil, err
			}
			ev, err := p.parseValue(et)
			if err != nil {
				return nil, err
			}
			elems = append(elems, ev)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
		if len(elems) != vt.N {
			return nil, p.errAt(t, "vector constant has %d elements, type needs %d", len(elems), vt.N)
		}
		return &ir.ConstVec{Ty: vt, Elems: elems}, nil
	}
	return nil, p.errAt(t, "expected value")
}

// parseTypedValue parses "type value".
func (p *parser) parseTypedValue() (ir.Value, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return p.parseValue(ty)
}

func (p *parser) define(name string, v ir.Value) {
	p.vals[name] = v
}

func (p *parser) freshName() string {
	s := strconv.Itoa(p.nextNum)
	p.nextNum++
	return s
}

func (p *parser) parseFunc() (*ir.Func, error) {
	p.vals = make(map[string]ir.Value)
	p.fwd = nil
	p.nextNum = 0
	p.next() // "define"
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	gt := p.peek()
	if gt.kind != tGlobal {
		return nil, p.errAt(gt, "expected function name")
	}
	p.next()
	f := &ir.Func{Name: gt.text, Ret: ret}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.acceptPunct(")") {
		for {
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			name := ""
			if nt := p.peek(); nt.kind == tLocal {
				p.next()
				name = nt.text
			} else {
				name = p.freshName()
			}
			if allDigits(name) {
				if n, _ := strconv.Atoi(name); n >= p.nextNum {
					p.nextNum = n + 1
				}
			}
			prm := &ir.Param{Nm: name, Ty: pt}
			f.Params = append(f.Params, prm)
			p.define(name, prm)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	cur := &ir.Block{Name: "entry"}
	f.Blocks = append(f.Blocks, cur)
	started := false
	for {
		t := p.peek()
		if t.kind == tPunct && t.text == "}" {
			p.next()
			break
		}
		if t.kind == tEOF {
			return nil, p.errAt(t, "expected instruction or '}'")
		}
		// Block label: ident followed by ':'.
		if t.kind == tIdent && p.peek2().kind == tPunct && p.peek2().text == ":" {
			p.next()
			p.next()
			if !started && len(cur.Instrs) == 0 {
				cur.Name = t.text
			} else {
				cur = &ir.Block{Name: t.text}
				f.Blocks = append(f.Blocks, cur)
			}
			started = true
			continue
		}
		in, err := p.parseInstr()
		if err != nil {
			return nil, err
		}
		started = true
		cur.Instrs = append(cur.Instrs, in)
	}
	if err := p.patchForwardRefs(f); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) patchForwardRefs(f *ir.Func) error {
	if len(p.fwd) == 0 {
		return nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				if r, ok := a.(*forwardRef); ok {
					v, found := p.vals[r.name]
					if !found {
						// Mimic LLVM's message for undefined locals.
						return fmt.Errorf("error: use of undefined value '%%%s'", r.name)
					}
					in.Args[ai] = v
				}
			}
		}
	}
	return nil
}

var fastMathFlags = map[string]bool{
	"nnan": true, "ninf": true, "nsz": true, "arcp": true,
	"contract": true, "afn": true, "reassoc": true, "fast": true,
}

func (p *parser) skipFastMath() {
	for {
		t := p.peek()
		if t.kind == tIdent && fastMathFlags[t.text] {
			p.next()
			continue
		}
		return
	}
}

// parseInstr parses one instruction (with optional "%name =" result).
func (p *parser) parseInstr() (*ir.Instr, error) {
	name := ""
	named := false
	if t := p.peek(); t.kind == tLocal && p.peek2().kind == tPunct && p.peek2().text == "=" {
		p.next()
		p.next()
		name = t.text
		named = true
	}
	opTok := p.peek()
	if opTok.kind != tIdent {
		return nil, p.errAt(opTok, "expected instruction opcode")
	}
	in, err := p.parseInstrBody(opTok)
	if err != nil {
		return nil, err
	}
	if in.HasResult() {
		if !named {
			name = p.freshName()
		} else if allDigits(name) {
			if n, _ := strconv.Atoi(name); n >= p.nextNum {
				p.nextNum = n + 1
			}
		}
		in.Nm = name
		p.define(name, in)
	} else if named {
		return nil, p.errAt(opTok, "instruction '%s' produces no result", opTok.text)
	}
	return in, nil
}

func (p *parser) parseInstrBody(opTok token) (*ir.Instr, error) {
	switch opTok.text {
	case "add", "sub", "mul", "udiv", "sdiv", "urem", "srem",
		"shl", "lshr", "ashr", "and", "or", "xor":
		p.next()
		op := ir.OpcodeByName(opTok.text)
		var flags ir.Flags
		for {
			switch {
			case p.acceptIdent("nuw"):
				flags |= ir.NUW
			case p.acceptIdent("nsw"):
				flags |= ir.NSW
			case p.acceptIdent("exact"):
				flags |= ir.Exact
			case p.acceptIdent("disjoint"):
				flags |= ir.Disjoint
			default:
				goto flagsDone
			}
		}
	flagsDone:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: op, Ty: ty, Args: []ir.Value{a, b}, Flags: flags}, nil

	case "fadd", "fsub", "fmul", "fdiv":
		p.next()
		p.skipFastMath()
		op := ir.OpcodeByName(opTok.text)
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: op, Ty: ty, Args: []ir.Value{a, b}}, nil

	case "fneg":
		p.next()
		p.skipFastMath()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: ir.OpFNeg, Ty: ty, Args: []ir.Value{a}}, nil

	case "icmp":
		p.next()
		pt := p.peek()
		pred := ir.IPredByName(pt.text)
		if pt.kind != tIdent || pred == ir.IPredInvalid {
			return nil, p.errAt(pt, "expected icmp predicate")
		}
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: ir.OpICmp, Ty: ir.WithLanes(ty, ir.I1), Args: []ir.Value{a, b}, IPredV: pred}, nil

	case "fcmp":
		p.next()
		p.skipFastMath()
		pt := p.peek()
		pred := ir.FPredByName(pt.text)
		if pt.kind != tIdent || pred == ir.FPredInvalid {
			return nil, p.errAt(pt, "expected fcmp predicate")
		}
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		a, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseValue(ty)
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: ir.OpFCmp, Ty: ir.WithLanes(ty, ir.I1), Args: []ir.Value{a, b}, FPredV: pred}, nil

	case "select":
		p.next()
		p.skipFastMath()
		c, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		tv, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		fv, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: ir.OpSelect, Ty: tv.Type(), Args: []ir.Value{c, tv, fv}}, nil

	case "freeze":
		p.next()
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: ir.OpFreeze, Ty: v.Type(), Args: []ir.Value{v}}, nil

	case "zext", "sext", "trunc", "fpext", "fptrunc", "sitofp", "uitofp",
		"fptosi", "fptoui", "bitcast", "ptrtoint", "inttoptr":
		p.next()
		op := ir.OpcodeByName(opTok.text)
		var flags ir.Flags
		for {
			switch {
			case op == ir.OpTrunc && p.acceptIdent("nuw"):
				flags |= ir.NUW
			case op == ir.OpTrunc && p.acceptIdent("nsw"):
				flags |= ir.NSW
			case op == ir.OpZExt && p.acceptIdent("nneg"):
				flags |= ir.NNeg
			default:
				goto convFlagsDone
			}
		}
	convFlagsDone:
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if !p.acceptIdent("to") {
			return nil, p.errAt(p.peek(), "expected 'to' in conversion")
		}
		to, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: op, Ty: to, Args: []ir.Value{v}, Flags: flags}, nil

	case "tail", "call":
		var flags ir.Flags
		if opTok.text == "tail" {
			p.next()
			flags |= ir.Tail
			if !p.acceptIdent("call") {
				return nil, p.errAt(p.peek(), "expected 'call' after 'tail'")
			}
		} else {
			p.next()
		}
		p.skipFastMath()
		ret, err := p.parseType()
		if err != nil {
			return nil, err
		}
		ct := p.peek()
		if ct.kind != tGlobal {
			return nil, p.errAt(ct, "expected callee name")
		}
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var args []ir.Value
		if !p.acceptPunct(")") {
			for {
				a, err := p.parseTypedValue()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.acceptPunct(",") {
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		return &ir.Instr{Op: ir.OpCall, Ty: ret, Args: args, Callee: ct.text, Flags: flags}, nil

	case "getelementptr":
		p.next()
		var flags ir.Flags
		for {
			switch {
			case p.acceptIdent("inbounds"):
				flags |= ir.Inbounds
			case p.acceptIdent("nuw"):
				flags |= ir.NUW
			case p.acceptIdent("nusw"):
				// Accepted and folded into inbounds-like handling.
				flags |= ir.NUW
			default:
				goto gepFlagsDone
			}
		}
	gepFlagsDone:
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		base, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		args := []ir.Value{base}
		for p.acceptPunct(",") {
			idx, err := p.parseTypedValue()
			if err != nil {
				return nil, err
			}
			args = append(args, idx)
		}
		if len(args) < 2 {
			return nil, p.errAt(p.peek(), "expected getelementptr index")
		}
		return &ir.Instr{Op: ir.OpGEP, Ty: ir.Ptr, Args: args, ElemTy: elem, Flags: flags}, nil

	case "load":
		p.next()
		p.acceptIdent("volatile")
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		align := 0
		if p.acceptPunct(",") {
			if !p.acceptIdent("align") {
				return nil, p.errAt(p.peek(), "expected 'align'")
			}
			at := p.peek()
			if at.kind != tInt {
				return nil, p.errAt(at, "expected alignment value")
			}
			align, _ = strconv.Atoi(at.text)
			p.next()
		}
		return &ir.Instr{Op: ir.OpLoad, Ty: ty, Args: []ir.Value{ptr}, Align: align}, nil

	case "store":
		p.next()
		p.acceptIdent("volatile")
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		align := 0
		if p.acceptPunct(",") {
			if !p.acceptIdent("align") {
				return nil, p.errAt(p.peek(), "expected 'align'")
			}
			at := p.peek()
			if at.kind != tInt {
				return nil, p.errAt(at, "expected alignment value")
			}
			align, _ = strconv.Atoi(at.text)
			p.next()
		}
		return &ir.Instr{Op: ir.OpStore, Ty: ir.Void, Args: []ir.Value{v, ptr}, Align: align}, nil

	case "extractelement":
		p.next()
		vec, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		idx, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		vt, ok := vec.Type().(ir.VecType)
		if !ok {
			return nil, p.errAt(opTok, "extractelement requires a vector operand")
		}
		return &ir.Instr{Op: ir.OpExtractElt, Ty: vt.Elem, Args: []ir.Value{vec, idx}}, nil

	case "insertelement":
		p.next()
		vec, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		elem, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		idx, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: ir.OpInsertElt, Ty: vec.Type(), Args: []ir.Value{vec, elem, idx}}, nil

	case "shufflevector":
		p.next()
		a, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		mask, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		mt, ok := mask.Type().(ir.VecType)
		if !ok {
			return nil, p.errAt(opTok, "shufflevector mask must be a vector")
		}
		at, ok := a.Type().(ir.VecType)
		if !ok {
			return nil, p.errAt(opTok, "shufflevector operands must be vectors")
		}
		return &ir.Instr{Op: ir.OpShuffle, Ty: ir.VecT(mt.N, at.Elem), Args: []ir.Value{a, b, mask}}, nil

	case "phi":
		p.next()
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		var vals []ir.Value
		var labels []string
		for {
			if err := p.expectPunct("["); err != nil {
				return nil, err
			}
			v, err := p.parseValue(ty)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			lt := p.peek()
			if lt.kind != tLocal {
				return nil, p.errAt(lt, "expected phi incoming label")
			}
			p.next()
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			vals = append(vals, v)
			labels = append(labels, lt.text)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		return &ir.Instr{Op: ir.OpPhi, Ty: ty, Args: vals, Labels: labels}, nil

	case "br":
		p.next()
		if p.acceptIdent("label") {
			lt := p.peek()
			if lt.kind != tLocal {
				return nil, p.errAt(lt, "expected branch target label")
			}
			p.next()
			return &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Labels: []string{lt.text}}, nil
		}
		cond, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if !p.acceptIdent("label") {
			return nil, p.errAt(p.peek(), "expected 'label'")
		}
		t1 := p.peek()
		if t1.kind != tLocal {
			return nil, p.errAt(t1, "expected branch target label")
		}
		p.next()
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if !p.acceptIdent("label") {
			return nil, p.errAt(p.peek(), "expected 'label'")
		}
		t2 := p.peek()
		if t2.kind != tLocal {
			return nil, p.errAt(t2, "expected branch target label")
		}
		p.next()
		return &ir.Instr{Op: ir.OpBr, Ty: ir.Void, Args: []ir.Value{cond}, Labels: []string{t1.text, t2.text}}, nil

	case "ret":
		p.next()
		if p.acceptIdent("void") {
			return &ir.Instr{Op: ir.OpRet, Ty: ir.Void}, nil
		}
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		return &ir.Instr{Op: ir.OpRet, Ty: ir.Void, Args: []ir.Value{v}}, nil

	case "unreachable":
		p.next()
		return &ir.Instr{Op: ir.OpUnreachable, Ty: ir.Void}, nil
	}
	return nil, p.errAt(opTok, "expected instruction opcode")
}
