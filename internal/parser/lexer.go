// Package parser implements a lexer and recursive-descent parser for the
// LLVM .ll subset modelled by internal/ir. Diagnostics mimic the style of
// LLVM's opt front end ("error: expected instruction opcode" with the
// offending line and a caret), because LPO forwards these messages verbatim
// to the LLM as repair feedback.
package parser

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tLocal  // %name
	tGlobal // @name
	tInt    // integer literal (possibly negative)
	tFloat  // float literal (scientific, decimal, or 0x hex bits)
	tPunct  // single punctuation byte
)

type token struct {
	kind tokKind
	text string // for locals/globals the text excludes the sigil
	line int    // 1-based
	col  int    // 1-based byte column of the first rune
}

// lexer hands out tokens on demand: the parser pulls each one with scan, so
// no token slice is ever built. Token text is a substring of src.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '.' || c == '$' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '-'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// scan returns the next token, and tEOF at the end of src (again on every
// later call). Unknown bytes become single-byte punctuation tokens so the
// parser can produce a positioned diagnostic.
func (l *lexer) scan() token {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		t := token{kind: tPunct, line: l.line, col: l.col}
		switch {
		case c == '\n' || c == ' ' || c == '\t' || c == '\r':
			l.advance(1)
			continue
		case c == ';':
			l.skipWhile(func(c byte) bool { return c != '\n' })
			continue
		case c == '%' || c == '@':
			t.kind = tLocal
			if c == '@' {
				t.kind = tGlobal
			}
			l.advance(1)
			if l.pos < len(l.src) && l.src[l.pos] == '"' {
				// Quoted name: @"foo bar".
				l.advance(1)
				t.text = l.skipWhile(func(c byte) bool { return c != '"' })
				l.advance(1)
			} else {
				t.text = l.skipWhile(isIdentCont)
			}
		case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			t.kind, t.text = l.lexNumber()
		case isIdentStart(c):
			t.kind, t.text = tIdent, l.skipWhile(isIdentCont)
		default:
			t.text = l.src[l.pos : l.pos+1]
			l.advance(1)
		}
		return t
	}
	return token{kind: tEOF, line: l.line, col: l.col}
}

// lexNumber scans an integer or float literal and returns its kind and text.
func (l *lexer) lexNumber() (tokKind, string) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.advance(1)
	}
	if l.pos+1 < len(l.src) && l.src[l.pos] == '0' && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
		l.advance(2)
		l.skipWhile(isHex)
		return tFloat, l.src[start:l.pos]
	}
	kind := tInt
	l.skipWhile(isDigit)
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		kind = tFloat
		l.advance(1)
		l.skipWhile(isDigit)
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		kind = tFloat
		l.advance(1)
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.advance(1)
		}
		l.skipWhile(isDigit)
	}
	return kind, l.src[start:l.pos]
}

// skipWhile advances past the bytes ok accepts and returns them.
func (l *lexer) skipWhile(ok func(byte) bool) string {
	start := l.pos
	for l.pos < len(l.src) && ok(l.src[l.pos]) {
		l.advance(1)
	}
	return l.src[start:l.pos]
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}
