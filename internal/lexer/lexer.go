// Package lexer tokenizes NMSL specification source.
//
// Tokens are separated by white space or special character sequences like
// "::=" or ";" (paper section 4.1.1). Comments run from "--" to end of
// line, following the ASN.1 convention used in the paper's examples
// (Figure 4.4: "-- entire MIB subtree").
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"nmsl/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans an NMSL source buffer into tokens.
type Lexer struct {
	src  string
	off  int // current byte offset
	line int
	col  int
	errs []*Error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Offset: l.off, Line: l.line, Column: l.col}
}

// peek returns the current rune without consuming it, or -1 at EOF.
// Specifications are almost entirely ASCII, so a single byte is tried
// before the UTF-8 decoder.
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	if b := l.src[l.off]; b < utf8.RuneSelf {
		return rune(b)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

// peekAt returns the rune at byte offset delta from the current position.
func (l *Lexer) peekAt(delta int) rune {
	if l.off+delta >= len(l.src) {
		return -1
	}
	if b := l.src[l.off+delta]; b < utf8.RuneSelf {
		return rune(b)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+delta:])
	return r
}

// next consumes and returns the current rune.
func (l *Lexer) next() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, w := rune(l.src[l.off]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(l.src[l.off:])
	}
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == -1:
			return
		case unicode.IsSpace(r):
			l.next()
		case r == '-' && l.peekAt(1) == '-':
			// comment to end of line
			for {
				r := l.next()
				if r == -1 || r == '\n' {
					break
				}
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

// isIdentPart accepts letters, digits, '_' and '-' inside identifiers:
// NMSL names such as "wisc-research" and "ethernet-csmacd" (Figure 4.6)
// contain hyphens, matching ASN.1 identifier syntax.
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// isASCIIIdentPart is isIdentPart for a single-byte rune.
func isASCIIIdentPart(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' || b == '_' || b == '-'
}

// Next scans and returns the next token. At end of input it returns an EOF
// token; calling Next after EOF keeps returning EOF.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.pos()
	r := l.peek()
	switch {
	case r == -1:
		return token.Token{Kind: token.EOF, Pos: start}
	case isIdentStart(r):
		return l.scanIdent(start)
	case unicode.IsDigit(r):
		return l.scanNumber(start)
	case r == '"':
		return l.scanString(start)
	}
	l.next()
	switch r {
	case ';':
		return token.Token{Kind: token.SEMI, Text: ";", Pos: start}
	case '.':
		return token.Token{Kind: token.PERIOD, Text: ".", Pos: start}
	case ',':
		return token.Token{Kind: token.COMMA, Text: ",", Pos: start}
	case '(':
		return token.Token{Kind: token.LPAREN, Text: "(", Pos: start}
	case ')':
		return token.Token{Kind: token.RPAREN, Text: ")", Pos: start}
	case '{':
		return token.Token{Kind: token.LBRACE, Text: "{", Pos: start}
	case '}':
		return token.Token{Kind: token.RBRACE, Text: "}", Pos: start}
	case '*':
		return token.Token{Kind: token.STAR, Text: "*", Pos: start}
	case ':':
		if l.peek() == ':' && l.peekAt(1) == '=' {
			l.next()
			l.next()
			return token.Token{Kind: token.DEFINE, Text: "::=", Pos: start}
		}
		if l.peek() == '=' {
			l.next()
			return token.Token{Kind: token.ASSIGN, Text: ":=", Pos: start}
		}
		return token.Token{Kind: token.COLON, Text: ":", Pos: start}
	case '<':
		if l.peek() == '=' {
			l.next()
			return token.Token{Kind: token.LE, Text: "<=", Pos: start}
		}
		return token.Token{Kind: token.LT, Text: "<", Pos: start}
	case '>':
		if l.peek() == '=' {
			l.next()
			return token.Token{Kind: token.GE, Text: ">=", Pos: start}
		}
		return token.Token{Kind: token.GT, Text: ">", Pos: start}
	}
	l.errorf(start, "illegal character %q", r)
	return token.Token{Kind: token.ILLEGAL, Text: string(r), Pos: start}
}

// Every scanner slices the token text directly out of the source
// buffer: token text shares the input's backing array, which keeps
// lexing allocation-free (this dominates compile time on 100k-line
// specifications).

func (l *Lexer) scanIdent(start token.Pos) token.Token {
	// An ASCII run moves the offset and the column together; only a
	// wider rune goes the general way. Two bytes in three of a
	// specification sit in identifiers: BenchmarkLexer runs 1.6× slower
	// with this loop written as peek/next (EXPERIMENTS, PR 15).
	for l.off < len(l.src) {
		if b := l.src[l.off]; b < utf8.RuneSelf {
			if !isASCIIIdentPart(b) {
				break
			}
			l.off++
			l.col++
		} else if isIdentPart(l.peek()) {
			l.next()
		} else {
			break
		}
	}
	return token.Token{Kind: token.IDENT, Text: l.src[start.Offset:l.off], Pos: start}
}

func (l *Lexer) scanNumber(start token.Pos) token.Token {
	for unicode.IsDigit(l.peek()) {
		l.next()
	}
	// A '.' following a number is only part of the number if a digit
	// follows; otherwise it is the declaration terminator PERIOD
	// ("speed 10000000 bps;" vs "end type ipAddrTable.").
	if l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
		l.next()
		for unicode.IsDigit(l.peek()) {
			l.next()
		}
		// allow dotted version numbers like 4.0.1 to lex as a single
		// FLOAT-class token with full text ("opsys SunOS version 4.0.1").
		for l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
			l.next()
			for unicode.IsDigit(l.peek()) {
				l.next()
			}
		}
		return token.Token{Kind: token.FLOAT, Text: l.src[start.Offset:l.off], Pos: start}
	}
	return token.Token{Kind: token.INT, Text: l.src[start.Offset:l.off], Pos: start}
}

// scanString returns the text between the quotes; NMSL strings have no
// escapes, so that is a slice of the source. Only a literal holding bytes
// that are not UTF-8 is rebuilt, each such byte becoming U+FFFD.
func (l *Lexer) scanString(start token.Pos) token.Token {
	l.next() // opening quote
	valid := true
	for {
		end := l.off
		r := l.next()
		switch r {
		case -1, '\n':
			l.errorf(start, "unterminated string literal")
			return token.Token{Kind: token.ILLEGAL, Text: stringText(l.src[start.Offset+1:end], valid), Pos: start}
		case '"':
			return token.Token{Kind: token.STRING, Text: stringText(l.src[start.Offset+1:end], valid), Pos: start}
		case utf8.RuneError:
			// One byte wide means a byte that decodes to nothing; U+FFFD
			// written out in the source is three bytes and stays.
			if l.off-end == 1 {
				valid = false
			}
		}
	}
}

func stringText(body string, valid bool) string {
	if valid {
		return body
	}
	var b strings.Builder
	for _, r := range body {
		b.WriteRune(r)
	}
	return b.String()
}
