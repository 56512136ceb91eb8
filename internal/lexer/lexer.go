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
	return token.Pos{Offset: int32(l.off), Line: int32(l.line), Column: int32(l.col)}
}

// Specifications are almost entirely ASCII, so every scanner tests a
// single byte first and only sends a byte of a wider rune through the
// UTF-8 decoder and the unicode tables. Columns count runes: an ASCII
// byte moves the offset and the column together.

// isASCIISpace is unicode.IsSpace for a single-byte rune.
func isASCIISpace(b byte) bool {
	return b == ' ' || '\t' <= b && b <= '\r'
}

// isASCIIIdentStart is isIdentStart for a single-byte rune.
func isASCIIIdentStart(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || b == '_'
}

// isASCIIDigit is unicode.IsDigit for a single-byte rune.
func isASCIIDigit(b byte) bool { return '0' <= b && b <= '9' }

// wide decodes the rune of two or more bytes at the current offset; a
// byte that begins no rune decodes to utf8.RuneError, one byte wide.
func (l *Lexer) wide() (rune, int) { return utf8.DecodeRuneInString(l.src[l.off:]) }

func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		b := l.src[l.off]
		switch {
		case b == '\n':
			l.off++
			l.line++
			l.col = 1
		case isASCIISpace(b):
			l.off++
			l.col++
		case b == '-' && l.off+1 < len(l.src) && l.src[l.off+1] == '-':
			// A comment runs to the end of its line, the newline
			// included; one cut off by the end of the input leaves the
			// column past its last rune.
			rest := l.src[l.off:]
			nl := strings.IndexByte(rest, '\n')
			if nl < 0 {
				l.off = len(l.src)
				l.col += utf8.RuneCountInString(rest)
				return
			}
			l.off += nl + 1
			l.line++
			l.col = 1
		case b < utf8.RuneSelf:
			return
		default:
			r, w := l.wide()
			if !unicode.IsSpace(r) {
				return
			}
			l.off += w
			l.col++
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
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: start}
	}
	b := l.src[l.off]
	if b >= utf8.RuneSelf {
		r, w := l.wide()
		switch {
		case isIdentStart(r):
			return l.scanIdent(start)
		case unicode.IsDigit(r):
			return l.scanNumber(start)
		}
		l.off += w
		l.col++
		return l.illegal(start, r)
	}
	switch {
	case isASCIIIdentStart(b):
		return l.scanIdent(start)
	case isASCIIDigit(b):
		return l.scanNumber(start)
	case b == '"':
		return l.scanString(start)
	}
	l.off++
	l.col++
	switch b {
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
		if l.skip("::=") {
			return token.Token{Kind: token.DEFINE, Text: "::=", Pos: start}
		}
		if l.skip(":=") {
			return token.Token{Kind: token.ASSIGN, Text: ":=", Pos: start}
		}
		return token.Token{Kind: token.COLON, Text: ":", Pos: start}
	case '<':
		if l.skip("<=") {
			return token.Token{Kind: token.LE, Text: "<=", Pos: start}
		}
		return token.Token{Kind: token.LT, Text: "<", Pos: start}
	case '>':
		if l.skip(">=") {
			return token.Token{Kind: token.GE, Text: ">=", Pos: start}
		}
		return token.Token{Kind: token.GT, Text: ">", Pos: start}
	}
	return l.illegal(start, rune(b))
}

// skip consumes the rest of op, an ASCII operator whose first byte has
// been consumed, if the source continues with it.
func (l *Lexer) skip(op string) bool {
	if !strings.HasPrefix(l.src[l.off:], op[1:]) {
		return false
	}
	l.off += len(op) - 1
	l.col += len(op) - 1
	return true
}

// illegal reports r, already consumed, as a character no token begins
// with.
func (l *Lexer) illegal(start token.Pos, r rune) token.Token {
	l.errorf(start, "illegal character %q", r)
	return token.Token{Kind: token.ILLEGAL, Text: string(r), Pos: start}
}

// Every scanner slices the token text directly out of the source
// buffer: token text shares the input's backing array, which keeps
// lexing allocation-free (this dominates compile time on 100k-line
// specifications).

func (l *Lexer) scanIdent(start token.Pos) token.Token {
	// Two bytes in three of a specification sit in identifiers:
	// BenchmarkLexer runs 1.6× slower with this loop written rune by
	// rune (EXPERIMENTS, "Front-end cost per line").
	for l.off < len(l.src) {
		if b := l.src[l.off]; b < utf8.RuneSelf {
			if !isASCIIIdentPart(b) {
				break
			}
			l.off++
		} else if r, w := l.wide(); isIdentPart(r) {
			l.off += w
		} else {
			break
		}
		l.col++
	}
	return token.Token{Kind: token.IDENT, Text: l.src[start.Offset:l.off], Pos: start}
}

// digits consumes a run of decimal digits, ASCII or not.
func (l *Lexer) digits() {
	for l.off < len(l.src) {
		if b := l.src[l.off]; b < utf8.RuneSelf {
			if !isASCIIDigit(b) {
				return
			}
			l.off++
		} else if r, w := l.wide(); unicode.IsDigit(r) {
			l.off += w
		} else {
			return
		}
		l.col++
	}
}

// fraction reports whether the source continues with a '.' and a digit.
func (l *Lexer) fraction() bool {
	if l.off+1 >= len(l.src) || l.src[l.off] != '.' {
		return false
	}
	if b := l.src[l.off+1]; b < utf8.RuneSelf {
		return isASCIIDigit(b)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+1:])
	return unicode.IsDigit(r)
}

func (l *Lexer) scanNumber(start token.Pos) token.Token {
	l.digits()
	// A '.' following a number is only part of the number if a digit
	// follows; otherwise it is the declaration terminator PERIOD
	// ("speed 10000000 bps;" vs "end type ipAddrTable.").
	if !l.fraction() {
		return token.Token{Kind: token.INT, Text: l.src[start.Offset:l.off], Pos: start}
	}
	// Dotted version numbers like 4.0.1 lex as a single FLOAT-class
	// token with full text ("opsys SunOS version 4.0.1").
	for l.fraction() {
		l.off++
		l.col++
		l.digits()
	}
	return token.Token{Kind: token.FLOAT, Text: l.src[start.Offset:l.off], Pos: start}
}

// scanString returns the text between the quotes; NMSL strings have no
// escapes, so that is a slice of the source. Only a literal holding bytes
// that are not UTF-8 is rebuilt, each such byte becoming U+FFFD. A
// literal cut off by a newline consumes it.
func (l *Lexer) scanString(start token.Pos) token.Token {
	l.off++ // opening quote
	l.col++
	body := l.off
	valid := true
	for l.off < len(l.src) {
		b := l.src[l.off]
		switch {
		case b == '"':
			text := stringText(l.src[body:l.off], valid)
			l.off++
			l.col++
			return token.Token{Kind: token.STRING, Text: text, Pos: start}
		case b == '\n':
			text := stringText(l.src[body:l.off], valid)
			l.off++
			l.line++
			l.col = 1
			return l.unterminated(start, text)
		case b < utf8.RuneSelf:
			l.off++
		default:
			// One byte wide means a byte that decodes to nothing; U+FFFD
			// written out in the source is three bytes and stays.
			r, w := l.wide()
			if r == utf8.RuneError && w == 1 {
				valid = false
			}
			l.off += w
		}
		l.col++
	}
	return l.unterminated(start, stringText(l.src[body:], valid))
}

func (l *Lexer) unterminated(start token.Pos, text string) token.Token {
	l.errorf(start, "unterminated string literal")
	return token.Token{Kind: token.ILLEGAL, Text: text, Pos: start}
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
