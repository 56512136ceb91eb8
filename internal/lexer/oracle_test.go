package lexer

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"nmsl/internal/token"
)

// The lexer as it was before its ASCII paths, kept verbatim as the
// oracle FuzzLexer holds Lexer to, rune by rune through the unicode
// tables. Its identifiers carry an oracle prefix, and pos converts to
// token.Pos's 32-bit fields; no other code differs.

type oracleLexer struct {
	src  string
	off  int // current byte offset
	line int
	col  int
	errs []*Error
}

// newOracle returns an oracleLexer over src.
func newOracle(src string) *oracleLexer {
	return &oracleLexer{src: src, line: 1, col: 1}
}

// Errors returns the lexical errors encountered so far.
func (l *oracleLexer) Errors() []*Error { return l.errs }

func (l *oracleLexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *oracleLexer) pos() token.Pos {
	return token.Pos{Offset: int32(l.off), Line: int32(l.line), Column: int32(l.col)}
}

// peek returns the current rune without consuming it, or -1 at EOF.
// Specifications are almost entirely ASCII, so a single byte is tried
// before the UTF-8 decoder.
func (l *oracleLexer) peek() rune {
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
func (l *oracleLexer) peekAt(delta int) rune {
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
func (l *oracleLexer) next() rune {
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

func (l *oracleLexer) skipSpaceAndComments() {
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

func oracleIsIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

// oracleIsIdentPart accepts letters, digits, '_' and '-' inside identifiers:
// NMSL names such as "wisc-research" and "ethernet-csmacd" (Figure 4.6)
// contain hyphens, matching ASN.1 identifier syntax.
func oracleIsIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// oracleIsASCIIIdentPart is oracleIsIdentPart for a single-byte rune.
func oracleIsASCIIIdentPart(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' || b == '_' || b == '-'
}

// Next scans and returns the next token. At end of input it returns an EOF
// token; calling Next after EOF keeps returning EOF.
func (l *oracleLexer) Next() token.Token {
	l.skipSpaceAndComments()
	start := l.pos()
	r := l.peek()
	switch {
	case r == -1:
		return token.Token{Kind: token.EOF, Pos: start}
	case oracleIsIdentStart(r):
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

func (l *oracleLexer) scanIdent(start token.Pos) token.Token {
	// An ASCII run moves the offset and the column together; only a
	// wider rune goes the general way. Two bytes in three of a
	// specification sit in identifiers: BenchmarkLexer runs 1.6× slower
	// with this loop written as peek/next (EXPERIMENTS, "Front-end cost per line").
	for l.off < len(l.src) {
		if b := l.src[l.off]; b < utf8.RuneSelf {
			if !oracleIsASCIIIdentPart(b) {
				break
			}
			l.off++
			l.col++
		} else if oracleIsIdentPart(l.peek()) {
			l.next()
		} else {
			break
		}
	}
	return token.Token{Kind: token.IDENT, Text: l.src[start.Offset:l.off], Pos: start}
}

func (l *oracleLexer) scanNumber(start token.Pos) token.Token {
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
func (l *oracleLexer) scanString(start token.Pos) token.Token {
	l.next() // opening quote
	valid := true
	for {
		end := l.off
		r := l.next()
		switch r {
		case -1, '\n':
			l.errorf(start, "unterminated string literal")
			return token.Token{Kind: token.ILLEGAL, Text: oracleStringText(l.src[start.Offset+1:end], valid), Pos: start}
		case '"':
			return token.Token{Kind: token.STRING, Text: oracleStringText(l.src[start.Offset+1:end], valid), Pos: start}
		case utf8.RuneError:
			// One byte wide means a byte that decodes to nothing; U+FFFD
			// written out in the source is three bytes and stays.
			if l.off-end == 1 {
				valid = false
			}
		}
	}
}

func oracleStringText(body string, valid bool) string {
	if valid {
		return body
	}
	var b strings.Builder
	for _, r := range body {
		b.WriteRune(r)
	}
	return b.String()
}

// lexerSeeds are FuzzLexer's seeds beyond the testdata: the spaces,
// letters and digits outside ASCII that the unicode tables know and a
// byte test does not, the ASCII control spaces, and bytes that are not
// UTF-8, each inside a token, between tokens and in a comment.
var lexerSeeds = []string{
	"a\u00a0b", "a\u0085b", "a\u2028b", "x\u3000y", "p ::=\u00a0supports mgmt.mib;",
	"caf\u00e9 \u00e9t\u00e9 \u03bb.\u03bc \u0416-\u0436_9", "\u00aa\u00ba \u02b0x",
	"\u0663\u0664 7\u0665 1.\u0662 4.0.\u0661 x\u0660", "\uff11\uff12.\uff13",
	"a\vb\fc\rd\te\r\nf", "\v\f\r;",
	"\xff", "a\xffb", "\"\xff\xfe\" x", "-- \xff\xe2\x98\n x", "-- trailing \u00e9",
	"\xe2\x98 \xe2\x98\x83 \xc0\x80 \xed\xa0\x80", "\"open\u00e9", "\"a\u2028b\"",
	"1.2.3.4.x 5. 6.a 7..8 9.\u00e9", "::= :: := : <= < >= > * ( ) { } ; . ,",
	"@ # $ % ^ & ! ~ ` ' \\ / ? | + = [ ]", "a-b--c -- d\n-x --\n", "_x _ __ x_-_",
}

// FuzzLexer holds Lexer to the oracle on arbitrary bytes: the same
// tokens (kind, text, offset, line and column) and the same errors.
func FuzzLexer(f *testing.F) {
	for _, pattern := range []string{"*.nmsl", "*.nmslext", "contracts/*.ncs", "errors/*.nmsl"} {
		files, err := filepath.Glob(filepath.Join("../../testdata", pattern))
		if err != nil || len(files) == 0 {
			f.Fatalf("no testdata matches %s: %v", pattern, err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(data))
		}
	}
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want := New(src), newOracle(src)
		for i := 0; ; i++ {
			g, w := got.Next(), want.Next()
			if g != w {
				t.Fatalf("token %d of %q: got %s at %d (%v), oracle %s at %d (%v)",
					i, src, g, g.Pos.Offset, g.Pos, w, w.Pos.Offset, w.Pos)
			}
			if w.Kind == token.EOF {
				break
			}
			if i > len(src) {
				t.Fatalf("%q: more tokens than bytes", src)
			}
		}
		if g, w := fmt.Sprint(got.Errors()), fmt.Sprint(want.Errors()); g != w {
			t.Fatalf("errors of %q: got %s, oracle %s", src, g, w)
		}
	})
}

// The single-byte tests agree with the unicode tables on all of ASCII.
func TestASCIIClassesMatchUnicode(t *testing.T) {
	for b := 0; b < utf8.RuneSelf; b++ {
		r := rune(b)
		if got, want := isASCIISpace(byte(b)), unicode.IsSpace(r); got != want {
			t.Errorf("isASCIISpace(%q) = %v, unicode.IsSpace says %v", r, got, want)
		}
		if got, want := isASCIIIdentStart(byte(b)), isIdentStart(r); got != want {
			t.Errorf("isASCIIIdentStart(%q) = %v, isIdentStart says %v", r, got, want)
		}
		if got, want := isASCIIDigit(byte(b)), unicode.IsDigit(r); got != want {
			t.Errorf("isASCIIDigit(%q) = %v, unicode.IsDigit says %v", r, got, want)
		}
	}
}

// BenchmarkScanVsOracle scans the testdata corpus, repeated, with the lexer
// and with the oracle.
func BenchmarkScanVsOracle(b *testing.B) {
	files, _ := filepath.Glob("../../testdata/*.nmsl")
	var sb strings.Builder
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		sb.Write(data)
	}
	src := strings.Repeat(sb.String(), 20)
	b.Run("lexer", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			for l := New(src); l.Next().Kind != token.EOF; {
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			for l := newOracle(src); l.Next().Kind != token.EOF; {
			}
		}
	})
}
