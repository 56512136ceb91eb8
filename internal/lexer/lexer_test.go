package lexer

import (
	"strings"
	"testing"
	"testing/quick"

	"nmsl/internal/token"
)

// All scans the entire input and returns every token up to and including
// the terminating EOF token.
func (l *Lexer) All() []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func kinds(toks []token.Token) []token.Kind {
	ks := make([]token.Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func TestScanDefine(t *testing.T) {
	toks := New("type ipAddrTable ::=").All()
	want := []token.Kind{token.IDENT, token.IDENT, token.DEFINE, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", toks, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestScanOperators(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"<", token.LT},
		{"<=", token.LE},
		{">", token.GT},
		{">=", token.GE},
		{":=", token.ASSIGN},
		{"::=", token.DEFINE},
		{":", token.COLON},
		{";", token.SEMI},
		{".", token.PERIOD},
		{",", token.COMMA},
		{"(", token.LPAREN},
		{")", token.RPAREN},
		{"{", token.LBRACE},
		{"}", token.RBRACE},
		{"*", token.STAR},
	}
	for _, c := range cases {
		tok := New(c.src).Next()
		if tok.Kind != c.kind {
			t.Errorf("%q: got %v, want %v", c.src, tok.Kind, c.kind)
		}
	}
}

func TestScanString(t *testing.T) {
	tok := New(`"romano.cs.wisc.edu"`).Next()
	if tok.Kind != token.STRING || tok.Text != "romano.cs.wisc.edu" {
		t.Fatalf("got %v", tok)
	}
}

func TestUnterminatedString(t *testing.T) {
	l := New("\"abc\ndef")
	tok := l.Next()
	if tok.Kind != token.ILLEGAL {
		t.Fatalf("got %v, want ILLEGAL", tok)
	}
	if len(l.Errors()) != 1 {
		t.Fatalf("want 1 error, got %v", l.Errors())
	}
}

func TestComments(t *testing.T) {
	src := "supports mgmt -- entire MIB subtree\n;"
	toks := New(src).All()
	want := []token.Kind{token.IDENT, token.IDENT, token.SEMI, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestHyphenatedIdent(t *testing.T) {
	toks := New("ethernet-csmacd wisc-research").All()
	if toks[0].Text != "ethernet-csmacd" || toks[1].Text != "wisc-research" {
		t.Fatalf("got %v", toks)
	}
}

// A "--" that begins a comment must not be confused with a hyphenated
// identifier continuation.
func TestCommentAfterIdent(t *testing.T) {
	toks := New("mib --comment\nnext").All()
	if len(toks) != 3 || toks[0].Text != "mib" || toks[1].Text != "next" {
		t.Fatalf("got %v", toks)
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
		text string
	}{
		{"10000000", token.INT, "10000000"},
		{"5", token.INT, "5"},
		{"4.0.1", token.FLOAT, "4.0.1"},
		{"2.5", token.FLOAT, "2.5"},
	}
	for _, c := range cases {
		tok := New(c.src).Next()
		if tok.Kind != c.kind || tok.Text != c.text {
			t.Errorf("%q: got %v", c.src, tok)
		}
	}
}

// "end type ipAddrTable." — the trailing period terminates the declaration
// and must not attach to the identifier.
func TestPeriodAfterIdent(t *testing.T) {
	toks := New("end type ipAddrTable.").All()
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT, token.PERIOD, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// A number followed by a declaration-terminating period stays an INT.
func TestIntThenPeriod(t *testing.T) {
	toks := New("5.").All()
	if toks[0].Kind != token.INT || toks[1].Kind != token.PERIOD {
		t.Fatalf("got %v", toks)
	}
}

func TestDottedNameLexesAsIdentPeriodIdent(t *testing.T) {
	toks := New("mgmt.mib.ip").All()
	want := []token.Kind{token.IDENT, token.PERIOD, token.IDENT, token.PERIOD, token.IDENT, token.EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", toks)
		}
	}
}

func TestPositions(t *testing.T) {
	l := New("a\n  bb")
	a := l.Next()
	b := l.Next()
	if a.Pos.Line != 1 || a.Pos.Column != 1 {
		t.Errorf("a at %v", a.Pos)
	}
	if b.Pos.Line != 2 || b.Pos.Column != 3 {
		t.Errorf("bb at %v", b.Pos)
	}
}

func TestIllegalChar(t *testing.T) {
	l := New("@")
	tok := l.Next()
	if tok.Kind != token.ILLEGAL {
		t.Fatalf("got %v", tok)
	}
	if len(l.Errors()) == 0 {
		t.Fatal("expected a lexical error")
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("")
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != token.EOF {
			t.Fatalf("call %d: got %v", i, tok)
		}
	}
}

// Property: lexing never panics and always terminates with EOF, for
// arbitrary input strings.
func TestLexerTotal(t *testing.T) {
	f := func(src string) bool {
		toks := New(src).All()
		return len(toks) >= 1 && toks[len(toks)-1].Kind == token.EOF
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the concatenated text of IDENT/INT/FLOAT tokens from a
// whitespace-separated word source round-trips.
func TestLexerWordsRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			ok := w != ""
			for i, r := range w {
				if i == 0 && !(r >= 'a' && r <= 'z') {
					ok = false
					break
				}
				if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
					ok = false
					break
				}
			}
			if ok {
				clean = append(clean, w)
			}
		}
		src := strings.Join(clean, " ")
		toks := New(src).All()
		var got []string
		for _, tok := range toks {
			if tok.Kind == token.IDENT {
				got = append(got, tok.Text)
			}
		}
		if len(got) != len(clean) {
			return false
		}
		for i := range got {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// builtString is how string literals were scanned before their text was
// sliced out of the source: rune by rune into a builder.
func builtString(src string) (text string, terminated bool) {
	var b strings.Builder
	for _, r := range src[1:] {
		switch r {
		case '\n':
			return b.String(), false
		case '"':
			return b.String(), true
		}
		b.WriteRune(r)
	}
	return b.String(), false
}

// String literal text is a slice of the source, and says what the
// builder said: for plain, non-ASCII, unterminated and ill-encoded
// literals alike, with the diagnostics unchanged.
func TestStringTextMatchesBuilder(t *testing.T) {
	srcs := []string{
		`"romano.cs.wisc.edu" rest`,
		`""`,
		`"`,
		`"open`,
		"\"open\nnext\"",
		`"héllo wörld ☃" x`,
		"\"bad \xff\xfe byte\" x",
		"\"bad \xff unterminated",
		"\"spelled \uFFFD out\"",
		"\"truncated \xe2\x98\" x",
	}
	for _, src := range srcs {
		l := New(src)
		tok := l.Next()
		want, terminated := builtString(src)
		if tok.Text != want {
			t.Errorf("%q: text %q, want %q", src, tok.Text, want)
		}
		if terminated {
			if tok.Kind != token.STRING || len(l.Errors()) != 0 {
				t.Errorf("%q: got %v, errors %v", src, tok, l.Errors())
			}
			continue
		}
		if tok.Kind != token.ILLEGAL || len(l.Errors()) != 1 ||
			l.Errors()[0].Error() != "1:1: unterminated string literal" {
			t.Errorf("%q: got %v, errors %v", src, tok, l.Errors())
		}
	}
}

// Token text aliases the source: scanning allocates nothing.
func TestNextAllocatesNothing(t *testing.T) {
	src := strings.Repeat(`process p ::= exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes; end process p.`+"\n", 50)
	allocs := testing.AllocsPerRun(10, func() {
		for l := New(src); l.Next().Kind != token.EOF; {
		}
	})
	if allocs > 1 { // the Lexer itself
		t.Errorf("scanning allocated %.0f times, want at most 1", allocs)
	}
}

// scanIdent's single-byte test must agree with isIdentPart on all of ASCII.
func TestASCIIIdentPartMatchesIdentPart(t *testing.T) {
	for b := 0; b < 0x80; b++ {
		if got, want := isASCIIIdentPart(byte(b)), isIdentPart(rune(b)); got != want {
			t.Errorf("isASCIIIdentPart(%q) = %v, isIdentPart says %v", rune(b), got, want)
		}
	}
}
