package parser

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"nmsl/internal/lexer"
	"nmsl/internal/paperspec"
	"nmsl/internal/token"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestFigure42Parses(t *testing.T) {
	f := mustParse(t, paperspec.Figure42)
	if len(f.Decls) != 2 {
		t.Fatalf("want 2 decls, got %d", len(f.Decls))
	}
	d := f.Decls[0]
	if d.Type != "type" || d.Name != "ipAddrTable" {
		t.Fatalf("decl 0: %s %s", d.Type, d.Name)
	}
	if len(d.Clauses) != 2 {
		t.Fatalf("want 2 clauses, got %d: %v", len(d.Clauses), d.Clauses)
	}
	if kw := d.Clauses[0].Keyword(); kw != "SEQUENCE" {
		t.Errorf("clause 0 keyword %q", kw)
	}
	if kw := d.Clauses[1].Keyword(); kw != "access" {
		t.Errorf("clause 1 keyword %q", kw)
	}

	entry := f.Decls[1]
	if entry.Name != "IpAddrEntry" || len(entry.Clauses) != 1 {
		t.Fatalf("decl 1: %+v", entry)
	}
	seq := entry.Clauses[0]
	// SEQUENCE { ... } → Word("SEQUENCE"), Group{...}
	if len(seq.Items) != 2 || seq.Items[1].Kind != Group || seq.Items[1].Delim != '{' {
		t.Fatalf("SEQUENCE clause items: %v", seq.Items)
	}
	// group contents: 4 member name/type pairs separated by commas →
	// 4*(2 words) + 3 commas = 11 items
	if n := len(seq.Items[1].Items); n != 11 {
		t.Errorf("group has %d items: %v", n, seq.Items[1].Items)
	}
}

func TestFigure44Parses(t *testing.T) {
	f := mustParse(t, paperspec.Figure44)
	if len(f.Decls) != 2 {
		t.Fatalf("want 2 decls, got %d", len(f.Decls))
	}
	agent := f.Decls[0]
	if agent.Type != "process" || agent.Name != "snmpdReadOnly" {
		t.Fatalf("agent: %s %s", agent.Type, agent.Name)
	}
	if len(agent.Clauses) != 2 {
		t.Fatalf("agent clauses: %v", agent.Clauses)
	}
	exp := agent.Clauses[1]
	if exp.Keyword() != "exports" {
		t.Fatalf("clause 1 keyword %q", exp.Keyword())
	}
	// exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes
	var texts []string
	for _, it := range exp.Items {
		texts = append(texts, it.String())
	}
	want := `exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes`
	if got := strings.Join(texts, " "); got != want {
		t.Errorf("exports clause:\n got %s\nwant %s", got, want)
	}

	app := f.Decls[1]
	if app.Name != "snmpaddr" {
		t.Fatalf("app name %q", app.Name)
	}
	if len(app.Params) != 2 {
		t.Fatalf("params: %+v", app.Params)
	}
	if app.Params[0].Name != "SysAddr" || app.Params[0].Type != "Process" {
		t.Errorf("param 0: %+v", app.Params[0])
	}
	if app.Params[1].Name != "Dest" || app.Params[1].Type != "IpAddress" {
		t.Errorf("param 1: %+v", app.Params[1])
	}
	q := app.Clauses[0]
	if q.Keyword() != "queries" {
		t.Fatalf("queries clause keyword %q", q.Keyword())
	}
	// the using clause contains "name := Dest"
	var hasAssign bool
	for _, it := range q.Items {
		if it.Kind == Op && it.Text == ":=" {
			hasAssign = true
		}
	}
	if !hasAssign {
		t.Error("queries clause missing := in using subclause")
	}
}

func TestFigure46Parses(t *testing.T) {
	f := mustParse(t, paperspec.Figure46)
	d := f.Decls[0]
	if d.Type != "system" || d.Name != "romano.cs.wisc.edu" || !d.Quoted {
		t.Fatalf("decl: %+v", d)
	}
	wantKw := []string{"cpu", "interface", "opsys", "supports", "process"}
	if len(d.Clauses) != len(wantKw) {
		t.Fatalf("clauses: %v", d.Clauses)
	}
	for i, kw := range wantKw {
		if got := d.Clauses[i].Keyword(); got != kw {
			t.Errorf("clause %d keyword %q, want %q", i, got, kw)
		}
	}
	// interface clause: speed 10000000 bps
	iface := d.Clauses[1]
	var sawSpeed bool
	for i, it := range iface.Items {
		if it.IsWord("speed") {
			if i+2 >= len(iface.Items) || iface.Items[i+1].Kind != Int ||
				iface.Items[i+1].IntVal() != 10000000 || !iface.Items[i+2].IsWord("bps") {
				t.Errorf("speed subclause malformed: %v", iface.Items[i:])
			}
			sawSpeed = true
		}
	}
	if !sawSpeed {
		t.Error("no speed subclause")
	}
	// opsys SunOS version 4.0.1 → version literal lexes as Float text
	op := d.Clauses[2]
	if len(op.Items) != 4 || op.Items[3].Kind != Float || op.Items[3].Text != "4.0.1" {
		t.Errorf("opsys clause: %v", op.Items)
	}
}

func TestFigure48Parses(t *testing.T) {
	f := mustParse(t, paperspec.Figure48)
	d := f.Decls[0]
	if d.Type != "domain" || d.Name != "wisc-cs" {
		t.Fatalf("decl: %+v", d)
	}
	// member: system romano.cs.wisc.edu (unquoted dotted name)
	m := d.Clauses[0]
	if m.Keyword() != "system" || len(m.Items) != 2 || m.Items[1].Text != "romano.cs.wisc.edu" {
		t.Fatalf("member clause: %v", m.Items)
	}
	// process snmpaddr(*, *)
	pc := d.Clauses[2]
	if pc.Keyword() != "process" {
		t.Fatalf("clause 2: %v", pc.Items)
	}
	if len(pc.Items) != 3 || pc.Items[2].Kind != Group {
		t.Fatalf("instantiation: %v", pc.Items)
	}
	grp := pc.Items[2]
	stars := 0
	for _, it := range grp.Items {
		if it.Kind == Star {
			stars++
		}
	}
	if stars != 2 {
		t.Errorf("want 2 star params, got %d: %v", stars, grp.Items)
	}
}

func TestCombinedParses(t *testing.T) {
	f := mustParse(t, paperspec.Combined)
	if len(f.Decls) != 8 {
		t.Fatalf("want 8 decls, got %d", len(f.Decls))
	}
}

func TestEmptyBodyDomain(t *testing.T) {
	f := mustParse(t, "domain public ::= end domain public.")
	if len(f.Decls) != 1 || len(f.Decls[0].Clauses) != 0 {
		t.Fatalf("got %+v", f.Decls)
	}
}

// The generalized grammar (Figure 6.1) accepts declarations and clauses
// with unknown keywords; semantic validation is pass 2's job.
func TestGeneralizedGrammarAcceptsUnknownKeywords(t *testing.T) {
	src := `gadget frobnicator ::=
	    whirl clockwise 3 times;
	    color "blue";
	end gadget frobnicator.`
	f := mustParse(t, src)
	d := f.Decls[0]
	if d.Type != "gadget" || d.Name != "frobnicator" {
		t.Fatalf("decl: %+v", d)
	}
	if len(d.Clauses) != 2 || d.Clauses[0].Keyword() != "whirl" {
		t.Fatalf("clauses: %v", d.Clauses)
	}
}

func TestTrailerTypeMismatch(t *testing.T) {
	_, err := Parse("t", "type foo ::= access Any; end process foo.")
	if err == nil || !strings.Contains(err.Error(), "trailer type") {
		t.Fatalf("err = %v", err)
	}
}

func TestTrailerNameMismatch(t *testing.T) {
	_, err := Parse("t", "type foo ::= access Any; end type bar.")
	if err == nil || !strings.Contains(err.Error(), "trailer name") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingDefine(t *testing.T) {
	_, err := Parse("t", "type foo access Any; end type foo.")
	if err == nil || !strings.Contains(err.Error(), "::=") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingSemicolonBeforeEnd(t *testing.T) {
	f, err := Parse("t", "domain d ::= system x end domain d.")
	if err == nil {
		t.Fatal("want error for missing semicolon")
	}
	// recovery still yields the declaration
	if len(f.Decls) != 1 {
		t.Fatalf("decls: %+v", f.Decls)
	}
}

func TestUnterminatedClause(t *testing.T) {
	_, err := Parse("t", "domain d ::= system x")
	if err == nil {
		t.Fatal("want error")
	}
}

func TestRecoveryAcrossBadDecl(t *testing.T) {
	src := `junk ( ::= ;.
	domain ok ::= end domain ok.`
	f, err := Parse("t", src)
	if err == nil {
		t.Fatal("want error from first decl")
	}
	found := false
	for _, d := range f.Decls {
		if d.Name == "ok" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovery failed, decls: %+v", f.Decls)
	}
}

func TestFrequencyOperators(t *testing.T) {
	for _, op := range []string{"<", "<=", ">", ">="} {
		src := "process p ::= exports m to \"d\" access Any frequency " + op + " 2 hours; end process p."
		f := mustParse(t, src)
		cl := f.Decls[0].Clauses[0]
		var found bool
		for _, it := range cl.Items {
			if it.Kind == Op && it.Text == op {
				found = true
			}
		}
		if !found {
			t.Errorf("operator %q not preserved: %v", op, cl.Items)
		}
	}
}

func TestClauseString(t *testing.T) {
	f := mustParse(t, `domain d ::= exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes; end domain d.`)
	got := f.Decls[0].Clauses[0].String()
	want := `exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes;`
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestNestedGroups(t *testing.T) {
	src := `type t ::= SEQUENCE { a SEQUENCE { b INTEGER }, c INTEGER }; end type t.`
	f := mustParse(t, src)
	outer := f.Decls[0].Clauses[0].Items[1]
	if outer.Kind != Group {
		t.Fatalf("outer: %v", outer)
	}
	var inner *Item
	for i := range outer.Items {
		if outer.Items[i].Kind == Group {
			inner = &outer.Items[i]
		}
	}
	if inner == nil || len(inner.Items) != 2 {
		t.Fatalf("inner group: %+v", inner)
	}
}

// TestNestingBound: groups nest to maxNesting and no deeper. Past it
// Parse reports one positioned diagnostic for the offending group,
// skips that group without recursing, and goes on to the declarations
// that follow; a million levels, closed or not, cost a diagnostic and
// not the process.
func TestNestingBound(t *testing.T) {
	nested := func(open, shut string, depth int) string {
		return "process p ::= supports " + strings.Repeat(open, depth) + "x" + strings.Repeat(shut, depth) +
			"; end process p.\ndomain d ::= end domain d."
	}
	if f := mustParse(t, nested("(", ")", maxNesting)); len(f.Decls) != 2 {
		t.Fatalf("%d levels: %d declarations, want 2", maxNesting, len(f.Decls))
	}
	for _, tc := range []struct {
		name, src string
		decls     int
	}{
		{"one too deep", nested("(", ")", maxNesting+1), 2},
		{"a million parentheses", nested("(", ")", 1_000_000), 2},
		{"a million braces", nested("{", "}", 1_000_000), 2},
		{"a million never closed", nested("(", "", 1_000_000), 1}, // the rest of the text is inside p
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Parse("deep.nmsl", tc.src)
			list, _ := err.(ErrorList)
			if len(list) == 0 {
				t.Fatalf("err = %v, want an ErrorList", err)
			}
			want := fmt.Sprintf("nesting deeper than %d", maxNesting)
			if list[0].Msg != want || list[0].Pos.Line != 1 || int(list[0].Pos.Column) != len("process p ::= supports ")+maxNesting+1 {
				t.Errorf("first error %q at %v, want %q at the group one past the bound", list[0].Msg, list[0].Pos, want)
			}
			if len(f.Decls) != tc.decls {
				t.Errorf("%d declarations recovered, want %d", len(f.Decls), tc.decls)
			}
			SameAsMaterialized(t, tc.name, tc.src)
		})
	}
}

// Property: for arbitrary input, Parse never panics; either it returns
// declarations or an error (or both, with recovery).
func TestParseTotal(t *testing.T) {
	f := func(src string) bool {
		_, _ = Parse("q", src)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: well-formed single-clause declarations with arbitrary
// identifier names round-trip the name.
func TestParseDeclNameRoundTrip(t *testing.T) {
	names := []string{"a", "zz", "wisc-cs", "a1", "deep.dotted.name"}
	for _, n := range names {
		src := "domain " + n + " ::= end domain " + n + "."
		f := mustParse(t, src)
		if f.Decls[0].Name != n {
			t.Errorf("name %q parsed as %q", n, f.Decls[0].Name)
		}
	}
}

// SameAsMaterialized fails t unless Parse and parseMaterialized agree on
// src: deeply equal files, and the same errors in the same order. It is
// exported to the corpus test in package parser_test, which may import
// the packages that import this one.
func SameAsMaterialized(t testing.TB, name, src string) {
	t.Helper()
	got, gotErr := Parse(name, src)
	want, wantErr := parseMaterialized(name, src)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: streaming and materialized parses differ:\n got %s\nwant %s", name, renderFile(got), renderFile(want))
	}
	if g, w := errorStrings(gotErr), errorStrings(wantErr); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: errors differ:\n got %q\nwant %q", name, g, w)
	}
}

func errorStrings(err error) []string {
	if err == nil {
		return nil
	}
	list, ok := err.(ErrorList)
	if !ok {
		return []string{"not an ErrorList: " + err.Error()}
	}
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.Error()
	}
	return out
}

func renderFile(f *File) string {
	var b strings.Builder
	for _, d := range f.Decls {
		fmt.Fprintf(&b, "%s %q quoted=%v params=%d @%v end@%v\n", d.Type, d.Name, d.Quoted, len(d.Params), d.Pos, d.End)
		for _, c := range d.Clauses {
			fmt.Fprintf(&b, "\t@%v %s\n", c.Pos, c)
		}
	}
	return b.String()
}

func TestStreamingParseMatchesMaterializedSeeds(t *testing.T) {
	for i, src := range FuzzSeeds {
		SameAsMaterialized(t, fmt.Sprintf("seed %d", i), src)
	}
}

type matParser struct {
	toks  []token.Token
	pos   int
	errs  ErrorList
	depth int
}

// parseMaterialized is Parse as it was before it streamed: every token
// scanned into a slice first, every Item allocated on its own and copied
// into its clause, every dotted name concatenated. Kept word for word as
// the oracle the streaming parser is compared with.
func parseMaterialized(name, src string) (*File, error) {
	lx := lexer.New(src)
	var toks []token.Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	p := &matParser{toks: toks}
	for _, le := range lx.Errors() {
		p.errs = append(p.errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	file := &File{Name: name}
	for p.cur().Kind != token.EOF {
		d := p.parseDecl()
		if d != nil {
			file.Decls = append(file.Decls, d)
		} else {
			p.recoverToNextDecl()
		}
	}
	return file, p.errs.Err()
}

func (p *matParser) cur() token.Token { return p.toks[p.pos] }
func (p *matParser) peek() token.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *matParser) advance() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *matParser) errorf(pos token.Pos, format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// recoverToNextDecl skips tokens until just after a PERIOD that plausibly
// terminates a declaration, so that one malformed declaration does not
// cascade.
func (p *matParser) recoverToNextDecl() {
	for {
		t := p.advance()
		if t.Kind == token.EOF {
			return
		}
		if t.Kind == token.PERIOD {
			return
		}
	}
}

// parseName parses a declaration or member name: a STRING, or an IDENT
// optionally extended by dotted segments (cs.wisc.edu appears unquoted as
// a domain member in Figure 4.8).
func (p *matParser) parseName() (name string, quoted bool, ok bool) {
	t := p.cur()
	switch t.Kind {
	case token.STRING:
		p.advance()
		return t.Text, true, true
	case token.IDENT:
		p.advance()
		parts := []string{t.Text}
		for p.cur().Kind == token.PERIOD && p.peek().Kind == token.IDENT {
			p.advance()
			parts = append(parts, p.advance().Text)
		}
		return strings.Join(parts, "."), false, true
	default:
		p.errorf(t.Pos, "expected declaration name, found %s", t)
		return "", false, false
	}
}

// parseTrailerName parses the declaration name in a trailer. Unlike
// parseName it must not treat the declaration-terminating "." as a
// dotted-name connector, so for unquoted names it consumes at most as many
// dotted segments as the header name has.
func (p *matParser) parseTrailerName(header string) (string, bool) {
	t := p.cur()
	switch t.Kind {
	case token.STRING:
		p.advance()
		return t.Text, true
	case token.IDENT:
		p.advance()
		parts := []string{t.Text}
		want := strings.Count(header, ".") + 1
		for len(parts) < want && p.cur().Kind == token.PERIOD && p.peek().Kind == token.IDENT {
			p.advance()
			parts = append(parts, p.advance().Text)
		}
		return strings.Join(parts, "."), true
	default:
		p.errorf(t.Pos, "expected declaration name after \"end %s\", found %s", p.toks[p.pos-1].Text, t)
		return "", false
	}
}

func (p *matParser) parseDecl() *Decl {
	start := p.cur()
	if start.Kind != token.IDENT {
		p.errorf(start.Pos, "expected declaration type keyword, found %s", start)
		return nil
	}
	d := &Decl{Type: start.Text, Pos: start.Pos}
	p.advance()

	name, quoted, ok := p.parseName()
	if !ok {
		return nil
	}
	d.Name, d.Quoted = name, quoted

	if p.cur().Kind == token.LPAREN {
		d.Params = p.parseParams()
	}

	if p.cur().Kind != token.DEFINE {
		p.errorf(p.cur().Pos, "expected \"::=\" after declaration header, found %s", p.cur())
		return nil
	}
	p.advance()

	// Clause body: clauses until the word "end" appears at clause-start
	// position.
	for {
		t := p.cur()
		if t.Kind == token.EOF {
			p.errorf(t.Pos, "unexpected end of input in %s %s (missing \"end %s %s.\")", d.Type, d.Name, d.Type, d.Name)
			return d
		}
		if t.Is("end") {
			break
		}
		c := p.parseClause()
		if c != nil {
			d.Clauses = append(d.Clauses, c)
		}
	}

	// Trailer: end decltype declname "."
	endTok := p.advance() // "end"
	d.End = endTok.Pos
	tt := p.cur()
	if tt.Kind != token.IDENT {
		p.errorf(tt.Pos, "expected declaration type after \"end\", found %s", tt)
		return d
	}
	if tt.Text != d.Type {
		p.errorf(tt.Pos, "declaration trailer type %q does not match header type %q", tt.Text, d.Type)
	}
	p.advance()
	endName, ok := p.parseTrailerName(d.Name)
	if !ok {
		return d
	}
	if endName != d.Name {
		p.errorf(tt.Pos, "declaration trailer name %q does not match header name %q", endName, d.Name)
	}
	if p.cur().Kind != token.PERIOD {
		p.errorf(p.cur().Pos, "expected \".\" to terminate %s %s, found %s", d.Type, d.Name, p.cur())
		return d
	}
	p.advance()
	return d
}

// parseParams parses "(" param ("," | ";") param ... ")". The paper's
// grammar (Figure 4.3) separates parameters with "," but its example
// (Figure 4.4) uses ";"; both are accepted. A formal parameter is
// "Name : Type"; a value parameter is any single item (Figure 4.8 uses
// "*" placeholders at instantiation).
func (p *matParser) parseParams() []Param {
	p.advance() // '('
	var params []Param
	for {
		t := p.cur()
		if t.Kind == token.RPAREN {
			p.advance()
			return params
		}
		if t.Kind == token.EOF {
			p.errorf(t.Pos, "unterminated parameter list")
			return params
		}
		if t.Kind == token.COMMA || t.Kind == token.SEMI {
			p.advance()
			continue
		}
		if t.Kind == token.IDENT && p.peek().Kind == token.COLON {
			name := p.advance().Text
			p.advance() // ':'
			tt := p.cur()
			if tt.Kind != token.IDENT {
				p.errorf(tt.Pos, "expected type name after %q:, found %s", name, tt)
				p.advance()
				continue
			}
			p.advance()
			params = append(params, Param{Name: name, Type: tt.Text, Pos: t.Pos})
			continue
		}
		it := p.parseItem()
		if it == nil {
			p.advance()
			continue
		}
		params = append(params, Param{Value: it, Pos: t.Pos})
	}
}

// parseClause parses items until the terminating ";". Inside a clause,
// PERIOD always joins dotted names (declaration-terminating periods only
// occur after the trailer's "end").
func (p *matParser) parseClause() *Clause {
	c := &Clause{Pos: p.cur().Pos}
	for {
		t := p.cur()
		switch t.Kind {
		case token.SEMI:
			p.advance()
			return c
		case token.EOF:
			p.errorf(t.Pos, "unterminated clause (missing \";\")")
			return c
		case token.PERIOD:
			// A stray period inside a clause is an error; most likely a
			// missing semicolon before a declaration trailer.
			p.errorf(t.Pos, "unexpected \".\" inside clause (missing \";\"?)")
			p.advance()
			return c
		}
		if t.Is("end") && len(c.Items) > 0 {
			// Defensive: missing ";" before trailer. Report and stop the
			// clause so the declaration trailer can still be parsed.
			p.errorf(t.Pos, "missing \";\" before \"end\"")
			return c
		}
		it := p.parseItem()
		if it == nil {
			p.advance()
			continue
		}
		c.Items = append(c.Items, *it)
	}
}

func (p *matParser) parseItem() *Item {
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		p.advance()
		text := t.Text
		for p.cur().Kind == token.PERIOD && p.peek().Kind == token.IDENT {
			p.advance()
			text += "." + p.advance().Text
		}
		return &Item{Kind: Word, Text: text, Pos: t.Pos}
	case token.STRING:
		p.advance()
		return &Item{Kind: Str, Text: t.Text, Pos: t.Pos}
	case token.INT:
		p.advance()
		if _, err := strconv.ParseInt(t.Text, 10, 64); err != nil {
			p.errorf(t.Pos, "integer literal %q out of range", t.Text)
		}
		return &Item{Kind: Int, Text: t.Text, Pos: t.Pos}
	case token.FLOAT:
		p.advance()
		return &Item{Kind: Float, Text: t.Text, Pos: t.Pos}
	case token.STAR:
		p.advance()
		return &Item{Kind: Star, Text: "*", Pos: t.Pos}
	case token.LT, token.LE, token.GT, token.GE, token.ASSIGN, token.COLON, token.COMMA:
		p.advance()
		return &Item{Kind: Op, Text: t.Text, Pos: t.Pos}
	case token.LPAREN, token.LBRACE:
		return p.parseGroup()
	default:
		p.errorf(t.Pos, "unexpected %s in clause", t)
		return nil
	}
}

func (p *matParser) parseGroup() *Item {
	open := p.advance()
	delim := byte('(')
	closeKind := token.RPAREN
	if open.Kind == token.LBRACE {
		delim = '{'
		closeKind = token.RBRACE
	}
	g := &Item{Kind: Group, Delim: delim, Pos: open.Pos}
	// The one addition since: Parse's nesting bound, or the oracle would
	// overflow its stack on the inputs Parse now survives.
	if p.depth == maxNesting {
		p.errorf(open.Pos, "nesting deeper than %d", maxNesting)
		for n := 1; n > 0 && p.cur().Kind != token.EOF; {
			switch p.advance().Kind {
			case token.LPAREN, token.LBRACE:
				n++
			case token.RPAREN, token.RBRACE:
				n--
			}
		}
		return g
	}
	p.depth++
	defer func() { p.depth-- }()
	for {
		t := p.cur()
		if t.Kind == closeKind {
			p.advance()
			return g
		}
		if t.Kind == token.EOF {
			p.errorf(open.Pos, "unterminated %q group", string(delim))
			return g
		}
		// Inside ASN.1 groups a ';' can appear (defensively skip it).
		if t.Kind == token.SEMI {
			p.advance()
			continue
		}
		it := p.parseItem()
		if it == nil {
			p.advance()
			continue
		}
		g.Items = append(g.Items, *it)
	}
}
