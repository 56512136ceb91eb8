// Package parser implements the first pass of the NMSL compiler: the
// generalized grammar of Figure 6.1.
//
// Per section 6.1 of the paper, the first pass parses every specification
// against one generic shape — a header ("decltype declname [params] ::="),
// a body of keyword-led clauses terminated by ";", and a trailer
// ("end decltype declname.") — and performs no semantic analysis. "Any
// group of tokens will be accepted by the parsing pass, provided that the
// group of tokens matches the basic format of the NMSL grammar. The task
// of differentiating between the specifications and clauses is left for
// the second pass." This is what makes the extension mechanism (section
// 6.3) a pure table-prepend: new clauses parse without grammar changes.
//
// The parse tree is deliberately generic: a Decl holds flat Clauses, each
// clause a flat list of Items. The semantic pass (internal/sema) splits
// clause items into subclauses using the (extensible) keyword tables.
package parser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nmsl/internal/lexer"
	"nmsl/internal/token"
)

// ItemKind classifies a clause item (the "token" and "list" productions of
// Figure 6.1).
type ItemKind uint8

const (
	// Word is an identifier or dotted name (mgmt.mib.ip.ipAddrTable).
	Word ItemKind = iota
	// Str is a quoted string literal.
	Str
	// Int is an unsigned integer literal.
	Int
	// Float is a floating point or dotted version literal (4.0.1).
	Float
	// Op is a special token: one of < <= > >= := : ,
	Op
	// Star is the late-binding placeholder "*" (Figure 4.8).
	Star
	// Group is a parenthesized or braced item sequence, used by ASN.1
	// SEQUENCE bodies and by process instantiation parameter lists.
	Group
)

func (k ItemKind) String() string {
	switch k {
	case Word:
		return "Word"
	case Str:
		return "Str"
	case Int:
		return "Int"
	case Float:
		return "Float"
	case Op:
		return "Op"
	case Star:
		return "Star"
	case Group:
		return "Group"
	}
	return fmt.Sprintf("ItemKind(%d)", int(k))
}

// Item is one element of a clause: a word, literal, operator or group.
// The parse tree is mostly items, so an Item is kept to 56 bytes: a
// literal's value is not stored beside its text but read from it by
// IntVal and FloatVal.
type Item struct {
	// Text holds the word, string, operator or literal source text.
	Text string
	// Items holds the contents of a Group. Delim is '(' or '{'.
	Items []Item
	Pos   token.Pos
	Kind  ItemKind
	Delim byte
}

// IntVal returns the value of an Int item, and 0 for any other kind. A
// literal past the int64 range, which Parse reports, reads as the
// nearest bound.
func (it Item) IntVal() int64 {
	if it.Kind != Int {
		return 0
	}
	v, _ := strconv.ParseInt(it.Text, 10, 64)
	return v
}

// FloatVal returns the value of a Float item whose text is a plain
// float, and 0 for a dotted version literal such as "4.0.1", a float
// past the float64 range, or any other kind.
func (it Item) FloatVal() float64 {
	if it.Kind != Float {
		return 0
	}
	v, err := strconv.ParseFloat(it.Text, 64)
	if err != nil {
		return 0
	}
	return v
}

// String renders the item approximately as it appeared in source.
func (it Item) String() string {
	switch it.Kind {
	case Str:
		return strconv.Quote(it.Text)
	case Group:
		parts := make([]string, len(it.Items))
		for i, sub := range it.Items {
			parts[i] = sub.String()
		}
		open, close := "(", ")"
		if it.Delim == '{' {
			open, close = "{", "}"
		}
		return open + strings.Join(parts, " ") + close
	default:
		return it.Text
	}
}

// IsWord reports whether the item is a Word with the given text.
func (it Item) IsWord(text string) bool { return it.Kind == Word && it.Text == text }

// Clause is one ";"-terminated clause: a flat item sequence whose
// decomposition into keyword-led subclauses happens in pass 2.
type Clause struct {
	Items []Item
	Pos   token.Pos
}

// Keyword returns the leading word of the clause, or "" if the clause does
// not start with a word.
func (c *Clause) Keyword() string {
	if len(c.Items) > 0 && c.Items[0].Kind == Word {
		return c.Items[0].Text
	}
	return ""
}

// String renders the clause approximately as it appeared in source.
func (c *Clause) String() string {
	parts := make([]string, len(c.Items))
	for i, it := range c.Items {
		parts[i] = it.String()
	}
	return strings.Join(parts, " ") + ";"
}

// Param is one formal parameter of a declaration header, e.g.
// "SysAddr: Process". Untyped parameters (instantiation arguments) leave
// Type empty and put the value in Name/Value.
type Param struct {
	// Name is the parameter name for formal parameters.
	Name string
	// Type is the declared type name for formal parameters.
	Type string
	// Value holds the raw item for non-formal (value) parameters.
	Value *Item
	Pos   token.Pos
}

// Decl is one generic declaration:
//
//	decltype declname [ "(" params ")" ] "::=" clauses "end" decltype declname "."
type Decl struct {
	// Type is the declaration type keyword: type, process, system, domain,
	// or any extension-defined declaration type.
	Type string
	// Name is the declaration name; quoted names keep their unquoted text
	// and set Quoted.
	Name   string
	Quoted bool
	Params []Param
	// Clauses is the declaration body in source order.
	Clauses []*Clause
	Pos     token.Pos
	End     token.Pos
}

// File is a parsed specification source file.
type File struct {
	Name  string
	Decls []*Decl
}

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a collection of syntax errors; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Err returns the list as an error, or nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// parser pulls tokens from the lexer as the grammar consumes them. A
// two-token window is all Figure 6.1 needs: the one lookahead is the
// IDENT after a "." (dotted names) and the ":" after a parameter name.
type parser struct {
	lx   *lexer.Lexer
	src  string
	cur  token.Token
	peek token.Token
	errs ErrorList
	// stack holds the items of the clauses and groups being parsed,
	// innermost last, and clauses the clauses of the declaration being
	// parsed, so that each finished slice is carved once at its final
	// length.
	stack   []Item
	clauses []Clause
	depth   int // groups open around the current token
	// The tree is carved out of blocks: a clause, its items or a
	// declaration costs an allocation only when its block runs out.
	items      slab[Item]
	clauseVals slab[Clause]
	clausePtrs slab[*Clause]
	decls      slab[Decl]
}

// slab hands out slices carved from the front of a block, allocating the
// next block, twice as long as the last up to maxSlab elements, when
// this one runs short. A carved slice is capped at its own length, so
// appending to it copies rather than overwriting its neighbour.
type slab[T any] struct {
	free []T
	size int // length of the last block
}

// maxSlab bounds a block's length: the most a parse wastes at the end
// of a block, and the most one live piece of a tree can hold on to.
const maxSlab = 1024

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.size = min(max(2*s.size, 16), maxSlab)
		s.free = make([]T, max(n, s.size))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// maxSource is the longest source Parse accepts: token.Pos offsets are
// 32 bits wide.
const maxSource = math.MaxInt32

// Parse parses src as an NMSL specification. name is used in diagnostics
// only. It returns the File together with any syntax errors, lexical
// errors first; the File contains every declaration that could be
// recovered.
//
// Token text, item text and names are slices of src, not copies: the
// File keeps src alive, and nothing may mutate either.
func Parse(name, src string) (*File, error) {
	if len(src) > maxSource {
		return &File{Name: name}, ErrorList{{Msg: fmt.Sprintf("%s: source of %d bytes is longer than the %d a position can address", name, len(src), maxSource)}}
	}
	p := &parser{lx: lexer.New(src), src: src}
	p.cur = p.lx.Next()
	p.peek = p.lx.Next()
	file := &File{Name: name}
	for p.cur.Kind != token.EOF {
		d := p.parseDecl()
		if d != nil {
			file.Decls = append(file.Decls, d)
		} else {
			p.recoverToNextDecl()
		}
	}
	lexErrs := p.lx.Errors()
	if len(lexErrs) == 0 {
		return file, p.errs.Err()
	}
	errs := make(ErrorList, 0, len(lexErrs)+len(p.errs))
	for _, le := range lexErrs {
		errs = append(errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	return file, append(errs, p.errs...)
}

// advance consumes and returns the current token; EOF is never consumed.
func (p *parser) advance() token.Token {
	t := p.cur
	if t.Kind != token.EOF {
		p.cur, p.peek = p.peek, p.lx.Next()
	}
	return t
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// recoverToNextDecl skips tokens until just after a PERIOD that plausibly
// terminates a declaration, so that one malformed declaration does not
// cascade.
func (p *parser) recoverToNextDecl() {
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

// dottedName consumes the dotted segments following first, an IDENT
// already consumed, up to max segments in all (max <= 0: no limit), and
// returns the whole name. Segments written without space between them,
// as they always are, come back as one slice of the source.
func (p *parser) dottedName(first token.Token, max int) string {
	name := first.Text
	start := int(first.Pos.Offset)
	end := start + len(first.Text)
	for n := 1; (max <= 0 || n < max) && p.cur.Kind == token.PERIOD && p.peek.Kind == token.IDENT; n++ {
		dot := p.advance()
		seg := p.advance()
		if end >= 0 && int(dot.Pos.Offset) == end && int(seg.Pos.Offset) == end+1 {
			end += 1 + len(seg.Text)
			name = p.src[start:end]
			continue
		}
		end = -1 // space or a comment inside the name: build it
		name += "." + seg.Text
	}
	return name
}

// parseName parses a declaration or member name: a STRING, or an IDENT
// optionally extended by dotted segments (cs.wisc.edu appears unquoted as
// a domain member in Figure 4.8).
func (p *parser) parseName() (name string, quoted bool, ok bool) {
	t := p.cur
	switch t.Kind {
	case token.STRING:
		p.advance()
		return t.Text, true, true
	case token.IDENT:
		p.advance()
		return p.dottedName(t, 0), false, true
	default:
		p.errorf(t.Pos, "expected declaration name, found %s", t)
		return "", false, false
	}
}

// parseTrailerName parses the declaration name in a trailer, after
// "end declType". Unlike parseName it must not treat the
// declaration-terminating "." as a dotted-name connector, so for unquoted
// names it consumes at most as many dotted segments as the header name
// has.
func (p *parser) parseTrailerName(declType, header string) (string, bool) {
	t := p.cur
	switch t.Kind {
	case token.STRING:
		p.advance()
		return t.Text, true
	case token.IDENT:
		p.advance()
		return p.dottedName(t, strings.Count(header, ".")+1), true
	default:
		p.errorf(t.Pos, "expected declaration name after \"end %s\", found %s", declType, t)
		return "", false
	}
}

func (p *parser) parseDecl() *Decl {
	start := p.cur
	if start.Kind != token.IDENT {
		p.errorf(start.Pos, "expected declaration type keyword, found %s", start)
		return nil
	}
	d := &p.decls.take(1)[0]
	d.Type, d.Pos = start.Text, start.Pos
	p.advance()

	name, quoted, ok := p.parseName()
	if !ok {
		return nil
	}
	d.Name, d.Quoted = name, quoted

	if p.cur.Kind == token.LPAREN {
		d.Params = p.parseParams()
	}

	if p.cur.Kind != token.DEFINE {
		p.errorf(p.cur.Pos, "expected \"::=\" after declaration header, found %s", p.cur)
		return nil
	}
	p.advance()

	// Clause body: clauses until the word "end" appears at clause-start
	// position.
	for p.cur.Kind != token.EOF && !p.cur.Is("end") {
		p.clauses = append(p.clauses, p.parseClause())
	}
	d.Clauses = p.popClauses()
	if t := p.cur; t.Kind == token.EOF {
		p.errorf(t.Pos, "unexpected end of input in %s %s (missing \"end %s %s.\")", d.Type, d.Name, d.Type, d.Name)
		return d
	}

	// Trailer: end decltype declname "."
	endTok := p.advance() // "end"
	d.End = endTok.Pos
	tt := p.cur
	if tt.Kind != token.IDENT {
		p.errorf(tt.Pos, "expected declaration type after \"end\", found %s", tt)
		return d
	}
	if tt.Text != d.Type {
		p.errorf(tt.Pos, "declaration trailer type %q does not match header type %q", tt.Text, d.Type)
	}
	p.advance()
	endName, ok := p.parseTrailerName(tt.Text, d.Name)
	if !ok {
		return d
	}
	if endName != d.Name {
		p.errorf(tt.Pos, "declaration trailer name %q does not match header name %q", endName, d.Name)
	}
	if p.cur.Kind != token.PERIOD {
		p.errorf(p.cur.Pos, "expected \".\" to terminate %s %s, found %s", d.Type, d.Name, p.cur)
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
func (p *parser) parseParams() []Param {
	p.advance() // '('
	var params []Param
	for {
		t := p.cur
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
		if t.Kind == token.IDENT && p.peek.Kind == token.COLON {
			name := p.advance().Text
			p.advance() // ':'
			tt := p.cur
			if tt.Kind != token.IDENT {
				p.errorf(tt.Pos, "expected type name after %q:, found %s", name, tt)
				p.advance()
				continue
			}
			p.advance()
			params = append(params, Param{Name: name, Type: tt.Text, Pos: t.Pos})
			continue
		}
		it, ok := p.parseItem()
		if !ok {
			p.advance()
			continue
		}
		params = append(params, Param{Value: &it, Pos: t.Pos})
	}
}

// popItems takes the items pushed since mark off the stack, as a slice
// of its own; nil when there are none.
func (p *parser) popItems(mark int) []Item {
	var items []Item
	if n := len(p.stack) - mark; n > 0 {
		items = p.items.take(n)
		copy(items, p.stack[mark:])
	}
	clear(p.stack[mark:]) // the stack outlives the clause; hold no group alive through it
	p.stack = p.stack[:mark]
	return items
}

// popClauses takes the declaration's clauses off their stack; nil when
// there are none.
func (p *parser) popClauses() []*Clause {
	n := len(p.clauses)
	if n == 0 {
		return nil
	}
	vals, ptrs := p.clauseVals.take(n), p.clausePtrs.take(n)
	for i := range vals {
		vals[i] = p.clauses[i]
		ptrs[i] = &vals[i]
	}
	clear(p.clauses)
	p.clauses = p.clauses[:0]
	return ptrs
}

// parseClause parses items until the terminating ";". Inside a clause,
// PERIOD always joins dotted names (declaration-terminating periods only
// occur after the trailer's "end").
func (p *parser) parseClause() Clause {
	c := Clause{Pos: p.cur.Pos}
	mark := len(p.stack)
items:
	for {
		t := p.cur
		switch t.Kind {
		case token.SEMI:
			p.advance()
			break items
		case token.EOF:
			p.errorf(t.Pos, "unterminated clause (missing \";\")")
			break items
		case token.PERIOD:
			// A stray period inside a clause is an error; most likely a
			// missing semicolon before a declaration trailer.
			p.errorf(t.Pos, "unexpected \".\" inside clause (missing \";\"?)")
			p.advance()
			break items
		}
		if t.Is("end") && len(p.stack) > mark {
			// Defensive: missing ";" before trailer. Report and stop the
			// clause so the declaration trailer can still be parsed.
			p.errorf(t.Pos, "missing \";\" before \"end\"")
			break items
		}
		if it, ok := p.parseItem(); ok {
			p.stack = append(p.stack, it)
		} else {
			p.advance()
		}
	}
	c.Items = p.popItems(mark)
	return c
}

// parseItem parses one item; ok is false, with an error recorded and no
// token consumed, when the current token cannot start one.
func (p *parser) parseItem() (it Item, ok bool) {
	t := p.cur
	switch t.Kind {
	case token.IDENT:
		p.advance()
		return Item{Kind: Word, Text: p.dottedName(t, 0), Pos: t.Pos}, true
	case token.STRING:
		p.advance()
		return Item{Kind: Str, Text: t.Text, Pos: t.Pos}, true
	case token.INT:
		p.advance()
		if _, err := strconv.ParseInt(t.Text, 10, 64); err != nil {
			p.errorf(t.Pos, "integer literal %q out of range", t.Text)
		}
		return Item{Kind: Int, Text: t.Text, Pos: t.Pos}, true
	case token.FLOAT:
		p.advance()
		return Item{Kind: Float, Text: t.Text, Pos: t.Pos}, true
	case token.STAR:
		p.advance()
		return Item{Kind: Star, Text: "*", Pos: t.Pos}, true
	case token.LT, token.LE, token.GT, token.GE, token.ASSIGN, token.COLON, token.COMMA:
		p.advance()
		return Item{Kind: Op, Text: t.Text, Pos: t.Pos}, true
	case token.LPAREN, token.LBRACE:
		return p.parseGroup(), true
	default:
		p.errorf(t.Pos, "unexpected %s in clause", t)
		return Item{}, false
	}
}

// maxNesting bounds how deep groups may nest. parseItem and parseGroup
// recurse once per level, and so does every later walk of the tree; Go
// ends the process, unrecoverably, when a goroutine's stack passes 1 GB,
// which a few megabytes of "(" reach. Fig 6.1 nests a handful deep.
const maxNesting = 1000

func (p *parser) parseGroup() Item {
	open := p.advance()
	delim := byte('(')
	closeKind := token.RPAREN
	if open.Kind == token.LBRACE {
		delim = '{'
		closeKind = token.RBRACE
	}
	if p.depth == maxNesting {
		p.errorf(open.Pos, "nesting deeper than %d", maxNesting)
		p.skipGroup()
		return Item{Kind: Group, Delim: delim, Pos: open.Pos}
	}
	p.depth++
	mark := len(p.stack)
items:
	for {
		t := p.cur
		switch t.Kind {
		case closeKind:
			p.advance()
			break items
		case token.EOF:
			p.errorf(open.Pos, "unterminated %q group", string(delim))
			break items
		case token.SEMI:
			// Inside ASN.1 groups a ';' can appear (defensively skip it).
			p.advance()
			continue
		}
		if it, ok := p.parseItem(); ok {
			p.stack = append(p.stack, it)
		} else {
			p.advance()
		}
	}
	p.depth--
	return Item{Kind: Group, Delim: delim, Items: p.popItems(mark), Pos: open.Pos}
}

// skipGroup consumes, without recursing, the rest of a group whose opener
// has been consumed: through its balancing closer, or to EOF.
func (p *parser) skipGroup() {
	for open := 1; open > 0 && p.cur.Kind != token.EOF; {
		switch p.advance().Kind {
		case token.LPAREN, token.LBRACE:
			open++
		case token.RPAREN, token.RBRACE:
			open--
		}
	}
}
