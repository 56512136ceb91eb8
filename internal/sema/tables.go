// Package sema implements the second pass of the NMSL compiler (paper
// sections 6.1-6.3): keyword-driven semantic analysis and output
// generation over the generic parse tree.
//
// Associated with each production of the generalized grammar is a list of
// actions. Actions come in two flavors:
//
//   - generic actions validate the specification and perform bookkeeping
//     (symbol table, typed model construction); they run on every compile
//     and are tagged "generic" in the compiler's tables;
//   - output-specific actions generate output and are tagged with the
//     output type they produce (e.g. "consistency" for logic facts, or a
//     configuration format name like "BartsSnmpd"); each compiler run
//     executes the generic actions plus one output tag's actions.
//
// The tables are extensible: the extension language (section 6.3)
// prepends keyword and action entries. A prepended entry with a new
// keyword extends the language; one with an existing keyword overrides —
// but only the actions it specifies. An extension that provides only an
// action tagged "DavesSnmpd" for the existing "queries" clause overrides
// only that output action, never the basic generic action.
package sema

import (
	"fmt"
	"slices"

	"nmsl/internal/ast"
	"nmsl/internal/parser"
	"nmsl/internal/token"
)

// Subclause is one keyword-led fragment of a clause, e.g. the
// `access ReadOnly` inside an exports clause.
type Subclause struct {
	Keyword string
	// Items are the arguments following the keyword (the keyword item
	// itself is excluded).
	Items []parser.Item
	Pos   token.Pos
}

// SplitClause splits a clause's flat item list into subclauses at each
// Word item that is in subKeywords. The clause's own leading keyword
// starts the first subclause. This is the pass-2 differentiation the
// paper defers out of the generalized grammar.
//
// A subclause's arguments lie together in the clause, so Items is a
// slice of c.Items, not a copy, capped at its own length: an action that
// appends to it gets a copy and cannot reach the next subclause. Actions
// must not assign to its elements.
func SplitClause(c *parser.Clause, subKeywords map[string]bool) []Subclause {
	return splitClause(nil, c, subKeywords)
}

// splitClause is SplitClause appending to subs, so that the analyzer
// splits every clause into the one buffer.
func splitClause(subs []Subclause, c *parser.Clause, subKeywords map[string]bool) []Subclause {
	items := c.Items
	if len(items) == 0 {
		return subs
	}
	// Where each subclause starts: at its keyword or, for a clause that
	// does not begin with a word, at the first item of the anonymous
	// subclause that collects what precedes the first keyword.
	var buf [8]int
	starts := append(buf[:0], 0)
	if len(subKeywords) > 0 {
		for i := 1; i < len(items); i++ {
			if items[i].Kind == parser.Word && subKeywords[items[i].Text] {
				starts = append(starts, i)
			}
		}
	}
	base := len(subs)
	subs = slices.Grow(subs, len(starts))[:base+len(starts)]
	for n, at := range starts {
		sub := &subs[base+n]
		*sub = Subclause{Pos: items[at].Pos}
		if items[at].Kind == parser.Word {
			sub.Keyword = items[at].Text
			at++
		}
		end := len(items)
		if n+1 < len(starts) {
			end = starts[n+1]
		}
		if end > at {
			sub.Items = items[at:end:end]
		}
	}
	return subs
}

// DeclContext carries the state of analyzing one declaration; like a
// ClauseContext, it is valid only during the actions it is passed to.
type DeclContext struct {
	// Spec is the specification being built.
	Spec *ast.Spec
	// Decl is the declaration under analysis.
	Decl *parser.Decl
	// Value is the typed model object the generic decl action created
	// (e.g. *ast.ProcessSpec); clause actions populate it.
	Value any
	// analyzer backlink for error reporting.
	a *Analyzer
}

// Errorf records a semantic error at pos.
func (ctx *DeclContext) Errorf(pos token.Pos, format string, args ...any) {
	ctx.a.errorf(pos, format, args...)
}

// ClauseContext carries the state of analyzing one clause. A context,
// its DeclContext and its Subs are valid only during the action they
// are passed to: the analyzer reuses them for the next clause.
type ClauseContext struct {
	*DeclContext
	Clause *parser.Clause
	// Subs is the clause split into subclauses using the resolved
	// subclause keywords.
	Subs []Subclause
}

// Sub returns the first subclause with the given keyword, or nil.
func (ctx *ClauseContext) Sub(keyword string) *Subclause {
	for i := range ctx.Subs {
		if ctx.Subs[i].Keyword == keyword {
			return &ctx.Subs[i]
		}
	}
	return nil
}

// DeclAction is a generic action pair for a declaration type.
type DeclAction struct {
	// Begin runs before the declaration's clauses; it typically creates
	// the typed model object and stores it in ctx.Value.
	Begin func(ctx *DeclContext) error
	// End runs after all clauses; it typically validates required clauses
	// and registers the object in the Spec.
	End func(ctx *DeclContext) error
}

// OutputAction generates output for one declaration or clause. The sink
// is output-type specific; for text outputs it is an *Emitter.
type OutputAction func(ctx *DeclContext, e *Emitter) error

// ClauseEntry describes one clause keyword within a declaration type:
// its subclause keywords, generic action and output actions.
type ClauseEntry struct {
	// DeclType restricts the entry to one declaration type; "" matches
	// any.
	DeclType string
	// Keyword is the clause's leading keyword.
	Keyword string
	// SubKeywords are the words that begin nested subclauses.
	SubKeywords []string
	// Generic is the validation/bookkeeping action (tag "generic").
	Generic func(ctx *ClauseContext) error
	// Outputs maps output tags to code-generation actions for this clause.
	Outputs map[string]func(ctx *ClauseContext, e *Emitter) error
}

// DeclEntry describes one declaration type.
type DeclEntry struct {
	// Type is the declaration type keyword ("type", "process", ...).
	Type string
	// Generic is the declaration's generic action pair.
	Generic DeclAction
	// Fallback handles clauses whose keyword matches no ClauseEntry; the
	// basic "type" declaration uses it to accept ASN.1 bodies, whose
	// leading word is a type name, not a fixed keyword. If nil, unknown
	// clauses are semantic errors.
	Fallback func(ctx *ClauseContext) error
	// Outputs maps output tags to per-declaration output actions.
	Outputs map[string]OutputAction
}

// Tables is the compiler's keyword/action store. Extension entries are
// prepended; lookups scan front to back, so extensions win, and action
// resolution merges across entries so an extension overrides only the
// actions it specifies (section 6.3).
type Tables struct {
	decls   []*DeclEntry
	clauses []*ClauseEntry
}

// NewTables returns tables containing only the basic NMSL language.
func NewTables() *Tables {
	t := &Tables{}
	registerBasic(t)
	return t
}

// PrependDecl adds a declaration entry ahead of existing entries.
func (t *Tables) PrependDecl(e *DeclEntry) {
	t.decls = append([]*DeclEntry{e}, t.decls...)
}

// PrependClause adds a clause entry ahead of existing entries.
func (t *Tables) PrependClause(e *ClauseEntry) {
	t.clauses = append([]*ClauseEntry{e}, t.clauses...)
}

// AppendDecl and AppendClause register basic-language entries.
func (t *Tables) AppendDecl(e *DeclEntry)     { t.decls = append(t.decls, e) }
func (t *Tables) AppendClause(e *ClauseEntry) { t.clauses = append(t.clauses, e) }

// DeclResolution is the merged view of a declaration type across all
// matching table entries.
type DeclResolution struct {
	Type     string
	Generic  DeclAction
	Fallback func(ctx *ClauseContext) error
	outputs  []map[string]OutputAction
	known    bool
}

// Known reports whether any table entry matched.
func (r *DeclResolution) Known() bool { return r.known }

// Output returns the output action for tag, scanning extension-first.
func (r *DeclResolution) Output(tag string) OutputAction {
	for _, m := range r.outputs {
		if a, ok := m[tag]; ok {
			return a
		}
	}
	return nil
}

// ResolveDecl merges all entries for a declaration type, front to back:
// the first entry providing a Begin/End/Fallback wins for that slot, and
// output tags resolve to the first entry that defines them.
func (t *Tables) ResolveDecl(declType string) DeclResolution {
	r := DeclResolution{Type: declType}
	for _, e := range t.decls {
		if e.Type != declType {
			continue
		}
		r.known = true
		if r.Generic.Begin == nil {
			r.Generic.Begin = e.Generic.Begin
		}
		if r.Generic.End == nil {
			r.Generic.End = e.Generic.End
		}
		if r.Fallback == nil {
			r.Fallback = e.Fallback
		}
		if e.Outputs != nil {
			r.outputs = append(r.outputs, e.Outputs)
		}
	}
	return r
}

// resolver memoizes the resolutions of one pass over the declarations,
// during which the tables do not change: a specification uses a handful
// of (declaration type, keyword) pairs thousands of times over.
type resolver struct {
	t       *Tables
	decls   map[string]*DeclResolution
	clauses map[[2]string]*ClauseResolution
}

func (t *Tables) resolver() *resolver {
	return &resolver{t: t, decls: map[string]*DeclResolution{}, clauses: map[[2]string]*ClauseResolution{}}
}

// decl is ResolveDecl, shared by every declaration of the type.
func (r *resolver) decl(declType string) *DeclResolution {
	res, ok := r.decls[declType]
	if !ok {
		v := r.t.ResolveDecl(declType)
		res = &v
		r.decls[declType] = res
	}
	return res
}

// clause is ResolveClause, shared by every clause of the pair.
func (r *resolver) clause(declType, keyword string) *ClauseResolution {
	key := [2]string{declType, keyword}
	res, ok := r.clauses[key]
	if !ok {
		v := r.t.ResolveClause(declType, keyword)
		res = &v
		r.clauses[key] = res
	}
	return res
}

// ClauseResolution is the merged view of one clause keyword within a
// declaration type.
type ClauseResolution struct {
	Keyword     string
	SubKeywords map[string]bool
	Generic     func(ctx *ClauseContext) error
	outputs     []map[string]func(ctx *ClauseContext, e *Emitter) error
	known       bool
}

// Known reports whether any table entry matched.
func (r *ClauseResolution) Known() bool { return r.known }

// Output returns the clause output action for tag, extension-first.
func (r *ClauseResolution) Output(tag string) func(ctx *ClauseContext, e *Emitter) error {
	for _, m := range r.outputs {
		if a, ok := m[tag]; ok {
			return a
		}
	}
	return nil
}

// ResolveClause merges all entries matching (declType, keyword). Entries
// with DeclType "" apply to every declaration type. Subclause keyword
// sets are unioned so an extension can add subclauses to a basic clause.
func (t *Tables) ResolveClause(declType, keyword string) ClauseResolution {
	r := ClauseResolution{Keyword: keyword, SubKeywords: map[string]bool{}}
	for _, e := range t.clauses {
		if e.Keyword != keyword {
			continue
		}
		if e.DeclType != "" && e.DeclType != declType {
			continue
		}
		r.known = true
		for _, kw := range e.SubKeywords {
			r.SubKeywords[kw] = true
		}
		if r.Generic == nil {
			r.Generic = e.Generic
		}
		if e.Outputs != nil {
			r.outputs = append(r.outputs, e.Outputs)
		}
	}
	return r
}

// Error is a semantic error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

// ErrorList collects semantic errors; it implements error.
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
