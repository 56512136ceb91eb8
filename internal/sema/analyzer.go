package sema

import (
	"fmt"
	"io"

	"nmsl/internal/ast"
	"nmsl/internal/parser"
	"nmsl/internal/token"
)

// Analyzer drives the second compiler pass: it walks parsed declarations,
// dispatches generic actions through the keyword tables, builds the typed
// ast.Spec, and finally resolves cross-declaration references.
type Analyzer struct {
	tables *Tables
	spec   *ast.Spec
	files  []*parser.File
	errs   ErrorList
	// pendingDomainRefs defers export-target domain checks until all
	// domains are declared.
	pendingDomainRefs []domainRef
	// decl, clause and subs are reset for every declaration and clause
	// analyzed: an action may not keep its context past its call.
	decl   DeclContext
	clause ClauseContext
	subs   []Subclause
}

// NewAnalyzer returns an Analyzer with the basic-language tables
// installed.
func NewAnalyzer() *Analyzer {
	return &Analyzer{tables: NewTables(), spec: ast.NewSpec()}
}

// Tables exposes the keyword/action tables so extensions can prepend
// entries before analysis.
func (a *Analyzer) Tables() *Tables { return a.tables }

// Spec returns the specification model built so far.
func (a *Analyzer) Spec() *ast.Spec { return a.spec }

func (a *Analyzer) errorf(pos token.Pos, format string, args ...any) {
	a.errs = append(a.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// AnalyzeFile runs the generic actions over every declaration in the
// file, accumulating the typed model and semantic errors.
func (a *Analyzer) AnalyzeFile(f *parser.File) {
	a.files = append(a.files, f)
	res := a.tables.resolver()
	for _, d := range f.Decls {
		a.analyzeDecl(res, d)
	}
}

// declContext resets the analyzer's declaration context for d.
func (a *Analyzer) declContext(d *parser.Decl) *DeclContext {
	a.decl = DeclContext{Spec: a.spec, Decl: d, a: a}
	return &a.decl
}

// clauseContext resets the analyzer's clause context for c, split at
// subKeywords.
func (a *Analyzer) clauseContext(c *parser.Clause, subKeywords map[string]bool) *ClauseContext {
	a.subs = splitClause(a.subs[:0], c, subKeywords)
	a.clause = ClauseContext{DeclContext: &a.decl, Clause: c, Subs: a.subs}
	return &a.clause
}

func (a *Analyzer) analyzeDecl(tables *resolver, d *parser.Decl) {
	res := tables.decl(d.Type)
	if !res.Known() {
		a.errorf(d.Pos, "unknown declaration type %q (expected type, process, system, domain or an extension-defined declaration)", d.Type)
		return
	}
	ctx := a.declContext(d)
	if res.Generic.Begin != nil {
		if err := res.Generic.Begin(ctx); err != nil {
			a.errorf(d.Pos, "%s", err)
			return
		}
	}
	for _, c := range d.Clauses {
		a.analyzeClause(tables, res, c)
	}
	if res.Generic.End != nil {
		if err := res.Generic.End(ctx); err != nil {
			a.errorf(d.Pos, "%s", err)
		}
	}
}

func (a *Analyzer) analyzeClause(tables *resolver, declRes *DeclResolution, c *parser.Clause) {
	kw := c.Keyword()
	cres := tables.clause(a.decl.Decl.Type, kw)
	if !cres.Known() || cres.Generic == nil {
		if declRes.Fallback != nil {
			if err := declRes.Fallback(a.clauseContext(c, nil)); err != nil {
				a.errorf(c.Pos, "%s", err)
			}
			return
		}
		if !cres.Known() {
			a.errorf(c.Pos, "unknown clause keyword %q in %s specification", kw, a.decl.Decl.Type)
			return
		}
	}
	cctx := a.clauseContext(c, cres.SubKeywords)
	if cres.Generic != nil {
		if err := cres.Generic(cctx); err != nil {
			a.errorf(c.Pos, "%s", err)
		}
	}
}

// Finish runs cross-declaration resolution (the link step) and returns
// the completed specification together with all accumulated semantic
// errors.
func (a *Analyzer) Finish() (*ast.Spec, error) {
	a.link()
	return a.spec, a.errs.Err()
}

// link resolves names across declarations: type references, MIB paths,
// process instantiations, query targets, export target domains and
// domain membership. The paper's compiler performs these checks in its
// second pass via the symbol table.
func (a *Analyzer) link() {
	a.linkTypes()
	a.linkProcesses()
	a.linkSystems()
	a.linkDomains()
}

func (a *Analyzer) linkTypes() {
	for _, name := range a.spec.TypeNames() {
		ts := a.spec.Types[name]
		if ts.Body == nil {
			continue
		}
		for _, ref := range ts.Body.Refs(nil) {
			if _, ok := a.spec.Types[ref]; !ok {
				a.errorf(ts.Decl.Pos, "type %s references undeclared type %s", name, ref)
			}
		}
	}
}

// linkContext says where a name stands, as "process p exports"; it is
// put into words only when the name fails to resolve.
type linkContext struct {
	decl, name, clause string
}

func (c linkContext) String() string { return c.decl + " " + c.name + " " + c.clause }

// resolveMIBPath checks that a dotted MIB name resolves in the tree.
func (a *Analyzer) resolveMIBPath(pos token.Pos, path string, context linkContext) {
	if a.spec.MIB.LookupSuffix(path) == nil {
		a.errorf(pos, "%s: MIB name %q does not resolve", context, path)
	}
}

func (a *Analyzer) linkProcesses() {
	for _, name := range a.spec.ProcessNames() {
		ps := a.spec.Processes[name]
		for _, v := range ps.Supports {
			a.resolveMIBPath(ps.Decl.Pos, v, linkContext{"process", name, "supports"})
		}
		for _, ex := range ps.Exports {
			for _, v := range ex.Vars {
				a.resolveMIBPath(ex.Pos, v, linkContext{"process", name, "exports"})
			}
			// export target domains are resolved in linkDomains (all
			// domains must be declared by then), recorded here:
			a.requireDomain(ex.Pos, ex.To, linkContext{"process", name, "exports to"})
		}
		for _, q := range ps.Queries {
			a.linkQuery(ps, q)
		}
	}
}

func (a *Analyzer) linkQuery(ps *ast.ProcessSpec, q ast.Query) {
	// Target: a declared process, or a Process-typed formal parameter.
	if p := ps.Param(q.Target); p != nil {
		if p.Type != "Process" {
			a.errorf(q.Pos, "process %s queries parameter %s of type %s (must be Process)", ps.Name, q.Target, p.Type)
		}
	} else if _, ok := a.spec.Processes[q.Target]; !ok {
		a.errorf(q.Pos, "process %s queries undeclared process %q", ps.Name, q.Target)
	}
	for _, r := range q.Requests {
		a.resolveMIBPath(q.Pos, r, linkContext{"process", ps.Name, "requests"})
	}
	for _, sel := range q.Using {
		a.resolveMIBPath(sel.Pos, sel.Var, linkContext{"process", ps.Name, "using"})
		// the selection value may be a formal parameter; words that are
		// not parameters must be literals or MIB names.
		if sel.Value.Kind == parser.Word {
			if ps.Param(sel.Value.Text) == nil && a.spec.MIB.LookupSuffix(sel.Value.Text) == nil {
				a.errorf(sel.Pos, "process %s: selection value %q is neither a parameter nor a MIB name", ps.Name, sel.Value.Text)
			}
		}
	}
}

func (a *Analyzer) requireDomain(pos token.Pos, name string, context linkContext) {
	a.pendingDomainRefs = append(a.pendingDomainRefs, domainRef{pos, name, context})
}

type domainRef struct {
	pos     token.Pos
	name    string
	context linkContext
}

func (a *Analyzer) linkSystems() {
	for _, name := range a.spec.SystemNames() {
		ss := a.spec.Systems[name]
		for _, v := range ss.Supports {
			a.resolveMIBPath(ss.Decl.Pos, v, linkContext{"system", name, "supports"})
		}
		for _, pi := range ss.Processes {
			a.linkInstance(pi, "system", name)
		}
	}
}

// linkInstance checks an instantiation in the declaration decl name.
func (a *Analyzer) linkInstance(pi ast.ProcInstance, decl, name string) {
	ps, ok := a.spec.Processes[pi.Name]
	if !ok {
		a.errorf(pi.Pos, "%s %s instantiates undeclared process %q", decl, name, pi.Name)
		return
	}
	if len(pi.Args) != len(ps.Params) {
		a.errorf(pi.Pos, "%s %s instantiates %s with %d arguments, want %d", decl, name, pi.Name, len(pi.Args), len(ps.Params))
	}
}

func (a *Analyzer) linkDomains() {
	names := a.spec.DomainNames()
	for _, name := range names {
		ds := a.spec.Domains[name]
		for _, sys := range ds.Systems {
			if _, ok := a.spec.Systems[sys]; !ok {
				a.errorf(ds.Decl.Pos, "domain %s lists undeclared system %q", name, sys)
			}
		}
		for _, sub := range ds.Subdomains {
			if _, ok := a.spec.Domains[sub]; !ok {
				a.errorf(ds.Decl.Pos, "domain %s lists undeclared subdomain %q", name, sub)
			}
		}
		for _, pi := range ds.Processes {
			a.linkInstance(pi, "domain", name)
		}
		for _, ex := range ds.Exports {
			for _, v := range ex.Vars {
				a.resolveMIBPath(ex.Pos, v, linkContext{"domain", name, "exports"})
			}
			a.requireDomain(ex.Pos, ex.To, linkContext{"domain", name, "exports to"})
		}
	}
	for _, ref := range a.pendingDomainRefs {
		if _, ok := a.spec.Domains[ref.name]; !ok {
			a.errorf(ref.pos, "%s undeclared domain %q", ref.context, ref.name)
		}
	}
	a.checkDomainCycles(names)
}

// checkDomainCycles rejects cyclic subdomain nesting: domains may nest
// and overlap (section 4.1.5), but a containment cycle would make the
// consistency model's transitive containment diverge. names are the
// declared domains, sorted.
func (a *Analyzer) checkDomainCycles(names []string) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(names))
	var stack []string
	var visit func(name string) bool
	visit = func(name string) bool {
		switch color[name] {
		case gray:
			return false
		case black:
			return true
		}
		color[name] = gray
		stack = append(stack, name)
		d := a.spec.Domains[name]
		if d != nil {
			for _, sub := range d.Subdomains {
				if _, ok := a.spec.Domains[sub]; !ok {
					continue
				}
				if !visit(sub) {
					return false
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[name] = black
		return true
	}
	for _, name := range names {
		if color[name] == white && !visit(name) {
			a.errorf(a.spec.Domains[name].Decl.Pos, "domain nesting cycle involving %q", stack[len(stack)-1])
			return
		}
	}
}

// Generate runs the output-specific actions tagged tag over every
// analyzed declaration, in input order, writing to w. It implements the
// code-generation side of section 6.2: each run of the compiler executes
// the generic actions (done in AnalyzeFile) and one type of output
// specific action.
func (a *Analyzer) Generate(tag string, w io.Writer) error {
	e := NewEmitter(w)
	tables := a.tables.resolver()
	for _, f := range a.files {
		for _, d := range f.Decls {
			res := tables.decl(d.Type)
			if !res.Known() {
				continue
			}
			ctx := &DeclContext{Spec: a.spec, Decl: d, a: a}
			if act := res.Output(tag); act != nil {
				if err := act(ctx, e); err != nil {
					return fmt.Errorf("%s output for %s %s: %w", tag, d.Type, d.Name, err)
				}
			}
			for _, c := range d.Clauses {
				cres := tables.clause(d.Type, c.Keyword())
				if !cres.Known() {
					continue
				}
				if act := cres.Output(tag); act != nil {
					cctx := &ClauseContext{DeclContext: ctx, Clause: c, Subs: SplitClause(c, cres.SubKeywords)}
					if err := act(cctx, e); err != nil {
						return fmt.Errorf("%s output for %s %s clause %s: %w", tag, d.Type, d.Name, c.Keyword(), err)
					}
				}
			}
		}
	}
	return e.Err()
}
