package sema

import (
	"fmt"
	"slices"

	"nmsl/internal/asn1"
	"nmsl/internal/ast"
	"nmsl/internal/mib"
	"nmsl/internal/parser"
)

// registerBasic installs the basic NMSL language (sections 4.1.2-4.1.5)
// into the tables: the four declaration types and their clauses, each
// with its generic action. Output-specific actions are registered by the
// packages that own the output formats (internal/consistency,
// internal/configgen) and by extensions.
func registerBasic(t *Tables) {
	registerTypeDecl(t)
	registerProcessDecl(t)
	registerSystemDecl(t)
	registerDomainDecl(t)
}

// parseVList parses a comma-separated list of names (VList in Figure
// 4.3): words (possibly dotted) or quoted strings. It appends them to
// dst, grown once for the whole list; with an error it returns nil, and
// dst's elements are as they were.
func parseVList(dst []string, items []parser.Item) ([]string, error) {
	names := 0
	for _, it := range items {
		if it.Kind == parser.Word || it.Kind == parser.Str {
			names++
		}
	}
	out := slices.Grow(dst, names)
	expectName := true
	for _, it := range items {
		if it.Kind == parser.Op && it.Text == "," {
			if expectName {
				return nil, fmt.Errorf("misplaced \",\" in name list")
			}
			expectName = true
			continue
		}
		if !expectName {
			return nil, fmt.Errorf("missing \",\" before %s in name list", it.String())
		}
		switch it.Kind {
		case parser.Word, parser.Str:
			out = append(out, it.Text)
		default:
			return nil, fmt.Errorf("expected a name in list, found %s", it.String())
		}
		expectName = false
	}
	if expectName && len(out) > len(dst) {
		return nil, fmt.Errorf("trailing \",\" in name list")
	}
	if len(out) == len(dst) {
		return nil, fmt.Errorf("empty name list")
	}
	return out, nil
}

// parseSingleWord expects exactly one word (or string) argument.
func parseSingleWord(sub *Subclause) (string, error) {
	if len(sub.Items) != 1 {
		return "", fmt.Errorf("%q takes exactly one argument", sub.Keyword)
	}
	it := sub.Items[0]
	if it.Kind != parser.Word && it.Kind != parser.Str {
		return "", fmt.Errorf("%q argument must be a name, found %s", sub.Keyword, it.String())
	}
	return it.Text, nil
}

// parseAccessSub parses an "access" subclause into a mib.Access.
func parseAccessSub(sub *Subclause) (mib.Access, error) {
	word, err := parseSingleWord(sub)
	if err != nil {
		return mib.AccessUnspecified, err
	}
	return mib.ParseAccess(word)
}

// parseExport assembles an ast.Export from an exports clause's
// subclauses.
func parseExport(ctx *ClauseContext) (ast.Export, bool) {
	return ParseExport(ctx)
}

// ParseExport assembles an ast.Export from an exports clause split into
// subclauses. It is exported for output actions (e.g. configuration
// generators) that render exports clauses during Generate, when the
// typed model object is not attached to the context.
func ParseExport(ctx *ClauseContext) (ast.Export, bool) {
	ex := ast.Export{Pos: ctx.Clause.Pos, Access: mib.AccessUnspecified}
	lead := ctx.Subs[0]
	vars, err := parseVList(nil, lead.Items)
	if err != nil {
		ctx.Errorf(lead.Pos, "exports: %s", err)
		return ex, false
	}
	ex.Vars = vars
	ok := true
	sawTo := false
	for _, sub := range ctx.Subs[1:] {
		switch sub.Keyword {
		case "to":
			name, err := parseSingleWord(&sub)
			if err != nil {
				ctx.Errorf(sub.Pos, "exports: %s", err)
				ok = false
				continue
			}
			ex.To = name
			sawTo = true
		case "access":
			acc, err := parseAccessSub(&sub)
			if err != nil {
				ctx.Errorf(sub.Pos, "exports: %s", err)
				ok = false
				continue
			}
			ex.Access = acc
		case "frequency":
			fr, err := ast.ParseFreq(sub.Items)
			if err != nil {
				ctx.Errorf(sub.Pos, "exports: %s", err)
				ok = false
				continue
			}
			ex.Freq = fr
		default:
			ctx.Errorf(sub.Pos, "exports: unknown subclause %q", sub.Keyword)
			ok = false
		}
	}
	if !sawTo {
		ctx.Errorf(lead.Pos, "exports requires a \"to\" subclause naming the importing domain")
		ok = false
	}
	if ex.Access == mib.AccessUnspecified {
		// An export without an explicit mode grants read-only access, the
		// safe default for management data.
		ex.Access = mib.AccessReadOnly
	}
	return ex, ok
}

// parseInstance parses a process instantiation: a name optionally
// followed by an argument group (Figure 4.5: ProcInvoke).
func parseInstance(sub *Subclause) (ast.ProcInstance, error) {
	if len(sub.Items) == 0 {
		return ast.ProcInstance{}, fmt.Errorf("process instantiation missing process name")
	}
	name := sub.Items[0]
	if name.Kind != parser.Word && name.Kind != parser.Str {
		return ast.ProcInstance{}, fmt.Errorf("expected process name, found %s", name.String())
	}
	pi := ast.ProcInstance{Name: name.Text, Pos: name.Pos}
	rest := sub.Items[1:]
	if len(rest) == 0 {
		return pi, nil
	}
	if len(rest) != 1 || rest[0].Kind != parser.Group || rest[0].Delim != '(' {
		return ast.ProcInstance{}, fmt.Errorf("unexpected %s after process name %s", rest[0].String(), pi.Name)
	}
	for _, it := range rest[0].Items {
		switch it.Kind {
		case parser.Op:
			if it.Text != "," {
				return ast.ProcInstance{}, fmt.Errorf("unexpected %q in argument list of %s", it.Text, pi.Name)
			}
		case parser.Star:
			pi.Args = append(pi.Args, ast.Arg{Kind: ast.ArgStar, Text: "*", Pos: it.Pos})
		case parser.Str:
			pi.Args = append(pi.Args, ast.Arg{Kind: ast.ArgString, Text: it.Text, Pos: it.Pos})
		case parser.Word:
			pi.Args = append(pi.Args, ast.Arg{Kind: ast.ArgWord, Text: it.Text, Pos: it.Pos})
		case parser.Int:
			pi.Args = append(pi.Args, ast.Arg{Kind: ast.ArgNumber, Text: it.Text, Num: float64(it.IntVal()), Pos: it.Pos})
		case parser.Float:
			pi.Args = append(pi.Args, ast.Arg{Kind: ast.ArgNumber, Text: it.Text, Num: it.FloatVal(), Pos: it.Pos})
		default:
			return ast.ProcInstance{}, fmt.Errorf("bad argument %s for %s", it.String(), pi.Name)
		}
	}
	return pi, nil
}

// ---- type declarations (section 4.1.2, Figure 4.1) ----

func registerTypeDecl(t *Tables) {
	t.AppendDecl(&DeclEntry{
		Type: "type",
		Generic: DeclAction{
			Begin: func(ctx *DeclContext) error {
				if len(ctx.Decl.Params) > 0 {
					return fmt.Errorf("type %s: type specifications take no parameters", ctx.Decl.Name)
				}
				ctx.Value = &ast.TypeSpec{Name: ctx.Decl.Name, Decl: ctx.Decl, Access: mib.AccessUnspecified}
				return nil
			},
			End: func(ctx *DeclContext) error {
				ts := ctx.Value.(*ast.TypeSpec)
				if ts.Body == nil {
					return fmt.Errorf("type %s has no ASN.1 body", ts.Name)
				}
				if _, dup := ctx.Spec.Types[ts.Name]; dup {
					return fmt.Errorf("type %s declared more than once", ts.Name)
				}
				ctx.Spec.Types[ts.Name] = ts
				return nil
			},
		},
		// The ASN.1 body clause begins with a type name (SEQUENCE,
		// INTEGER, ...), not a fixed keyword, so it arrives here.
		Fallback: func(ctx *ClauseContext) error {
			ts := ctx.Value.(*ast.TypeSpec)
			if ts.Body != nil {
				return fmt.Errorf("type %s has more than one ASN.1 body", ts.Name)
			}
			body, err := asn1.ParseItems(ctx.Clause.Items)
			if err != nil {
				return err
			}
			ts.Body = body
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "type",
		Keyword:  "access",
		Generic: func(ctx *ClauseContext) error {
			ts := ctx.Value.(*ast.TypeSpec)
			if ts.Body == nil {
				return fmt.Errorf("type %s: access clause must follow the ASN.1 body", ts.Name)
			}
			if ts.Access != mib.AccessUnspecified {
				return fmt.Errorf("type %s has more than one access clause", ts.Name)
			}
			acc, err := parseAccessSub(&ctx.Subs[0])
			if err != nil {
				return err
			}
			ts.Access = acc
			return nil
		},
	})
}

// ---- process declarations (section 4.1.3, Figure 4.3) ----

func registerProcessDecl(t *Tables) {
	t.AppendDecl(&DeclEntry{
		Type: "process",
		Generic: DeclAction{
			Begin: func(ctx *DeclContext) error {
				ps := &ast.ProcessSpec{Name: ctx.Decl.Name, Decl: ctx.Decl}
				for _, p := range ctx.Decl.Params {
					if p.Name == "" || p.Type == "" {
						return fmt.Errorf("process %s: parameters must be declared as Name: Type", ps.Name)
					}
					if ps.Param(p.Name) != nil {
						return fmt.Errorf("process %s: duplicate parameter %s", ps.Name, p.Name)
					}
					ps.Params = append(ps.Params, ast.ProcParam{Name: p.Name, Type: p.Type, Pos: p.Pos})
				}
				ctx.Value = ps
				return nil
			},
			End: func(ctx *DeclContext) error {
				ps := ctx.Value.(*ast.ProcessSpec)
				if _, dup := ctx.Spec.Processes[ps.Name]; dup {
					return fmt.Errorf("process %s declared more than once", ps.Name)
				}
				ctx.Spec.Processes[ps.Name] = ps
				return nil
			},
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "process",
		Keyword:  "supports",
		Generic: func(ctx *ClauseContext) error {
			ps := ctx.Value.(*ast.ProcessSpec)
			vars, err := parseVList(ps.Supports, ctx.Subs[0].Items)
			if err != nil {
				return fmt.Errorf("supports: %s", err)
			}
			ps.Supports = vars
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType:    "process",
		Keyword:     "exports",
		SubKeywords: []string{"to", "access", "frequency"},
		Generic: func(ctx *ClauseContext) error {
			ps := ctx.Value.(*ast.ProcessSpec)
			ex, ok := parseExport(ctx)
			if ok {
				ps.Exports = append(ps.Exports, ex)
			}
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType:    "process",
		Keyword:     "queries",
		SubKeywords: []string{"requests", "using", "access", "frequency"},
		Generic: func(ctx *ClauseContext) error {
			ps := ctx.Value.(*ast.ProcessSpec)
			q, ok := parseQuery(ctx)
			if ok {
				ps.Queries = append(ps.Queries, q)
			}
			return nil
		},
	})
}

// parseQuery assembles an ast.Query from a queries clause. Figure 4.3
// shows retrieval queries; an optional "access" subclause expresses the
// modification and remote-execution forms the full language supports.
func parseQuery(ctx *ClauseContext) (ast.Query, bool) {
	q := ast.Query{Pos: ctx.Clause.Pos, Access: mib.AccessReadOnly}
	target, err := parseSingleWord(&ctx.Subs[0])
	if err != nil {
		ctx.Errorf(ctx.Subs[0].Pos, "queries: %s", err)
		return q, false
	}
	q.Target = target
	ok := true
	for _, sub := range ctx.Subs[1:] {
		switch sub.Keyword {
		case "requests":
			vars, err := parseVList(q.Requests, sub.Items)
			if err != nil {
				ctx.Errorf(sub.Pos, "requests: %s", err)
				ok = false
				continue
			}
			q.Requests = vars
		case "using":
			sels, err := parseUsing(sub.Items)
			if err != nil {
				ctx.Errorf(sub.Pos, "using: %s", err)
				ok = false
				continue
			}
			q.Using = append(q.Using, sels...)
		case "access":
			acc, err := parseAccessSub(&sub)
			if err != nil {
				ctx.Errorf(sub.Pos, "queries: %s", err)
				ok = false
				continue
			}
			q.Access = acc
		case "frequency":
			fr, err := ast.ParseFreq(sub.Items)
			if err != nil {
				ctx.Errorf(sub.Pos, "queries: %s", err)
				ok = false
				continue
			}
			q.Freq = fr
		default:
			ctx.Errorf(sub.Pos, "queries: unknown subclause %q", sub.Keyword)
			ok = false
		}
	}
	if len(q.Requests) == 0 {
		ctx.Errorf(q.Pos, "queries requires a \"requests\" subclause")
		ok = false
	}
	return q, ok
}

// parseUsing parses the AsgnVList of Figure 4.3: "var := value" bindings
// separated by commas.
func parseUsing(items []parser.Item) ([]ast.Selection, error) {
	var out []ast.Selection
	i := 0
	for i < len(items) {
		if items[i].Kind == parser.Op && items[i].Text == "," {
			i++
			continue
		}
		if items[i].Kind != parser.Word {
			return nil, fmt.Errorf("expected variable name, found %s", items[i].String())
		}
		if i+1 >= len(items) || items[i+1].Kind != parser.Op || items[i+1].Text != ":=" {
			return nil, fmt.Errorf("expected \":=\" after %s", items[i].Text)
		}
		if i+2 >= len(items) {
			return nil, fmt.Errorf("missing value after %s :=", items[i].Text)
		}
		out = append(out, ast.Selection{Var: items[i].Text, Value: items[i+2], Pos: items[i].Pos})
		i += 3
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty using clause")
	}
	return out, nil
}

// ---- system declarations (section 4.1.4, Figure 4.5) ----

func registerSystemDecl(t *Tables) {
	t.AppendDecl(&DeclEntry{
		Type: "system",
		Generic: DeclAction{
			Begin: func(ctx *DeclContext) error {
				if len(ctx.Decl.Params) > 0 {
					return fmt.Errorf("system %s: system specifications take no parameters", ctx.Decl.Name)
				}
				ctx.Value = &ast.SystemSpec{Name: ctx.Decl.Name, Decl: ctx.Decl}
				return nil
			},
			End: func(ctx *DeclContext) error {
				ss := ctx.Value.(*ast.SystemSpec)
				if ss.CPU == "" {
					return fmt.Errorf("system %s missing cpu clause", ss.Name)
				}
				if len(ss.Interfaces) == 0 {
					return fmt.Errorf("system %s has no interface clauses", ss.Name)
				}
				if _, dup := ctx.Spec.Systems[ss.Name]; dup {
					return fmt.Errorf("system %s declared more than once", ss.Name)
				}
				ctx.Spec.Systems[ss.Name] = ss
				return nil
			},
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "system",
		Keyword:  "cpu",
		Generic: func(ctx *ClauseContext) error {
			ss := ctx.Value.(*ast.SystemSpec)
			if ss.CPU != "" {
				return fmt.Errorf("system %s has more than one cpu clause", ss.Name)
			}
			word, err := parseSingleWord(&ctx.Subs[0])
			if err != nil {
				return fmt.Errorf("cpu: %s", err)
			}
			ss.CPU = word
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType:    "system",
		Keyword:     "interface",
		SubKeywords: []string{"net", "protocols", "type", "speed"},
		Generic: func(ctx *ClauseContext) error {
			ss := ctx.Value.(*ast.SystemSpec)
			ifc, ok := parseInterface(ctx)
			if ok {
				for _, prev := range ss.Interfaces {
					if prev.Name == ifc.Name {
						return fmt.Errorf("system %s: duplicate interface %s", ss.Name, ifc.Name)
					}
				}
				ss.Interfaces = append(ss.Interfaces, ifc)
			}
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType:    "system",
		Keyword:     "opsys",
		SubKeywords: []string{"version"},
		Generic: func(ctx *ClauseContext) error {
			ss := ctx.Value.(*ast.SystemSpec)
			if ss.OpSys != "" {
				return fmt.Errorf("system %s has more than one opsys clause", ss.Name)
			}
			name, err := parseSingleWord(&ctx.Subs[0])
			if err != nil {
				return fmt.Errorf("opsys: %s", err)
			}
			ss.OpSys = name
			for _, sub := range ctx.Subs[1:] {
				if sub.Keyword != "version" {
					return fmt.Errorf("opsys: unknown subclause %q", sub.Keyword)
				}
				if len(sub.Items) != 1 {
					return fmt.Errorf("opsys version takes exactly one argument")
				}
				ss.OpSysVersion = sub.Items[0].Text
			}
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "system",
		Keyword:  "supports",
		Generic: func(ctx *ClauseContext) error {
			ss := ctx.Value.(*ast.SystemSpec)
			vars, err := parseVList(ss.Supports, ctx.Subs[0].Items)
			if err != nil {
				return fmt.Errorf("supports: %s", err)
			}
			ss.Supports = vars
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "system",
		Keyword:  "process",
		Generic: func(ctx *ClauseContext) error {
			ss := ctx.Value.(*ast.SystemSpec)
			pi, err := parseInstance(&ctx.Subs[0])
			if err != nil {
				return err
			}
			ss.Processes = append(ss.Processes, pi)
			return nil
		},
	})
}

// parseInterface assembles an ast.Interface from an interface clause
// (Figure 4.5/4.6: "interface ie0 net wisc-research type ethernet-csmacd
// speed 10000000 bps").
func parseInterface(ctx *ClauseContext) (ast.Interface, bool) {
	var ifc ast.Interface
	name, err := parseSingleWord(&ctx.Subs[0])
	if err != nil {
		ctx.Errorf(ctx.Subs[0].Pos, "interface: %s", err)
		return ifc, false
	}
	ifc.Name = name
	ifc.Pos = ctx.Clause.Pos
	ok := true
	for _, sub := range ctx.Subs[1:] {
		switch sub.Keyword {
		case "net":
			n, err := parseSingleWord(&sub)
			if err != nil {
				ctx.Errorf(sub.Pos, "interface net: %s", err)
				ok = false
				continue
			}
			ifc.Net = n
		case "protocols":
			list, err := parseVList(nil, sub.Items)
			if err != nil {
				ctx.Errorf(sub.Pos, "interface protocols: %s", err)
				ok = false
				continue
			}
			ifc.Protocols = list
		case "type":
			ty, err := parseSingleWord(&sub)
			if err != nil {
				ctx.Errorf(sub.Pos, "interface type: %s", err)
				ok = false
				continue
			}
			ifc.Type = ty
		case "speed":
			// speed Integer "bps"
			if len(sub.Items) != 2 || sub.Items[0].Kind != parser.Int || !sub.Items[1].IsWord("bps") {
				ctx.Errorf(sub.Pos, "interface speed must be \"speed <integer> bps\"")
				ok = false
				continue
			}
			ifc.SpeedBPS = sub.Items[0].IntVal()
		default:
			ctx.Errorf(sub.Pos, "interface: unknown subclause %q", sub.Keyword)
			ok = false
		}
	}
	if ifc.Net == "" {
		ctx.Errorf(ctx.Subs[0].Pos, "interface %s missing net subclause", ifc.Name)
		ok = false
	}
	return ifc, ok
}

// ---- domain declarations (section 4.1.5, Figure 4.7) ----

func registerDomainDecl(t *Tables) {
	t.AppendDecl(&DeclEntry{
		Type: "domain",
		Generic: DeclAction{
			Begin: func(ctx *DeclContext) error {
				if len(ctx.Decl.Params) > 0 {
					return fmt.Errorf("domain %s: domain specifications take no parameters", ctx.Decl.Name)
				}
				ctx.Value = &ast.DomainSpec{Name: ctx.Decl.Name, Decl: ctx.Decl}
				return nil
			},
			End: func(ctx *DeclContext) error {
				ds := ctx.Value.(*ast.DomainSpec)
				if _, dup := ctx.Spec.Domains[ds.Name]; dup {
					return fmt.Errorf("domain %s declared more than once", ds.Name)
				}
				ctx.Spec.Domains[ds.Name] = ds
				return nil
			},
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "domain",
		Keyword:  "system",
		Generic: func(ctx *ClauseContext) error {
			ds := ctx.Value.(*ast.DomainSpec)
			name, err := parseSingleWord(&ctx.Subs[0])
			if err != nil {
				return fmt.Errorf("system member: %s", err)
			}
			ds.Systems = append(ds.Systems, name)
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "domain",
		Keyword:  "domain",
		Generic: func(ctx *ClauseContext) error {
			ds := ctx.Value.(*ast.DomainSpec)
			name, err := parseSingleWord(&ctx.Subs[0])
			if err != nil {
				return fmt.Errorf("subdomain member: %s", err)
			}
			if name == ds.Name {
				return fmt.Errorf("domain %s cannot contain itself", ds.Name)
			}
			ds.Subdomains = append(ds.Subdomains, name)
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType: "domain",
		Keyword:  "process",
		Generic: func(ctx *ClauseContext) error {
			ds := ctx.Value.(*ast.DomainSpec)
			pi, err := parseInstance(&ctx.Subs[0])
			if err != nil {
				return err
			}
			ds.Processes = append(ds.Processes, pi)
			return nil
		},
	})
	t.AppendClause(&ClauseEntry{
		DeclType:    "domain",
		Keyword:     "exports",
		SubKeywords: []string{"to", "access", "frequency"},
		Generic: func(ctx *ClauseContext) error {
			ds := ctx.Value.(*ast.DomainSpec)
			ex, ok := parseExport(ctx)
			if ok {
				ds.Exports = append(ds.Exports, ex)
			}
			return nil
		},
	})
}
