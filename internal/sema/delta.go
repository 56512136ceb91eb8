package sema

import (
	"slices"
	"sort"

	"nmsl/internal/asn1"
	"nmsl/internal/ast"
	"nmsl/internal/parser"
)

// Spec diffing for incremental re-checking. DiffSpecs compares two linked
// specifications declaration by declaration and names the ones that
// differ semantically; the consistency checker turns the result into a
// ModelDelta and re-verifies only the references those declarations can
// influence. Equality deliberately ignores source positions and the
// parse-tree back-pointers, so reformatting or reordering a file without
// changing meaning yields an empty delta.

// SpecDelta names the declarations that differ between two specifications
// (added, removed, or changed, in sorted order per kind).
type SpecDelta struct {
	Types     []string
	Processes []string
	Systems   []string
	Domains   []string
	// ExtChanged reports a difference in the extension clause store.
	ExtChanged bool
}

// Empty reports whether the two specifications were semantically
// identical.
func (d *SpecDelta) Empty() bool {
	return len(d.Types) == 0 && len(d.Processes) == 0 &&
		len(d.Systems) == 0 && len(d.Domains) == 0 && !d.ExtChanged
}

// DiffSpecs compares two specifications and returns the changed
// declaration names per kind. Either argument may be nil, in which case
// every declaration of the other is reported.
func DiffSpecs(old, new *ast.Spec) *SpecDelta {
	d := &SpecDelta{}
	if old == new {
		return d // same spec object: nothing can differ
	}
	if old == nil {
		old = ast.NewSpec()
	}
	if new == nil {
		new = ast.NewSpec()
	}
	d.Types = diffMap(old.Types, new.Types, typeSpecEqual)
	d.Processes = diffMap(old.Processes, new.Processes, processSpecEqual)
	d.Systems = diffMap(old.Systems, new.Systems, systemSpecEqual)
	d.Domains = diffMap(old.Domains, new.Domains, domainSpecEqual)
	d.ExtChanged = !extEqual(old.Ext, new.Ext)
	return d
}

// diffMap returns, sorted, the names present in exactly one map or
// bound to declarations that equal reports different; nil if there are
// none.
func diffMap[T any](old, new map[string]*T, equal func(a, b *T) bool) []string {
	var names []string
	for name, ov := range old {
		nv, ok := new[name]
		// Shared declaration pointers (a spec diffed against an edited
		// copy of itself) are equal without walking.
		if !ok || ov != nv && !equal(ov, nv) {
			names = append(names, name)
		}
	}
	for name := range new {
		if _, ok := old[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// The typed equalities below are declaration equality: every field of
// the declaration and of what it holds compares with ==, nil and empty
// slices are equal, and token.Pos fields and *parser.Decl back-pointers
// are skipped, so position-only differences (reformatting, reordering
// files) do not register as changes. The ast is a tree, so they recurse
// without a cycle guard and allocate nothing. TestEqualCoversEveryField
// fails when a field is added to the ast without a comparison here.

func typeSpecEqual(a, b *ast.TypeSpec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Name == b.Name && asn1TypeEqual(a.Body, b.Body) && a.Access == b.Access
}

func processSpecEqual(a, b *ast.ProcessSpec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Name == b.Name &&
		slices.EqualFunc(a.Params, b.Params, procParamEqual) &&
		slices.Equal(a.Supports, b.Supports) &&
		slices.EqualFunc(a.Exports, b.Exports, exportEqual) &&
		slices.EqualFunc(a.Queries, b.Queries, queryEqual)
}

func systemSpecEqual(a, b *ast.SystemSpec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Name == b.Name && a.CPU == b.CPU &&
		slices.EqualFunc(a.Interfaces, b.Interfaces, interfaceEqual) &&
		a.OpSys == b.OpSys && a.OpSysVersion == b.OpSysVersion &&
		slices.Equal(a.Supports, b.Supports) &&
		slices.EqualFunc(a.Processes, b.Processes, procInstanceEqual)
}

func domainSpecEqual(a, b *ast.DomainSpec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Name == b.Name &&
		slices.Equal(a.Systems, b.Systems) &&
		slices.Equal(a.Subdomains, b.Subdomains) &&
		slices.EqualFunc(a.Processes, b.Processes, procInstanceEqual) &&
		slices.EqualFunc(a.Exports, b.Exports, exportEqual)
}

// extEqual compares two extension clause stores; nil and empty are
// equal.
func extEqual(a, b map[string][]ast.ExtClause) bool {
	if len(a) != len(b) {
		return false
	}
	for key, ac := range a {
		bc, ok := b[key]
		if !ok || !slices.EqualFunc(ac, bc, extClauseEqual) {
			return false
		}
	}
	return true
}

func extClauseEqual(a, b ast.ExtClause) bool {
	return a.DeclType == b.DeclType && a.DeclName == b.DeclName &&
		a.Keyword == b.Keyword && slices.Equal(a.Names, b.Names) &&
		freqEqual(a.Freq, b.Freq) && slices.EqualFunc(a.Raw, b.Raw, itemEqual)
}

func asn1TypeEqual(a, b *asn1.Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	return a.Kind == b.Kind && a.Name == b.Name && asn1TypeEqual(a.Elem, b.Elem) &&
		slices.EqualFunc(a.Fields, b.Fields, func(x, y asn1.Field) bool {
			return x.Name == y.Name && asn1TypeEqual(x.Type, y.Type)
		})
}

func procParamEqual(a, b ast.ProcParam) bool { return a.Name == b.Name && a.Type == b.Type }

func exportEqual(a, b ast.Export) bool {
	return slices.Equal(a.Vars, b.Vars) && a.To == b.To && a.Access == b.Access &&
		freqEqual(a.Freq, b.Freq)
}

func queryEqual(a, b ast.Query) bool {
	return a.Target == b.Target && slices.Equal(a.Requests, b.Requests) &&
		slices.EqualFunc(a.Using, b.Using, selectionEqual) &&
		a.Access == b.Access && freqEqual(a.Freq, b.Freq)
}

func selectionEqual(a, b ast.Selection) bool { return a.Var == b.Var && itemEqual(a.Value, b.Value) }

func freqEqual(a, b ast.Freq) bool {
	return a.Infrequent == b.Infrequent && a.Op == b.Op && a.Seconds == b.Seconds
}

func interfaceEqual(a, b ast.Interface) bool {
	return a.Name == b.Name && a.Net == b.Net && slices.Equal(a.Protocols, b.Protocols) &&
		a.Type == b.Type && a.SpeedBPS == b.SpeedBPS
}

func procInstanceEqual(a, b ast.ProcInstance) bool {
	return a.Name == b.Name && slices.EqualFunc(a.Args, b.Args, argEqual)
}

func argEqual(a, b ast.Arg) bool { return a.Kind == b.Kind && a.Text == b.Text && a.Num == b.Num }

func itemEqual(a, b parser.Item) bool {
	return a.Kind == b.Kind && a.Text == b.Text && a.Delim == b.Delim &&
		slices.EqualFunc(a.Items, b.Items, itemEqual)
}
