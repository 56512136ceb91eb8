package sema

import (
	"reflect"
	"sort"

	"nmsl/internal/ast"
	"nmsl/internal/parser"
	"nmsl/internal/token"
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
	d.Types = diffMap(old.Types, new.Types)
	d.Processes = diffMap(old.Processes, new.Processes)
	d.Systems = diffMap(old.Systems, new.Systems)
	d.Domains = diffMap(old.Domains, new.Domains)
	d.ExtChanged = !declEqual(reflect.ValueOf(old.Ext), reflect.ValueOf(new.Ext))
	return d
}

// diffMap returns, sorted, the names present in exactly one map or
// bound to semantically different declarations; nil if there are none.
func diffMap[T any](old, new map[string]*T) []string {
	var names []string
	for name, ov := range old {
		nv, ok := new[name]
		// Shared declaration pointers (a spec diffed against an edited
		// copy of itself) are equal without walking.
		if !ok || ov != nv && !declEqual(reflect.ValueOf(ov), reflect.ValueOf(nv)) {
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

var (
	posType  = reflect.TypeOf(token.Pos{})
	declType = reflect.TypeOf((*parser.Decl)(nil))
)

// declEqual is reflect.DeepEqual restricted to declaration content:
// token.Pos values and *parser.Decl back-pointers compare equal
// regardless of value, so position-only differences (reformatting,
// reordering files) do not register as changes. visited guards against
// cycles through pointer pairs, mirroring DeepEqual. The cycle map is
// allocated lazily, on the first distinct pointer pair — a 10k-domain
// diff walks hundreds of thousands of declaration pairs, and most
// comparisons (equal scalars, shared pointers) never need it.
func declEqual(a, b reflect.Value) bool {
	var seen map[[2]uintptr]bool
	return declEqualSeen(a, b, &seen)
}

func declEqualSeen(a, b reflect.Value, seen *map[[2]uintptr]bool) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == posType || a.Type() == declType {
		return true
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Pointer() == b.Pointer() {
			return true
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if *seen == nil {
			*seen = make(map[[2]uintptr]bool, 8)
		}
		if (*seen)[key] {
			return true
		}
		(*seen)[key] = true
		return declEqualSeen(a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !declEqualSeen(a.Field(i), b.Field(i), seen) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		// nil and empty slices compare equal: the distinction carries no
		// declaration semantics.
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !declEqualSeen(a.Index(i), b.Index(i), seen) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() || !declEqualSeen(iter.Value(), bv, seen) {
				return false
			}
		}
		return true
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return declEqualSeen(a.Elem(), b.Elem(), seen)
	default:
		return a.Interface() == b.Interface()
	}
}
