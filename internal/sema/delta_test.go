package sema_test

// DiffSpecs compares declarations with typed equality functions. The
// tests here hold them to the reflective deep-equal they replaced
// (declEqual, kept below as the oracle): on real specifications, on
// fuzzed ones, and field by field over every field the ast can hold.
// The package is external because netsim, which builds the large
// inputs, imports sema.

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"nmsl/internal/asn1"
	"nmsl/internal/ast"
	"nmsl/internal/extension"
	"nmsl/internal/netsim"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
	"nmsl/internal/token"
)

// oracleDiff is DiffSpecs computed with declEqual.
func oracleDiff(old, new *ast.Spec) *sema.SpecDelta {
	d := &sema.SpecDelta{}
	if old == new {
		return d
	}
	if old == nil {
		old = ast.NewSpec()
	}
	if new == nil {
		new = ast.NewSpec()
	}
	d.Types = oracleDiffMap(old.Types, new.Types)
	d.Processes = oracleDiffMap(old.Processes, new.Processes)
	d.Systems = oracleDiffMap(old.Systems, new.Systems)
	d.Domains = oracleDiffMap(old.Domains, new.Domains)
	d.ExtChanged = !declEqual(reflect.ValueOf(old.Ext), reflect.ValueOf(new.Ext))
	return d
}

func oracleDiffMap[T any](old, new map[string]*T) []string {
	var names []string
	for name, ov := range old {
		nv, ok := new[name]
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

// testdataDir holds the repository's specification corpus.
const testdataDir = "../../testdata"

// compiler returns a compile function with testdata/proxy.nmslext
// installed, which testdata/machineroom.nmsl needs and which changes
// nothing for a source that does not use it. The spec is returned even
// with semantic errors; it is nil only when the source does not parse.
func compiler(tb testing.TB) func(name, src string) (*ast.Spec, error) {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(testdataDir, "proxy.nmslext"))
	if err != nil {
		tb.Fatal(err)
	}
	exts, err := extension.ParseFile("proxy.nmslext", string(data))
	if err != nil {
		tb.Fatal(err)
	}
	return func(name, src string) (*ast.Spec, error) {
		f, err := parser.Parse(name, src)
		if err != nil {
			return nil, err
		}
		a := sema.NewAnalyzer()
		extension.InstallAll(a.Tables(), exts)
		a.AnalyzeFile(f)
		return a.Finish()
	}
}

// corpusSources reads testdata/*.nmsl, keyed by file name.
func corpusSources(tb testing.TB) map[string]string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(testdataDir, "*.nmsl"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no testdata specifications (%v)", err)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = string(data)
	}
	return out
}

// replace1 substitutes old with new, failing unless old occurs exactly
// once: the tripwire for generator templates that drifted.
func replace1(tb testing.TB, src, old, new string) string {
	tb.Helper()
	if n := strings.Count(src, old); n != 1 {
		tb.Fatalf("anchor occurs %d times: %q", n, old)
	}
	return strings.Replace(src, old, new, 1)
}

// systemBlock is netsim's declaration of system s in domain d.
func systemBlock(d, s int) string {
	return fmt.Sprintf(`
system "sys-%d-%d" ::=
    cpu sparc;
    interface ie0 net lan-%d type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agentT%d;
end system "sys-%d-%d".
`, d, s, d, d, d, s)
}

// addSystem declares system s in domain d and lists it in the domain.
func addSystem(tb testing.TB, src string, d, s int) string {
	tb.Helper()
	head := fmt.Sprintf("\ndomain dom%d ::=\n", d)
	return replace1(tb, src, head, systemBlock(d, s)+head+fmt.Sprintf("    system \"sys-%d-%d\";\n", d, s))
}

// pollerFreq rewrites domain d's poller period from one minute count to
// another.
func pollerFreq(tb testing.TB, src string, d, from, to int) string {
	tb.Helper()
	tail := "frequency >= %d minutes;\nend process pollerT%d."
	return replace1(tb, src, fmt.Sprintf(tail, from, d), fmt.Sprintf(tail, to, d))
}

// changeSuiteSources is the change suite of the root package's
// changesuite_test.go, re-stated: the same 8-domain base internet and
// the same twelve edits.
func changeSuiteSources(tb testing.TB) map[string]string {
	base := netsim.Source(netsim.Params{Domains: 8, SystemsPerDomain: 2, Seed: 42})
	agentExport := func(d int) string {
		return fmt.Sprintf("process agentT%d ::=\n    supports mgmt.mib.system, mgmt.mib.ip;\n"+
			"    exports mgmt.mib.system to \"public\"\n        access ReadOnly\n        frequency >= 5 minutes;", d)
	}
	pollerQuery := func(peer int) string {
		return fmt.Sprintf("queries agentT%d\n        requests mgmt.mib.system.sysDescr\n        frequency >= 5 minutes;", peer)
	}
	in := func(s, old, from, to string) string {
		return replace1(tb, s, old, strings.Replace(old, from, to, 1))
	}
	out := map[string]string{"suite-base": base}
	out["noop-comment"] = base + "\n-- suite: formatting-only change\n"
	out["retune-poller-in-scope"] = in(base, pollerQuery(1), ">= 5 minutes", ">= 10 minutes")
	out["retune-poller-out-of-scope"] = in(base, pollerQuery(0), ">= 5 minutes", ">= 10 minutes")
	out["widen-access"] = in(base, agentExport(0), "access ReadOnly", "access Any")
	out["relax-export-frequency"] = in(base, agentExport(0), "frequency >= 5 minutes", "frequency >= 1 minutes")
	out["tighten-export-frequency"] = in(base, agentExport(1), "frequency >= 5 minutes", "frequency >= 10 minutes")
	out["add-system"] = addSystem(tb, base, 0, 9)
	out["add-many-systems"] = addSystem(tb, addSystem(tb, addSystem(tb, base, 0, 9), 0, 10), 0, 11)
	out["remove-system"] = replace1(tb, replace1(tb, base, systemBlock(0, 1), "\n"), "    system \"sys-0-1\";\n", "")
	out["widen-domain-export"] = replace1(tb, base, "\ndomain dom1 ::=\n",
		"\ndomain dom1 ::=\n    exports mgmt.mib.ip to \"public\" access ReadOnly frequency >= 5 minutes;\n")
	out["add-mib-type"] = base + "\ntype suiteExtra ::=\n    OCTET STRING;\n    access ReadOnly;\nend type suiteExtra.\n"
	out["add-poller-app"] = replace1(tb, base+"\nprocess suitePoller ::=\n    queries agentT1\n"+
		"        requests mgmt.mib.system.sysDescr\n        frequency >= 5 minutes;\nend process suitePoller.\n",
		"end domain dom0.\n", "    process suitePoller;\nend domain dom0.\n")
	return out
}

// editChain is a seeded chain of the four single-declaration edits an
// operator makes to a resident specification (slow a poller to 10
// minutes, speed one to 1, restore one to 5, add a system), applied one
// after another to a 300-domain netsim internet: the base and every
// revision, in order.
func editChain(tb testing.TB, seed int64, edits int) []string {
	const domains = 300
	src := netsim.Source(netsim.Params{Domains: domains, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
	minutes := make([]int, domains)
	systems := make([]int, domains)
	for d := range minutes {
		minutes[d], systems[d] = 5, 2
	}
	rng := rand.New(rand.NewSource(seed))
	out := []string{src}
	for range edits {
		// A retune to the period the poller already has would be no edit;
		// it adds a system instead.
		d, k := rng.Intn(domains), rng.Intn(4)
		if to := [...]int{10, 1, 5, 0}[k]; to != 0 && to != minutes[d] {
			src, minutes[d] = pollerFreq(tb, src, d, minutes[d], to), to
		} else {
			src = addSystem(tb, src, d, systems[d])
			systems[d]++
		}
		out = append(out, src)
	}
	return out
}

// TestDiffSpecsMatchesOracle: on every ordered pair of the corpus, the
// change suite, a seeded edit chain over a 300-domain internet, a
// revision that shares all but one declaration pointer with its base,
// and nil, the typed diff equals the reflective oracle's.
func TestDiffSpecsMatchesOracle(t *testing.T) {
	compile := compiler(t)
	var names []string
	var specs []*ast.Spec
	add := func(name, src string) *ast.Spec {
		spec, err := compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, specs = append(names, name), append(specs, spec)
		return spec
	}
	for _, src := range []map[string]string{corpusSources(t), changeSuiteSources(t)} {
		keys := make([]string, 0, len(src))
		for name := range src {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		for _, name := range keys {
			add(name, src[name])
		}
	}
	var chainBase *ast.Spec
	for i, src := range editChain(t, 1, 8) {
		spec := add(fmt.Sprintf("chain-%d", i), src)
		if i == 0 {
			chainBase = spec
		}
	}
	shared := *chainBase
	shared.Processes = maps.Clone(chainBase.Processes)
	poller := *shared.Processes["pollerT3"]
	poller.Queries = slices.Clone(poller.Queries)
	poller.Queries[0].Freq.Seconds *= 2
	shared.Processes["pollerT3"] = &poller
	names, specs = append(names, "chain-0-shared", "nil"), append(specs, &shared, nil)
	if d := sema.DiffSpecs(chainBase, &shared); !slices.Equal(d.Processes, []string{"pollerT3"}) {
		t.Errorf("shared-pointer revision: delta %+v, want processes [pollerT3]", d)
	}

	changed := 0
	for i, a := range specs {
		for j, b := range specs {
			got, want := sema.DiffSpecs(a, b), oracleDiff(a, b)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s -> %s: typed delta %+v, oracle %+v", names[i], names[j], got, want)
			}
			if !got.Empty() {
				changed++
			}
		}
	}
	// Every pair of distinct inputs differs except the formatting-only
	// edit and its base.
	if n := len(specs); changed != n*(n-1)-2 {
		t.Errorf("%d of %d ordered pairs of distinct inputs differ, want all but 2", changed, n*(n-1))
	}
}

// FuzzDiffSpecs compiles a testdata specification and a copy with a
// fuzzed edit (cut bytes at a fuzzed offset replaced by fuzzed text),
// and asserts that the typed diff equals the oracle in both
// directions. Only the edit is fuzzed, not the source: two sources
// differ interestingly when they share declarations, and a short input
// keeps the fuzzer's minimization of each new input short.
func FuzzDiffSpecs(f *testing.F) {
	compile := compiler(f)
	corpus := corpusSources(f)
	files := make([]string, 0, len(corpus))
	for name := range corpus {
		files = append(files, name)
	}
	sort.Strings(files)
	bases := make([]*ast.Spec, len(files))
	for k, name := range files {
		src := corpus[name]
		var err error
		if bases[k], err = compile(name, src); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(uint8(k), uint16(0), uint8(0), "")
		f.Add(uint8(k), uint16(len(src)/2), uint8(1), "x")
		if at := strings.Index(src, ">= 5 minutes"); at >= 0 {
			f.Add(uint8(k), uint16(at+3), uint8(1), "1")
		}
	}
	f.Fuzz(func(t *testing.T, file uint8, at uint16, cut uint8, repl string) {
		k := int(file) % len(files)
		src := corpus[files[k]]
		i := int(at) % (len(src) + 1)
		a := bases[k]
		b, _ := compile("b.nmsl", src[:i]+repl+src[min(i+int(cut), len(src)):])
		for _, p := range [][2]*ast.Spec{{a, b}, {b, a}} {
			if got, want := sema.DiffSpecs(p[0], p[1]), oracleDiff(p[0], p[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("edit %q at %d (cut %d) of %s: typed delta %+v, oracle %+v", repl, i, cut, files[k], got, want)
			}
		}
	})
}

// filler sets every field reachable from a declaration to a non-zero
// value, giving each slice two elements. asn1.Type and parser.Item nest
// themselves, so a struct type is entered at most twice on one path:
// deep enough to reach every field, including those of a nested copy.
type filler struct {
	t     *testing.T
	depth map[reflect.Type]int
	seen  map[reflect.Type]bool
}

func (f *filler) fill(v reflect.Value) {
	switch {
	case v.Type() == posType:
		v.Set(reflect.ValueOf(token.Pos{Offset: 1, Line: 1, Column: 1}))
		return
	case v.Type() == declType:
		v.Set(reflect.ValueOf(&parser.Decl{Name: "d"}))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		f.seen[v.Type()] = true
		f.depth[v.Type()]++
		for i := range v.NumField() {
			f.fill(v.Field(i))
		}
		f.depth[v.Type()]--
	case reflect.Pointer:
		if f.depth[v.Type().Elem()] < 2 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem())
		}
	case reflect.Slice:
		if f.depth[v.Type().Elem()] < 2 {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			f.fill(v.Index(0))
			f.fill(v.Index(1))
		}
	case reflect.String:
		v.SetString("s")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	default:
		f.t.Fatalf("%v: no fill for kind %v; teach this test and the typed equality about it", v.Type(), v.Kind())
	}
}

// leaf is one field of a filled declaration the test changes: a scalar,
// a token.Pos, a *parser.Decl, or a non-empty slice or non-nil pointer
// (changed by clearing it).
type leaf struct {
	path string
	v    reflect.Value
}

func leaves(v reflect.Value, path string, out []leaf) []leaf {
	if v.Type() == posType || v.Type() == declType {
		return append(out, leaf{path, v})
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			out = leaves(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
		return out
	case reflect.Pointer:
		if v.IsNil() {
			return out
		}
		return leaves(v.Elem(), path, append(out, leaf{path, v}))
	case reflect.Slice:
		if v.Len() == 0 {
			return out
		}
		out = append(out, leaf{path, v})
		for i := range v.Len() {
			out = leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
		return out
	default:
		return append(out, leaf{path, v})
	}
}

// change alters l and reports whether the declaration must still
// compare equal: it must for source positions and parse-tree pointers,
// and must not for anything else.
func change(t *testing.T, l leaf) (stillEqual bool) {
	v := l.v
	switch {
	case v.Type() == posType:
		v.Set(reflect.ValueOf(token.Pos{Offset: 7, Line: 7, Column: 7}))
		return true
	case v.Type() == declType:
		v.Set(reflect.ValueOf(&parser.Decl{Name: "elsewhere"}))
		return true
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Slice:
		v.SetZero()
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	default:
		t.Fatalf("%s: no change for kind %v; teach this test and the typed equality about it", l.path, v.Kind())
	}
	return false
}

// TestEqualCoversEveryField builds, for each declaration kind and the
// extension clause store, pairs of declarations that differ in exactly
// one field reachable from them, and asserts that DiffSpecs reports the
// pair changed (or, for token.Pos and *parser.Decl, unchanged), as the
// oracle does. A field added to the ast without a comparison in the
// typed equality fails here instead of silently shrinking deltas.
// Clearing a slice is a change; a nil slice against an empty one is
// not.
func TestEqualCoversEveryField(t *testing.T) {
	f := &filler{t: t, depth: map[reflect.Type]int{}, seen: map[reflect.Type]bool{}}
	kinds := []struct {
		name string
		typ  reflect.Type
		spec func(decl any) *ast.Spec
	}{
		{"type", reflect.TypeFor[ast.TypeSpec](), func(d any) *ast.Spec {
			return &ast.Spec{Types: map[string]*ast.TypeSpec{"x": d.(*ast.TypeSpec)}}
		}},
		{"process", reflect.TypeFor[ast.ProcessSpec](), func(d any) *ast.Spec {
			return &ast.Spec{Processes: map[string]*ast.ProcessSpec{"x": d.(*ast.ProcessSpec)}}
		}},
		{"system", reflect.TypeFor[ast.SystemSpec](), func(d any) *ast.Spec {
			return &ast.Spec{Systems: map[string]*ast.SystemSpec{"x": d.(*ast.SystemSpec)}}
		}},
		{"domain", reflect.TypeFor[ast.DomainSpec](), func(d any) *ast.Spec {
			return &ast.Spec{Domains: map[string]*ast.DomainSpec{"x": d.(*ast.DomainSpec)}}
		}},
		{"ext", reflect.TypeFor[ast.ExtClause](), func(d any) *ast.Spec {
			return &ast.Spec{Ext: map[string][]ast.ExtClause{"process x": {*d.(*ast.ExtClause)}}}
		}},
	}
	for _, k := range kinds {
		fresh := func() reflect.Value {
			v := reflect.New(k.typ)
			f.fill(v.Elem())
			return v
		}
		check := func(path string, a, b reflect.Value, wantEqual bool) {
			sa, sb := k.spec(a.Interface()), k.spec(b.Interface())
			got, want := sema.DiffSpecs(sa, sb), oracleDiff(sa, sb)
			if got.Empty() != wantEqual || want.Empty() != wantEqual {
				t.Errorf("%s: typed delta %+v, oracle %+v, want equal=%v", path, got, want, wantEqual)
			}
		}
		n := len(leaves(fresh().Elem(), k.name, nil))
		for i := range n {
			a, b := fresh(), fresh()
			l := leaves(b.Elem(), k.name, nil)[i]
			check(l.path, a, b, change(t, l))
			if l.v.Kind() == reflect.Slice {
				a, b = fresh(), fresh()
				leaves(a.Elem(), k.name, nil)[i].v.SetZero()
				e := leaves(b.Elem(), k.name, nil)[i].v
				e.Set(reflect.MakeSlice(e.Type(), 0, 0))
				check(l.path+" nil/empty", a, b, true)
			}
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[ast.Export](), reflect.TypeFor[ast.Query](), reflect.TypeFor[ast.Selection](),
		reflect.TypeFor[parser.Item](), reflect.TypeFor[asn1.Type](), reflect.TypeFor[asn1.Field](),
		reflect.TypeFor[ast.Interface](), reflect.TypeFor[ast.ProcInstance](), reflect.TypeFor[ast.Arg](),
		reflect.TypeFor[ast.Freq](), reflect.TypeFor[ast.ProcParam](),
	} {
		if !f.seen[typ] {
			t.Errorf("the walk never reached %v", typ)
		}
	}
}

// TestExtStoreKeys: the clause store compares by key as well as by
// clauses, and a nil store equals an empty one.
func TestExtStoreKeys(t *testing.T) {
	clause := []ast.ExtClause{{Keyword: "proxies", Names: []string{"p"}}}
	stores := []map[string][]ast.ExtClause{
		nil,
		{},
		{"process a": nil},
		{"process b": nil},
		{"process a": clause},
		{"process a": clause, "process b": clause},
	}
	for i, a := range stores {
		for j, b := range stores {
			got := sema.DiffSpecs(&ast.Spec{Ext: a}, &ast.Spec{Ext: b}).ExtChanged
			want := oracleDiff(&ast.Spec{Ext: a}, &ast.Spec{Ext: b}).ExtChanged
			if got != want || got == (i == j || i+j == 1) {
				t.Errorf("stores %d and %d: typed changed=%v, oracle %v", i, j, got, want)
			}
		}
	}
}

// TestDiffSpecsAllocs: diffing two separately compiled revisions that
// differ in one declaration allocates only the result, the same number
// of times at 1,000 and at 10,000 domains.
func TestDiffSpecsAllocs(t *testing.T) {
	compile := compiler(t)
	allocs := func(domains int) float64 {
		src := netsim.Source(netsim.Params{Domains: domains, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
		old, err := compile("old.nmsl", src)
		if err != nil {
			t.Fatal(err)
		}
		edited, err := compile("new.nmsl", pollerFreq(t, src, 0, 5, 10))
		if err != nil {
			t.Fatal(err)
		}
		if d := sema.DiffSpecs(old, edited); !reflect.DeepEqual(d, &sema.SpecDelta{Processes: []string{"pollerT0"}}) {
			t.Fatalf("%d domains: delta %+v, want processes [pollerT0]", domains, d)
		}
		return testing.AllocsPerRun(5, func() { sema.DiffSpecs(old, edited) })
	}
	small, large := allocs(1000), allocs(10000)
	if small != large || large > 3 {
		t.Errorf("one-declaration diff allocates %v times at 1k domains and %v at 10k, want the same and at most 3", small, large)
	}
}
