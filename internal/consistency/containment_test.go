package consistency_test

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"nmsl/internal/ast"
	"nmsl/internal/consistency"
	"nmsl/internal/extension"
	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

// diamondSpec nests and overlaps domains: bottom sits under both left
// and right, which both sit under top; host-a is a member of bottom and
// of the unrelated chain leaf ⊂ mid ⊂ chain-top; host-b belongs to no
// domain; and a process is declared directly in bottom.
const diamondSpec = `
process agentD ::=
    supports mgmt.mib;
    exports mgmt.mib to "top"
        access ReadOnly
        frequency >= 5 minutes;
end process agentD.

process pollerD ::=
    queries agentD
        requests mgmt.mib.system
        frequency >= 10 minutes;
end process pollerD.

system "host-a" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agentD;
    process pollerD;
end system "host-a".

system "host-b" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process pollerD;
end system "host-b".

domain bottom ::=
    system host-a;
    process pollerD;
end domain bottom.

domain left ::=
    domain bottom;
    exports mgmt.mib.system to "top"
        access ReadOnly
        frequency >= 5 minutes;
end domain left.

domain right ::= domain bottom; end domain right.
domain top ::= domain left; domain right; end domain top.

domain leaf ::= system host-a; end domain leaf.
domain mid ::= domain leaf; end domain mid.
domain chain-top ::= domain mid; end domain chain-top.
domain other ::= end domain other.
`

// compile runs src through the front end, with the extension text
// installed when non-empty.
func compile(t *testing.T, ext, src string) *ast.Spec {
	t.Helper()
	a := sema.NewAnalyzer()
	if ext != "" {
		exts, err := extension.ParseFile("ext", ext)
		if err != nil {
			t.Fatal(err)
		}
		extension.InstallAll(a.Tables(), exts)
	}
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spec
}

// campusSpec nests the paper's wisc-cs domain one level deeper.
const campusSpec = paperspec.Combined + `
domain campus ::= domain wisc-cs; end domain campus.`

// containmentSpecs is the containment test's corpus: every testdata
// specification, the paper's (also nested one level deeper), the
// diamond, and the five netsim scenarios.
func containmentSpecs(t *testing.T) map[string]*ast.Spec {
	t.Helper()
	specs := map[string]*ast.Spec{
		"paper":   compile(t, "", paperspec.Combined),
		"campus":  compile(t, "", campusSpec),
		"diamond": compile(t, "", diamondSpec),
	}
	ext, err := os.ReadFile("../../testdata/proxy.nmslext")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("../../testdata/*.nmsl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		specs[filepath.Base(path)] = compile(t, string(ext), string(src))
	}
	for _, name := range netsim.Scenarios() {
		params, err := netsim.ScenarioParams(netsim.Scenario(name), 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := netsim.Build(params)
		if err != nil {
			t.Fatal(err)
		}
		specs["netsim-"+name] = spec
	}
	return specs
}

// walkUp is the oracle: the named domains and every domain above them,
// found by a plain walk up the subdomain edges of the specification.
func walkUp(spec *ast.Spec, doms ...string) map[string]bool {
	set := map[string]bool{}
	var up func(d string)
	up = func(d string) {
		if set[d] {
			return
		}
		set[d] = true
		for name, ds := range spec.Domains {
			if slices.Contains(ds.Subdomains, d) {
				up(name)
			}
		}
	}
	for _, d := range doms {
		up(d)
	}
	return set
}

// oracleParty is the set of domains containing an instance: its hosting
// domain, or the domains listing its hosting system, and all above.
func oracleParty(spec *ast.Spec, in *consistency.Instance) map[string]bool {
	if in.Domain != "" {
		return walkUp(spec, in.Domain)
	}
	var direct []string
	for name, ds := range spec.Domains {
		if slices.Contains(ds.Systems, in.System) {
			direct = append(direct, name)
		}
	}
	return walkUp(spec, direct...)
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// TestContainmentMatchesParentWalk holds the model's one containment
// relation — PartyDomains, PartyInDomain, DomainContains and Restricts —
// to a plain parent walk over the specification, for every instance and
// domain of the corpus, and the grantor index PermsGrantedBy to a scan
// of the permissions.
func TestContainmentMatchesParentWalk(t *testing.T) {
	for name, spec := range containmentSpecs(t) {
		t.Run(name, func(t *testing.T) {
			m := consistency.BuildModel(spec)
			doms := spec.DomainNames()
			for _, in := range m.Instances {
				want := oracleParty(spec, in)
				if got := m.PartyDomains(in.ID); !slices.Equal(got, sortedSet(want)) {
					t.Fatalf("PartyDomains(%s) = %v, want %v", in.ID, got, sortedSet(want))
				}
				for _, d := range doms {
					if got := m.PartyInDomain(in.ID, d); got != want[d] {
						t.Fatalf("PartyInDomain(%s, %s) = %v, want %v", in.ID, d, got, want[d])
					}
				}
				if m.PartyInDomain(in.ID, "no-such-domain") {
					t.Fatalf("%s is in an undeclared domain", in.ID)
				}
				var granted []int32
				for pi := range m.Perms {
					if m.Perms[pi].GrantorInst == in.ID {
						granted = append(granted, int32(pi))
					}
				}
				if got := m.PermsGrantedBy(in.ID); !slices.Equal(got, granted) {
					t.Fatalf("PermsGrantedBy(%s) = %v, want %v", in.ID, got, granted)
				}
			}
			for _, inner := range doms {
				above := walkUp(spec, inner)
				for _, outer := range doms {
					if got := m.DomainContains(outer, inner); got != above[outer] {
						t.Fatalf("DomainContains(%s, %s) = %v, want %v", outer, inner, got, above[outer])
					}
				}
				if want := len(spec.Domains[inner].Exports) > 0; m.Restricts(inner) != want {
					t.Fatalf("Restricts(%s) = %v, want %v", inner, !want, want)
				}
			}
			if len(m.PartyDomains("ghost@nowhere#0")) != 0 || m.PermsGrantedBy("ghost@nowhere#0") != nil || m.Restricts("no-such-domain") {
				t.Fatal("an unknown party or domain has containment")
			}
		})
	}
}

// TestContainmentNested pins the nested cases by name: a system two
// domains deep, a diamond reached along both of its arms, and an
// unknown party contained nowhere.
func TestContainmentNested(t *testing.T) {
	paper := consistency.BuildModel(compile(t, "", paperspec.Combined))
	campus := consistency.BuildModel(compile(t, "", campusSpec))
	diamond := consistency.BuildModel(compile(t, "", diamondSpec))
	cases := []struct {
		m        *consistency.Model
		id, want string
	}{
		{paper, "snmpdReadOnly@romano.cs.wisc.edu#0", "public wisc-cs"},
		{campus, "snmpdReadOnly@romano.cs.wisc.edu#0", "campus public wisc-cs"},
		{diamond, "agentD@host-a#0", "bottom chain-top leaf left mid right top"},
		{diamond, "pollerD@bottom#0", "bottom left right top"},
		{diamond, "pollerD@host-b#0", ""},
		{diamond, "ghost@host-a#0", ""},
	}
	for _, c := range cases {
		if got := strings.Join(c.m.PartyDomains(c.id), " "); got != c.want {
			t.Errorf("PartyDomains(%s) = %q, want %q", c.id, got, c.want)
		}
	}
	if !diamond.DomainContains("top", "bottom") || diamond.DomainContains("left", "right") ||
		!diamond.DomainContains("other", "other") || diamond.DomainContains("top", "other") {
		t.Error("DomainContains disagrees with the diamond")
	}
	if !diamond.Restricts("left") || diamond.Restricts("top") {
		t.Error("Restricts disagrees with the diamond's exports")
	}
}
