package mib

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAccess(t *testing.T) {
	cases := map[string]Access{
		"Any":       AccessAny,
		"ReadOnly":  AccessReadOnly,
		"WriteOnly": AccessWriteOnly,
		"None":      AccessNone,
	}
	for word, want := range cases {
		got, err := ParseAccess(word)
		if err != nil || got != want {
			t.Errorf("ParseAccess(%q) = %v, %v", word, got, err)
		}
	}
	if _, err := ParseAccess("readonly"); err == nil {
		t.Error("lower-case access keyword accepted")
	}
}

func TestAccessAllows(t *testing.T) {
	cases := []struct {
		perm, need Access
		want       bool
	}{
		{AccessAny, AccessReadOnly, true},
		{AccessAny, AccessWriteOnly, true},
		{AccessAny, AccessAny, true},
		{AccessReadOnly, AccessReadOnly, true},
		{AccessReadOnly, AccessWriteOnly, false},
		{AccessReadOnly, AccessAny, false},
		{AccessWriteOnly, AccessWriteOnly, true},
		{AccessWriteOnly, AccessReadOnly, false},
		{AccessNone, AccessReadOnly, false},
		{AccessNone, AccessNone, true},
		{AccessReadOnly, AccessNone, true},
	}
	for _, c := range cases {
		if got := c.perm.Allows(c.need); got != c.want {
			t.Errorf("%v.Allows(%v) = %v, want %v", c.perm, c.need, got, c.want)
		}
	}
}

func TestStandardLookup(t *testing.T) {
	tr := NewStandard()
	n := tr.Lookup("mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr")
	if n == nil {
		t.Fatal("ipAdEntAddr not found")
	}
	if n.Name != "ipAdEntAddr" {
		t.Errorf("name %q", n.Name)
	}
	if p := n.Path(); p != "mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr" {
		t.Errorf("path %q", p)
	}
	if tr.Lookup("mgmt.mib.nosuch") != nil {
		t.Error("bogus lookup succeeded")
	}
	if tr.Lookup("bogusroot") != nil {
		t.Error("bogus root lookup succeeded")
	}
}

func TestStandardGroups(t *testing.T) {
	tr := NewStandard()
	mibNode := tr.Lookup("mgmt.mib")
	if mibNode == nil {
		t.Fatal("mgmt.mib missing")
	}
	kids := mibNode.Children()
	if len(kids) != len(Groups) {
		t.Fatalf("want %d groups, got %d", len(Groups), len(kids))
	}
	// RFC arc order: system=1 ... egp=8
	for i, g := range Groups {
		if kids[i].Name != g {
			t.Errorf("group %d = %q, want %q", i, kids[i].Name, g)
		}
		if kids[i].Arc != i+1 {
			t.Errorf("group %q arc %d, want %d", g, kids[i].Arc, i+1)
		}
	}
}

func TestContainment(t *testing.T) {
	tr := NewStandard()
	mib := tr.Lookup("mgmt.mib")
	ip := tr.Lookup("mgmt.mib.ip")
	addr := tr.Lookup("mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr")
	tcp := tr.Lookup("mgmt.mib.tcp")
	if !mib.Contains(addr) || !ip.Contains(addr) || !mib.Contains(mib) {
		t.Error("containment should hold")
	}
	if tcp.Contains(addr) || addr.Contains(ip) {
		t.Error("containment should not hold")
	}
}

func TestOIDPrefixAndCompare(t *testing.T) {
	a := OID{1, 3, 6, 1}
	b := OID{1, 3, 6, 1, 2}
	if !b.HasPrefix(a) || a.HasPrefix(b) {
		t.Error("HasPrefix wrong")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a.Clone()) != 0 {
		t.Error("Compare wrong")
	}
	if (OID{1, 4}).Compare(OID{1, 3, 9}) != 1 {
		t.Error("Compare elementwise wrong")
	}
}

func TestOIDString(t *testing.T) {
	if s := (OID{1, 3, 6, 1, 2, 1}).String(); s != "1.3.6.1.2.1" {
		t.Errorf("got %q", s)
	}
}

func TestAccessInheritance(t *testing.T) {
	tr := NewStandard()
	table := tr.Lookup("mgmt.mib.ip.ipAddrTable")
	table.Access = AccessReadOnly
	entry := tr.Lookup("mgmt.mib.ip.ipAddrTable.IpAddrEntry")
	if got := entry.EffectiveAccess(); got != AccessReadOnly {
		t.Errorf("inherited access %v", got)
	}
	// Override on the child wins.
	entry.Access = AccessAny
	addr := tr.Lookup("mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr")
	if got := addr.EffectiveAccess(); got != AccessAny {
		t.Errorf("overridden access %v", got)
	}
	// Unconstrained tree defaults to Any.
	if got := tr.Lookup("mgmt.mib.tcp").EffectiveAccess(); got != AccessAny {
		t.Errorf("default access %v", got)
	}
}

func TestRegisterCreatesDistinctArcs(t *testing.T) {
	tr := NewEmpty()
	if _, err := tr.Register("a.x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Register("a.y"); err != nil {
		t.Fatal(err)
	}
	x := tr.Lookup("a.x")
	y := tr.Lookup("a.y")
	if x.Arc == y.Arc {
		t.Errorf("siblings share arc %d", x.Arc)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	tr := NewEmpty()
	n1, _ := tr.Register("a.b.c")
	n2, _ := tr.Register("a.b.c")
	if n1 != n2 {
		t.Error("re-registration created a new node")
	}
	if tr.Len() != 3 {
		t.Errorf("len %d", tr.Len())
	}
}

func TestRegisterEmpty(t *testing.T) {
	tr := NewEmpty()
	if _, err := tr.Register(""); err == nil {
		t.Error("empty path accepted")
	}
}

func TestLookupOID(t *testing.T) {
	tr := NewStandard()
	n := tr.Lookup("mgmt.mib.ip")
	if got := tr.LookupOID(n.OID()); got != n {
		t.Errorf("LookupOID returned %v", got)
	}
	if tr.LookupOID(OID{9, 9, 9}) != nil {
		t.Error("bogus OID resolved")
	}
}

func TestLookupSuffix(t *testing.T) {
	tr := NewStandard()
	n := tr.LookupSuffix("IpAddrEntry")
	if n == nil || n.Path() != "mgmt.mib.ip.ipAddrTable.IpAddrEntry" {
		t.Fatalf("suffix lookup: %v", n)
	}
	// Ambiguous suffixes resolve to nil.
	tr2 := NewEmpty()
	tr2.Register("a.leaf")
	tr2.Register("b.leaf")
	if tr2.LookupSuffix("leaf") != nil {
		t.Error("ambiguous suffix resolved")
	}
	// Full paths still win.
	if tr.LookupSuffix("mgmt.mib.ip") == nil {
		t.Error("full path failed")
	}
}

func TestWalkOrder(t *testing.T) {
	tr := NewStandard()
	var names []string
	tr.Walk("mgmt.mib.udp", func(n *Node) { names = append(names, n.Name) })
	want := []string{"udp", "udpInDatagrams", "udpNoPorts", "udpInErrors", "udpOutDatagrams"}
	if len(names) != len(want) {
		t.Fatalf("walk: %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	// Walking a missing path is a no-op.
	tr.Walk("mgmt.nothing", func(n *Node) { t.Error("visited", n.Name) })
}

func TestRoots(t *testing.T) {
	tr := NewEmpty()
	tr.Register("zeta.x")
	tr.Register("alpha.y")
	roots := tr.Roots()
	if len(roots) != 2 || roots[0].Name != "alpha" || roots[1].Name != "zeta" {
		t.Errorf("roots: %v", roots)
	}
}

// Property: for any registered set of paths, every path resolves and its
// Path() round-trips; OIDs are unique.
func TestRegisterLookupProperty(t *testing.T) {
	f := func(raw []string) bool {
		tr := NewEmpty()
		var paths []string
		for _, r := range raw {
			// build a clean dotted path from the raw string
			var segs []string
			for _, c := range strings.Split(r, "") {
				if c >= "a" && c <= "e" {
					segs = append(segs, c)
				}
				if len(segs) == 4 {
					break
				}
			}
			if len(segs) == 0 {
				continue
			}
			p := strings.Join(segs, ".")
			paths = append(paths, p)
			if _, err := tr.Register(p); err != nil {
				return false
			}
		}
		seen := map[string]bool{}
		var oids []string
		for _, p := range paths {
			n := tr.Lookup(p)
			if n == nil || n.Path() != p {
				return false
			}
			key := n.OID().String()
			if !seen[key] {
				seen[key] = true
				oids = append(oids, key)
			}
		}
		sort.Strings(oids)
		for i := 1; i < len(oids); i++ {
			if oids[i] == oids[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: containment agrees with OID prefixing for standard nodes.
func TestContainsMatchesOIDPrefix(t *testing.T) {
	tr := NewStandard()
	var nodes []*Node
	tr.Walk("mgmt", func(n *Node) { nodes = append(nodes, n) })
	for _, a := range nodes {
		for _, b := range nodes {
			if got, want := a.Contains(b), b.OID().HasPrefix(a.OID()); got != want {
				t.Fatalf("Contains(%s,%s)=%v, prefix=%v", a.Path(), b.Path(), got, want)
			}
		}
	}
}

func TestStandardRealOIDs(t *testing.T) {
	tr := NewStandard()
	cases := map[string]string{
		"mgmt":                        "1.3.6.1.2",
		"mgmt.mib":                    "1.3.6.1.2.1",
		"mgmt.mib.system":             "1.3.6.1.2.1.1",
		"mgmt.mib.system.sysDescr":    "1.3.6.1.2.1.1.1",
		"mgmt.mib.ip":                 "1.3.6.1.2.1.4",
		"mgmt.mib.udp.udpInDatagrams": "1.3.6.1.2.1.7.1",
	}
	for path, want := range cases {
		n := tr.Lookup(path)
		if n == nil {
			t.Fatalf("missing %s", path)
		}
		if got := n.OID().String(); got != want {
			t.Errorf("%s OID = %s, want %s", path, got, want)
		}
		if back := tr.LookupOID(n.OID()); back != n {
			t.Errorf("%s not resolvable by OID", path)
		}
	}
}

func TestRegisterRootConflicts(t *testing.T) {
	tr := NewEmpty()
	if _, err := tr.RegisterRoot("", nil); err == nil {
		t.Error("empty root accepted")
	}
	if _, err := tr.RegisterRoot("a", OID{1, 2}); err != nil {
		t.Fatal(err)
	}
	// idempotent with the same OID
	if _, err := tr.RegisterRoot("a", OID{1, 2}); err != nil {
		t.Fatal(err)
	}
	// conflicting re-registration rejected
	if _, err := tr.RegisterRoot("a", OID{9, 9}); err == nil {
		t.Error("conflicting root accepted")
	}
}

// A full-path Lookup walks the name's components in place: the linker
// and the model build look up every MIB name a specification writes.
func TestLookupAllocs(t *testing.T) {
	tree := NewStandard()
	const path = "mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr"
	if tree.Lookup(path) == nil {
		t.Fatalf("%s does not resolve", path)
	}
	if allocs := testing.AllocsPerRun(100, func() { tree.Lookup(path) }); allocs != 0 {
		t.Errorf("Lookup allocated %.0f times, want 0", allocs)
	}
}
