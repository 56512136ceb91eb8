package consistency

import (
	"math/big"
	"slices"
	"sort"
	"strings"
	"testing"

	"nmsl/internal/ast"
	"nmsl/internal/logic"
	"nmsl/internal/mib"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

// buildSpec compiles src through the full front end.
func buildSpec(t *testing.T, src string) *ast.Spec {
	t.Helper()
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := sema.NewAnalyzer()
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spec
}

func buildModel(t *testing.T, src string) *Model {
	t.Helper()
	return BuildModel(buildSpec(t, src))
}

func TestPaperSpecModel(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	// Instances: snmpdReadOnly on romano + cs.wisc.edu, snmpaddr in wisc-cs.
	if len(m.Instances) != 3 {
		t.Fatalf("instances: %v", m.Instances)
	}
	// Perms: process-level export x 2 instances + domain-level export.
	if len(m.Perms) != 3 {
		t.Fatalf("perms: %v", m.Perms)
	}
	// Refs: star target resolves to both agents, one requested var each.
	if len(m.Refs) != 2 {
		t.Fatalf("refs: %v", m.Refs)
	}
	for _, r := range m.Refs {
		if r.Resolution != TargetStar {
			t.Errorf("resolution %v", r.Resolution)
		}
		if r.Var.Path() != "mgmt.mib.ip.ipAddrTable.IpAddrEntry" {
			t.Errorf("var %s", r.Var.Path())
		}
	}
	if len(m.Unresolved) != 0 {
		t.Errorf("unresolved: %+v", m.Unresolved)
	}
}

func TestPaperSpecConsistent(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	rep := Check(m)
	if !rep.Consistent() {
		t.Fatalf("paper specification inconsistent:\n%s", rep)
	}
	if rep.RefsChecked != 2 {
		t.Errorf("refs checked %d", rep.RefsChecked)
	}
	rep2 := checkParallel(t, m, Options{Workers: 1, Engine: EngineLogic})
	if !rep2.Consistent() {
		t.Fatalf("logic checker disagrees:\n%s", rep2)
	}
}

// withoutExports is the paper spec with the agent's exports removed and
// the domain-level export removed: the snmpaddr references then have no
// permission.
const withoutExports = paperspec.Figure42 + `
process snmpdReadOnly ::=
    supports mgmt.mib;
end process snmpdReadOnly.
` + `
process snmpaddr(
    SysAddr: Process; Dest: IpAddress) ::=
    queries SysAddr
        requests mgmt.mib.ip.ipAddrTable.IpAddrEntry
        using mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr := Dest
        frequency infrequent;
end process snmpaddr.
` + paperspec.Figure46 + paperspec.CSWisc + `
domain wisc-cs ::=
    system romano.cs.wisc.edu;
    system cs.wisc.edu;
    process snmpaddr(*, *);
end domain wisc-cs.
` + paperspec.PublicDomain

func TestNoPermission(t *testing.T) {
	m := buildModel(t, withoutExports)
	rep := Check(m)
	if rep.Consistent() {
		t.Fatal("expected inconsistency")
	}
	if got := rep.ByKind(KindNoPermission); len(got) != 2 {
		t.Fatalf("violations: %s", rep)
	}
}

// freqSpec builds a spec where the application queries every minute but
// the agent only permits every 5 minutes.
const freqSpec = `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public"
        access ReadOnly
        frequency >= 5 minutes;
end process agent.

process poller ::=
    queries agent
        requests mgmt.mib.system
        frequency >= 1 minutes;
end process poller.

system "host-a" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
    process poller;
end system "host-a".

domain lab ::=
    system host-a;
end domain lab.

domain public ::=
    domain lab;
end domain public.
`

func TestFrequencyViolation(t *testing.T) {
	m := buildModel(t, freqSpec)
	rep := Check(m)
	if rep.Consistent() {
		t.Fatal("expected frequency violation")
	}
	vs := rep.ByKind(KindFrequencyViolation)
	if len(vs) != 1 {
		t.Fatalf("violations: %s", rep)
	}
	if vs[0].NearMiss == nil || vs[0].NearMiss.MinPeriod != 300 {
		t.Errorf("near miss: %+v", vs[0].NearMiss)
	}
}

func TestFrequencyBoundaryExact(t *testing.T) {
	// Querying exactly every 5 minutes against a >= 5 minutes export is
	// consistent (the exact-rational boundary case).
	src := strings.Replace(freqSpec, "frequency >= 1 minutes", "frequency >= 5 minutes", 1)
	m := buildModel(t, src)
	if rep := Check(m); !rep.Consistent() {
		t.Fatalf("boundary case inconsistent:\n%s", rep)
	}
	// Strict export "> 5 minutes" with a ">= 5 minutes" reference fails...
	src2 := strings.Replace(src, "frequency >= 5 minutes;\nend process agent",
		"frequency > 5 minutes;\nend process agent", 1)
	m2 := buildModel(t, src2)
	if rep := Check(m2); rep.Consistent() {
		t.Fatal("strict boundary should be inconsistent")
	}
	// ...but a "> 5 minutes" reference satisfies it.
	src3 := strings.Replace(src2, "requests mgmt.mib.system\n        frequency >= 5 minutes",
		"requests mgmt.mib.system\n        frequency > 5 minutes", 1)
	m3 := buildModel(t, src3)
	if rep := Check(m3); !rep.Consistent() {
		t.Fatalf("strict-vs-strict should be consistent:\n%s", rep)
	}
}

func TestAccessViolation(t *testing.T) {
	src := strings.Replace(freqSpec,
		"requests mgmt.mib.system\n        frequency >= 1 minutes",
		"requests mgmt.mib.system\n        access WriteOnly\n        frequency >= 5 minutes", 1)
	m := buildModel(t, src)
	rep := Check(m)
	vs := rep.ByKind(KindAccessViolation)
	if len(vs) != 1 {
		t.Fatalf("violations: %s", rep)
	}
}

func TestInfrequentSatisfiesAnyPeriod(t *testing.T) {
	src := strings.Replace(freqSpec, "frequency >= 1 minutes", "frequency infrequent", 1)
	m := buildModel(t, src)
	if rep := Check(m); !rep.Consistent() {
		t.Fatalf("infrequent should satisfy any export period:\n%s", rep)
	}
}

func TestUnspecifiedRefFrequencyViolatesRateLimit(t *testing.T) {
	src := strings.Replace(freqSpec, "\n        frequency >= 1 minutes", "", 1)
	m := buildModel(t, src)
	rep := Check(m)
	if len(rep.ByKind(KindFrequencyViolation)) != 1 {
		t.Fatalf("unspecified ref frequency against a rate limit: %s", rep)
	}
}

func TestDomainRestriction(t *testing.T) {
	// The lab domain exports only to a third domain, not to public; the
	// agent itself exports to public. The reference comes from outside
	// lab, so lab's restriction applies.
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public" access ReadOnly;
end process agent.

process poller ::=
    queries agent requests mgmt.mib.system frequency infrequent;
end process poller.

system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "inside".

system "outside" ::=
    cpu sparc;
    interface ie0 net wan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process poller;
end system "outside".

domain lab ::=
    system inside;
    exports mgmt.mib to "others" access ReadOnly;
end domain lab.

domain elsewhere ::=
    system outside;
end domain elsewhere.

domain others ::=
end domain others.

domain public ::=
    domain lab;
    domain elsewhere;
end domain public.
`
	m := buildModel(t, src)
	rep := Check(m)
	vs := rep.ByKind(KindDomainRestriction)
	if len(vs) != 1 {
		t.Fatalf("violations: %s", rep)
	}
	// Granting to public fixes it.
	fixed := strings.Replace(src, `exports mgmt.mib to "others" access ReadOnly;`,
		`exports mgmt.mib to "public" access ReadOnly;`, 1)
	m2 := buildModel(t, fixed)
	if rep2 := Check(m2); !rep2.Consistent() {
		t.Fatalf("fixed spec still inconsistent:\n%s", rep2)
	}
}

func TestRestrictionDoesNotApplyInsideDomain(t *testing.T) {
	// Source and target share the restricting domain: no restriction.
	m := buildModel(t, paperspec.Combined)
	rep := Check(m)
	if len(rep.ByKind(KindDomainRestriction)) != 0 {
		t.Fatalf("restriction misapplied: %s", rep)
	}
}

func TestNoSupport(t *testing.T) {
	// poller asks the agent for egp data, but host-a does not support egp.
	src := strings.Replace(freqSpec, "supports mgmt.mib;\n    process agent", "supports mgmt.mib.system, mgmt.mib.ip;\n    process agent", 1)
	src = strings.Replace(src, "requests mgmt.mib.system\n        frequency >= 1 minutes",
		"requests mgmt.mib.egp\n        frequency >= 5 minutes", 1)
	m := buildModel(t, src)
	rep := Check(m)
	if len(rep.ByKind(KindNoSupport)) != 1 {
		t.Fatalf("violations: %s", rep)
	}
}

func TestUnresolvedTarget(t *testing.T) {
	src := `
process poller(Tgt: Process) ::=
    queries Tgt requests mgmt.mib.system frequency infrequent;
end process poller.

system "host-a" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process poller(*);
end system "host-a".

domain lab ::= system host-a; end domain lab.
`
	m := buildModel(t, src)
	if len(m.Unresolved) != 1 {
		t.Fatalf("unresolved: %+v", m.Unresolved)
	}
	rep := Check(m)
	if len(rep.ByKind(KindUnresolvedTarget)) != 1 {
		t.Fatalf("violations: %s", rep)
	}
	if rep.Consistent() {
		t.Fatal("unresolved target must be reported")
	}
}

func TestTargetByArgumentSystemName(t *testing.T) {
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public" access ReadOnly;
end process agent.
process poller(Tgt: Process) ::=
    queries Tgt requests mgmt.mib.system frequency infrequent;
end process poller.
system "host-a" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "host-a".
system "host-b" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process poller("host-a");
end system "host-b".
domain lab ::= system host-a; system host-b; end domain lab.
domain public ::= domain lab; end domain public.
`
	m := buildModel(t, src)
	if len(m.Refs) != 1 {
		t.Fatalf("refs: %+v", m.Refs)
	}
	if m.Refs[0].Resolution != TargetArg || m.Refs[0].Target.System != "host-a" {
		t.Fatalf("target: %+v", m.Refs[0])
	}
	if rep := Check(m); !rep.Consistent() {
		t.Fatalf("inconsistent: %s", rep)
	}
}

// crossValidate asserts that the indexed checker and the logic checker
// agree on the multiset of (kind, ref) verdicts.
func crossValidate(t *testing.T, src string) {
	t.Helper()
	m := buildModel(t, src)
	a := Check(m)
	b := checkParallel(t, m, Options{Workers: 1, Engine: EngineLogic})
	key := func(v Violation) string {
		refStr := ""
		if v.Ref != nil {
			refStr = v.Ref.String()
		} else if v.Unresolved != nil {
			refStr = v.Unresolved.Source.ID + "/" + v.Unresolved.Query.Target
		}
		return string(v.Kind) + "|" + refStr
	}
	ka := make([]string, 0, len(a.Violations))
	for _, v := range a.Violations {
		ka = append(ka, key(v))
	}
	kb := make([]string, 0, len(b.Violations))
	for _, v := range b.Violations {
		kb = append(kb, key(v))
	}
	sort.Strings(ka)
	sort.Strings(kb)
	if strings.Join(ka, "\n") != strings.Join(kb, "\n") {
		t.Fatalf("checkers disagree:\nindexed:\n%s\nlogic:\n%s", a, b)
	}
}

func TestCrossValidation(t *testing.T) {
	for name, src := range map[string]string{
		"paper":          paperspec.Combined,
		"withoutExports": withoutExports,
		"freq":           freqSpec,
		"freqBad":        strings.Replace(freqSpec, ">= 5 minutes;\nend process agent", "> 9 minutes;\nend process agent", 1),
	} {
		t.Run(name, func(t *testing.T) { crossValidate(t, src) })
	}
}

// TestIndexedMatchesScan holds the grantor indexes to a brute-force
// scan: on every parity model, the check's in-place candidate walk
// visits, for every reference, exactly the permissions (ascending)
// granted by the target instance or by a domain containing it.
func TestIndexedMatchesScan(t *testing.T) {
	for name, m := range parityModels(t) {
		for i := range m.Refs {
			ref := &m.Refs[i]
			var want []int32
			for pi, p := range m.Perms {
				if p.GrantorInst == ref.Target.ID || p.GrantorDomain != "" && m.PartyInDomain(ref.Target.ID, p.GrantorDomain) {
					want = append(want, int32(pi))
				}
			}
			if got := candidateWalk(m, ref.Target.idx); !slices.Equal(got, want) {
				t.Fatalf("%s: candidate walk for %s = %v, scan finds %v", name, ref, got, want)
			}
		}
	}
}

func TestAdmissiblePeriods(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	src := "snmpaddr@wisc-cs#0"
	tgt := "snmpdReadOnly@romano.cs.wisc.edu#0"
	node := m.Spec.MIB.Lookup("mgmt.mib.ip.ipAddrTable.IpAddrEntry")
	ivs := AdmissiblePeriods(m, src, tgt, node, mib.AccessReadOnly)
	if len(ivs) != 1 {
		t.Fatalf("intervals: %s", FormatIntervals(ivs))
	}
	want := big.NewRat(300, 1)
	if ivs[0].Lo == nil || ivs[0].Lo.Cmp(want) != 0 || ivs[0].LoStrict || ivs[0].Hi != nil {
		t.Fatalf("interval %v, want [300, +inf)", ivs[0])
	}
	// Write access is never admissible.
	if got := AdmissiblePeriods(m, src, tgt, node, mib.AccessWriteOnly); len(got) != 0 {
		t.Fatalf("write intervals: %s", FormatIntervals(got))
	}
}

func TestAdmissiblePeriodsWithRestriction(t *testing.T) {
	// Agent permits >= 60s; the target's domain restricts to >= 300s for
	// outsiders: admissible periods must be [300, inf).
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public" access ReadOnly frequency >= 1 minutes;
end process agent.
process poller ::=
    queries agent requests mgmt.mib.system frequency infrequent;
end process poller.
system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "inside".
system "outside" ::=
    cpu sparc;
    interface ie0 net wan type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process poller;
end system "outside".
domain lab ::=
    system inside;
    exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes;
end domain lab.
domain elsewhere ::= system outside; end domain elsewhere.
domain public ::= domain lab; domain elsewhere; end domain public.
`
	m := buildModel(t, src)
	node := m.Spec.MIB.Lookup("mgmt.mib.system")
	ivs := AdmissiblePeriods(m, "poller@outside#0", "agent@inside#0", node, mib.AccessReadOnly)
	if len(ivs) != 1 || ivs[0].Lo == nil || ivs[0].Lo.Cmp(big.NewRat(300, 1)) != 0 {
		t.Fatalf("intervals: %s, want [300, +inf)", FormatIntervals(ivs))
	}
}

func TestIntervalSetOps(t *testing.T) {
	mk := func(lo, hi int64, los, his bool) logic.Interval {
		var l, h *big.Rat
		if lo >= 0 {
			l = big.NewRat(lo, 1)
		}
		if hi >= 0 {
			h = big.NewRat(hi, 1)
		}
		return logic.Interval{Lo: l, Hi: h, LoStrict: los, HiStrict: his}
	}
	// union merges overlapping
	u := unionIntervals([]logic.Interval{mk(1, 5, false, false), mk(3, 8, false, false)})
	if len(u) != 1 || u[0].Lo.Cmp(big.NewRat(1, 1)) != 0 || u[0].Hi.Cmp(big.NewRat(8, 1)) != 0 {
		t.Fatalf("union: %s", FormatIntervals(u))
	}
	// union keeps disjoint
	u2 := unionIntervals([]logic.Interval{mk(1, 2, false, false), mk(4, 5, false, false)})
	if len(u2) != 2 {
		t.Fatalf("union2: %s", FormatIntervals(u2))
	}
	// touching open+open stays disjoint
	u3 := unionIntervals([]logic.Interval{mk(1, 2, false, true), mk(2, 3, true, false)})
	if len(u3) != 2 {
		t.Fatalf("union3: %s", FormatIntervals(u3))
	}
	// touching closed merges
	u4 := unionIntervals([]logic.Interval{mk(1, 2, false, false), mk(2, 3, true, false)})
	if len(u4) != 1 {
		t.Fatalf("union4: %s", FormatIntervals(u4))
	}
	// intersect
	i1 := intersectSets([]logic.Interval{mk(1, 5, false, false)}, []logic.Interval{mk(3, 8, false, false)})
	if len(i1) != 1 || i1[0].Lo.Cmp(big.NewRat(3, 1)) != 0 || i1[0].Hi.Cmp(big.NewRat(5, 1)) != 0 {
		t.Fatalf("intersect: %s", FormatIntervals(i1))
	}
	// disjoint intersect is empty
	i2 := intersectSets([]logic.Interval{mk(1, 2, false, false)}, []logic.Interval{mk(3, 4, false, false)})
	if len(i2) != 0 {
		t.Fatalf("intersect2: %s", FormatIntervals(i2))
	}
	// unbounded
	i3 := intersectSets([]logic.Interval{mk(3, -1, false, false)}, []logic.Interval{mk(5, -1, true, false)})
	if len(i3) != 1 || i3[0].Lo.Cmp(big.NewRat(5, 1)) != 0 || !i3[0].LoStrict || i3[0].Hi != nil {
		t.Fatalf("intersect3: %s", FormatIntervals(i3))
	}
	if FormatIntervals(nil) != "∅" {
		t.Error("empty set format")
	}
}

func TestReportString(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	rep := Check(m)
	if !strings.Contains(rep.String(), "consistent") {
		t.Errorf("report: %s", rep)
	}
	m2 := buildModel(t, withoutExports)
	rep2 := Check(m2)
	if !strings.Contains(rep2.String(), "INCONSISTENT") || !strings.Contains(rep2.String(), "no-permission") {
		t.Errorf("report: %s", rep2)
	}
}
