package sema

import (
	"strings"
	"testing"

	"nmsl/internal/ast"
	"nmsl/internal/mib"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
)

// analyze parses and analyzes src, failing the test on any error.
func analyze(t *testing.T, src string) *ast.Spec {
	t.Helper()
	spec, err := analyzeErr(t, src)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spec
}

// analyzeErr parses src (which must be syntactically valid) and returns
// the semantic result.
func analyzeErr(t *testing.T, src string) (*ast.Spec, error) {
	t.Helper()
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := NewAnalyzer()
	a.AnalyzeFile(f)
	return a.Finish()
}

func TestFigure42TypeSpecs(t *testing.T) {
	spec := analyze(t, paperspec.Figure42)
	table := spec.Types["ipAddrTable"]
	if table == nil {
		t.Fatal("ipAddrTable missing")
	}
	if table.Access != mib.AccessReadOnly {
		t.Errorf("access %v", table.Access)
	}
	if table.Body.String() != "SEQUENCE OF IpAddrEntry" {
		t.Errorf("body %s", table.Body)
	}
	entry := spec.Types["IpAddrEntry"]
	if entry == nil {
		t.Fatal("IpAddrEntry missing")
	}
	// IpAddrEntry's access is unspecified: inherited from its container
	// (the paper's inheritance example).
	if entry.Access != mib.AccessUnspecified {
		t.Errorf("entry access %v", entry.Access)
	}
	if len(entry.Body.Fields) != 4 {
		t.Errorf("fields %v", entry.Body)
	}
}

func TestFigure44ProcessSpecs(t *testing.T) {
	spec := analyze(t, paperspec.Figure42+paperspec.Figure44+emptyPublic)
	agent := spec.Processes["snmpdReadOnly"]
	if agent == nil {
		t.Fatal("snmpdReadOnly missing")
	}
	if !agent.IsAgent() {
		t.Error("snmpdReadOnly should be an agent (supports data)")
	}
	if len(agent.Supports) != 1 || agent.Supports[0] != "mgmt.mib" {
		t.Errorf("supports %v", agent.Supports)
	}
	if len(agent.Exports) != 1 {
		t.Fatalf("exports %v", agent.Exports)
	}
	ex := agent.Exports[0]
	if ex.To != "public" || ex.Access != mib.AccessReadOnly {
		t.Errorf("export %+v", ex)
	}
	if ex.Freq.Op != ">=" || ex.Freq.Seconds != 300 {
		t.Errorf("freq %+v", ex.Freq)
	}

	app := spec.Processes["snmpaddr"]
	if app == nil {
		t.Fatal("snmpaddr missing")
	}
	if app.IsAgent() {
		t.Error("snmpaddr should not be an agent")
	}
	if len(app.Params) != 2 || app.Params[0].Type != "Process" || app.Params[1].Type != "IpAddress" {
		t.Errorf("params %+v", app.Params)
	}
	if len(app.Queries) != 1 {
		t.Fatalf("queries %v", app.Queries)
	}
	q := app.Queries[0]
	if q.Target != "SysAddr" {
		t.Errorf("target %q", q.Target)
	}
	if len(q.Requests) != 1 || q.Requests[0] != "mgmt.mib.ip.ipAddrTable.IpAddrEntry" {
		t.Errorf("requests %v", q.Requests)
	}
	if len(q.Using) != 1 || q.Using[0].Var != "mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr" {
		t.Errorf("using %+v", q.Using)
	}
	if q.Using[0].Value.Text != "Dest" {
		t.Errorf("selection value %v", q.Using[0].Value)
	}
	if !q.Freq.Infrequent {
		t.Errorf("freq %+v", q.Freq)
	}
	if q.Access != mib.AccessReadOnly {
		t.Errorf("query access %v (retrieval default)", q.Access)
	}
}

func TestFigure46SystemSpec(t *testing.T) {
	spec := analyze(t, paperspec.Figure42+paperspec.Figure44+paperspec.Figure46+emptyPublic)
	ss := spec.Systems["romano.cs.wisc.edu"]
	if ss == nil {
		t.Fatal("romano missing")
	}
	if ss.CPU != "sparc" {
		t.Errorf("cpu %q", ss.CPU)
	}
	if len(ss.Interfaces) != 1 {
		t.Fatalf("interfaces %v", ss.Interfaces)
	}
	ifc := ss.Interfaces[0]
	if ifc.Name != "ie0" || ifc.Net != "wisc-research" || ifc.Type != "ethernet-csmacd" || ifc.SpeedBPS != 10000000 {
		t.Errorf("interface %+v", ifc)
	}
	if ss.OpSys != "SunOS" || ss.OpSysVersion != "4.0.1" {
		t.Errorf("opsys %q %q", ss.OpSys, ss.OpSysVersion)
	}
	// seven MIB groups supported; no egp
	if len(ss.Supports) != 7 {
		t.Errorf("supports %v", ss.Supports)
	}
	for _, v := range ss.Supports {
		if v == "mgmt.mib.egp" {
			t.Error("romano must not support egp")
		}
	}
	if len(ss.Processes) != 1 || ss.Processes[0].Name != "snmpdReadOnly" {
		t.Errorf("processes %v", ss.Processes)
	}
}

func TestFigure48DomainSpec(t *testing.T) {
	spec := analyze(t, paperspec.Combined)
	ds := spec.Domains["wisc-cs"]
	if ds == nil {
		t.Fatal("wisc-cs missing")
	}
	if len(ds.Systems) != 2 || ds.Systems[0] != "romano.cs.wisc.edu" || ds.Systems[1] != "cs.wisc.edu" {
		t.Errorf("systems %v", ds.Systems)
	}
	if len(ds.Processes) != 1 {
		t.Fatalf("processes %v", ds.Processes)
	}
	pi := ds.Processes[0]
	if pi.Name != "snmpaddr" || len(pi.Args) != 2 {
		t.Fatalf("instance %+v", pi)
	}
	for _, a := range pi.Args {
		if a.Kind != ast.ArgStar {
			t.Errorf("arg %+v should be *", a)
		}
	}
	if pi.String() != "snmpaddr(*, *)" {
		t.Errorf("String() = %q", pi.String())
	}
	if len(ds.Exports) != 1 || ds.Exports[0].To != "public" {
		t.Errorf("exports %+v", ds.Exports)
	}
}

func TestCombinedIsClean(t *testing.T) {
	spec := analyze(t, paperspec.Combined)
	if len(spec.Types) != 2 || len(spec.Processes) != 2 || len(spec.Systems) != 2 || len(spec.Domains) != 2 {
		t.Errorf("counts: %d types %d processes %d systems %d domains",
			len(spec.Types), len(spec.Processes), len(spec.Systems), len(spec.Domains))
	}
}

func wantErr(t *testing.T, src, substr string) {
	t.Helper()
	_, err := analyzeErr(t, src)
	if err == nil {
		t.Fatalf("want error containing %q, got none", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("want error containing %q, got %v", substr, err)
	}
}

func TestUnknownDeclType(t *testing.T) {
	wantErr(t, "gadget g ::= end gadget g.", "unknown declaration type")
}

func TestUnknownClauseKeyword(t *testing.T) {
	wantErr(t, "domain d ::= frobnicate x; end domain d.", "unknown clause keyword")
}

func TestDuplicateType(t *testing.T) {
	wantErr(t, "type t ::= INTEGER; end type t. type t ::= INTEGER; end type t.", "declared more than once")
}

func TestTypeWithoutBody(t *testing.T) {
	wantErr(t, "type t ::= access Any; end type t.", "access clause must follow")
}

func TestTypeDoubleAccess(t *testing.T) {
	wantErr(t, "type t ::= INTEGER; access Any; access None; end type t.", "more than one access")
}

func TestBadAccessMode(t *testing.T) {
	wantErr(t, "type t ::= INTEGER; access Sometimes; end type t.", "unknown access mode")
}

func TestUndeclaredTypeRef(t *testing.T) {
	wantErr(t, "type t ::= SEQUENCE of Missing; end type t.", "undeclared type")
}

func TestSystemRequiresCPU(t *testing.T) {
	wantErr(t, `system s ::= interface ie0 net x type e speed 10 bps; end system s.`, "missing cpu")
}

func TestSystemRequiresInterface(t *testing.T) {
	wantErr(t, `system s ::= cpu sparc; end system s.`, "no interface clauses")
}

func TestInterfaceRequiresNet(t *testing.T) {
	wantErr(t, `system s ::= cpu sparc; interface ie0 type e speed 10 bps; end system s.`, "missing net")
}

func TestBadSpeed(t *testing.T) {
	wantErr(t, `system s ::= cpu sparc; interface ie0 net n speed fast; end system s.`, "speed")
}

func TestDuplicateInterface(t *testing.T) {
	wantErr(t, `system s ::= cpu sparc;
		interface ie0 net n speed 10 bps;
		interface ie0 net m speed 10 bps;
		end system s.`, "duplicate interface")
}

func TestSystemInstantiatesUndeclaredProcess(t *testing.T) {
	wantErr(t, `system s ::= cpu sparc; interface ie0 net n speed 10 bps; process ghost; end system s.`,
		"undeclared process")
}

func TestInstanceArgCount(t *testing.T) {
	src := `
process p(A: Process) ::=
    queries A requests mgmt.mib.system frequency infrequent;
end process p.
domain d ::= process p(*, *); end domain d.`
	wantErr(t, src, "want 1")
}

func TestExportRequiresTo(t *testing.T) {
	wantErr(t, `process p ::= supports mgmt.mib; exports mgmt.mib access ReadOnly; end process p.`,
		`"to" subclause`)
}

func TestExportToUndeclaredDomain(t *testing.T) {
	wantErr(t, `process p ::= supports mgmt.mib; exports mgmt.mib to "nowhere" access ReadOnly; end process p.`,
		"undeclared domain")
}

func TestQueryTargetMustBeProcessParam(t *testing.T) {
	src := `
process p(Where: IpAddress) ::=
    queries Where requests mgmt.mib.system frequency infrequent;
end process p.`
	wantErr(t, src, "must be Process")
}

func TestQueryUndeclaredTarget(t *testing.T) {
	wantErr(t, `process p ::= queries ghost requests mgmt.mib.system frequency infrequent; end process p.`,
		"undeclared process")
}

func TestQueryRequiresRequests(t *testing.T) {
	wantErr(t, `process p ::= queries q frequency infrequent; end process p.
	process q ::= supports mgmt.mib; end process q.`, `"requests" subclause`)
}

func TestBadMIBPath(t *testing.T) {
	wantErr(t, `process p ::= supports mgmt.mib.bogusGroup; end process p.`, "does not resolve")
}

func TestDomainSelfContainment(t *testing.T) {
	wantErr(t, `domain d ::= domain d; end domain d.`, "cannot contain itself")
}

func TestDomainCycle(t *testing.T) {
	src := `
domain a ::= domain b; end domain a.
domain b ::= domain c; end domain b.
domain c ::= domain a; end domain c.`
	wantErr(t, src, "cycle")
}

func TestDomainNestingOK(t *testing.T) {
	src := `
domain leaf ::= end domain leaf.
domain mid ::= domain leaf; end domain mid.
domain top ::= domain mid; domain leaf; end domain top.`
	spec := analyze(t, src)
	if len(spec.Domains) != 3 {
		t.Fatalf("domains %v", spec.DomainNames())
	}
}

func TestDuplicateProcessParam(t *testing.T) {
	wantErr(t, `process p(A: Process; A: Process) ::= end process p.`, "duplicate parameter")
}

func TestValueParamRejectedInDeclaration(t *testing.T) {
	wantErr(t, `process p(5) ::= end process p.`, "Name: Type")
}

func TestFreqParsing(t *testing.T) {
	cases := []struct {
		src     string
		op      string
		seconds float64
		infreq  bool
	}{
		{"frequency >= 5 minutes", ">=", 300, false},
		{"frequency > 2 hours", ">", 7200, false},
		{"frequency <= 30 seconds", "<=", 30, false},
		{"frequency < 1 hours", "<", 3600, false},
		{"frequency 10 seconds", "", 10, false},
		{"frequency infrequent", "", 0, true},
	}
	for _, c := range cases {
		src := `process srv ::= supports mgmt.mib; end process srv.
			process p ::= queries srv requests mgmt.mib.system ` + c.src + `; end process p.`
		spec := analyze(t, src)
		fr := spec.Processes["p"].Queries[0].Freq
		if fr.Op != c.op || fr.Seconds != c.seconds || fr.Infrequent != c.infreq {
			t.Errorf("%q: got %+v", c.src, fr)
		}
	}
}

func TestFreqErrors(t *testing.T) {
	bad := []string{
		"frequency",
		"frequency >=",
		"frequency >= 5",
		"frequency >= 5 fortnights",
		"frequency infrequent 5 minutes",
		"frequency >= x minutes",
	}
	for _, b := range bad {
		src := `process srv ::= supports mgmt.mib; end process srv.
			process p ::= queries srv requests mgmt.mib.system ` + b + `; end process p.`
		if _, err := analyzeErr(t, src); err == nil {
			t.Errorf("%q: no error", b)
		}
	}
}

func TestFreqString(t *testing.T) {
	cases := []struct {
		f    ast.Freq
		want string
	}{
		{ast.Freq{Op: ">=", Seconds: 300}, ">= 5 minutes"},
		{ast.Freq{Op: ">", Seconds: 7200}, "> 2 hours"},
		{ast.Freq{Seconds: 45}, "45 seconds"},
		{ast.Freq{Infrequent: true}, "infrequent"},
		{ast.Freq{}, "unspecified"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestMinPeriodSeconds(t *testing.T) {
	cases := []struct {
		f    ast.Freq
		want float64
	}{
		{ast.Freq{Op: ">=", Seconds: 300}, 300},
		{ast.Freq{Op: ">", Seconds: 60}, 60},
		{ast.Freq{Op: "<", Seconds: 60}, 0},
		{ast.Freq{Op: "<=", Seconds: 60}, 0},
		{ast.Freq{Seconds: 60}, 60},
		{ast.Freq{Infrequent: true}, 0},
	}
	for _, c := range cases {
		if got := c.f.MinPeriodSeconds(); got != c.want {
			t.Errorf("MinPeriod(%+v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestSplitClauseAnonymousLead(t *testing.T) {
	// A clause beginning with a non-word still splits sanely.
	f, err := parser.Parse("t", `domain d ::= end domain d.`)
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	c := &parser.Clause{Items: []parser.Item{
		{Kind: parser.Int, Text: "5"},
		{Kind: parser.Word, Text: "seconds"},
	}}
	subs := SplitClause(c, map[string]bool{})
	if len(subs) != 1 || subs[0].Keyword != "" || len(subs[0].Items) != 2 {
		t.Fatalf("subs %+v", subs)
	}
}

func TestGenerateUnknownTagIsEmpty(t *testing.T) {
	f, err := parser.Parse("t", paperspec.Combined)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	a.AnalyzeFile(f)
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := a.Generate("no-such-output", &b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("output %q", b.String())
	}
}

// emptyPublic declares a bare public domain for tests that use the
// paper's process figures without the full combined specification.
const emptyPublic = `
domain public ::=
end domain public.
`
