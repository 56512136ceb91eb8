package extension

import (
	"strings"
	"testing"

	"nmsl/internal/ast"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

// ProxyExt is the proxy-management extension used across tests and the
// extension example: it adds a "proxies" clause to process specifications
// (paper section 3.1 motivates proxy network management; the basic
// language has no clause for it, which is exactly what the extension
// mechanism is for).
const ProxyExt = `
extension proxyClause ::=
    clause proxies;
    decltype process;
    subkeywords via, frequency;
    semantics namelist;
    output consistency "proxy_for(@declname@,@name0@).";
end extension proxyClause.
`

// proxySpec uses the extended clause.
const proxySpec = `
process lanBridgeProxy ::=
    supports mgmt.mib.interfaces;
    proxies bridge7 via lanpoll
        frequency >= 30 seconds;
end process lanBridgeProxy.
`

func analyzeWith(t *testing.T, exts []*Extension, src string) (*ast.Spec, *sema.Analyzer, error) {
	t.Helper()
	a := sema.NewAnalyzer()
	InstallAll(a.Tables(), exts)
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	return spec, a, err
}

func TestParseExtensionFile(t *testing.T) {
	exts, err := ParseFile("ext", ProxyExt)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 {
		t.Fatalf("exts: %+v", exts)
	}
	e := exts[0]
	if e.Name != "proxyClause" || e.Keyword != "proxies" || e.DeclType != "process" {
		t.Fatalf("ext: %+v", e)
	}
	if len(e.SubKeywords) != 2 || e.Sem != SemNameList {
		t.Fatalf("ext: %+v", e)
	}
	if e.Outputs["consistency"] == "" {
		t.Fatal("missing output template")
	}
}

func TestExtensionExtendsLanguage(t *testing.T) {
	exts, err := ParseFile("ext", ProxyExt)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := analyzeWith(t, exts, proxySpec)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	key := ast.ExtKey("process", "lanBridgeProxy")
	clauses := spec.Ext[key]
	if len(clauses) != 1 {
		t.Fatalf("ext clauses: %+v", spec.Ext)
	}
	ec := clauses[0]
	if ec.Keyword != "proxies" || len(ec.Names) != 1 || ec.Names[0] != "bridge7" {
		t.Fatalf("clause: %+v", ec)
	}
	if ec.Freq.Op != ">=" || ec.Freq.Seconds != 30 {
		t.Fatalf("freq: %+v", ec.Freq)
	}
	// the via subclause is preserved raw
	if len(ec.Raw) != 1 || ec.Raw[0].Text != "lanpoll" {
		t.Fatalf("raw: %+v", ec.Raw)
	}
}

func TestWithoutExtensionClauseIsError(t *testing.T) {
	_, _, err := analyzeWith(t, nil, proxySpec)
	if err == nil || !strings.Contains(err.Error(), "unknown clause keyword") {
		t.Fatalf("err = %v", err)
	}
}

func TestExtensionOutputTemplate(t *testing.T) {
	exts, err := ParseFile("ext", ProxyExt)
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := analyzeWith(t, exts, proxySpec)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := a.Generate("consistency", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "proxy_for(lanBridgeProxy,bridge7).") {
		t.Fatalf("output: %q", b.String())
	}
}

// The paper's override example: an extension that specifies the keyword
// "queries" (a basic keyword) with only an action tagged DavesSnmpd must
// not override the basic generic action for queries — but must provide
// the new output.
func TestOverrideOnlyOutputAction(t *testing.T) {
	const overrideExt = `
extension davesOutput ::=
    clause queries;
    decltype process;
    semantics none;
    output DavesSnmpd "query @declname@ -> @name0@";
end extension davesOutput.
`
	exts, err := ParseFile("ext", overrideExt)
	if err != nil {
		t.Fatal(err)
	}
	src := `
process agent ::=
    supports mgmt.mib;
end process agent.
process poller ::=
    queries agent requests mgmt.mib.system frequency infrequent;
end process poller.
`
	spec, a, err := analyzeWith(t, exts, src)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	// Basic generic action still ran: the query is in the typed model.
	if len(spec.Processes["poller"].Queries) != 1 {
		t.Fatal("basic generic action was overridden — paper forbids this")
	}
	// New output action works.
	var b strings.Builder
	if err := a.Generate("DavesSnmpd", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "query poller -> agent") {
		t.Fatalf("output: %q", b.String())
	}
}

// An extension can override an existing output tag for a basic clause;
// the first (prepended) entry wins.
func TestOverrideExistingOutputTag(t *testing.T) {
	const ext1 = `
extension first ::=
    clause supports;
    decltype process;
    semantics none;
    output mytag "first @declname@";
end extension first.
`
	const ext2 = `
extension second ::=
    clause supports;
    decltype process;
    semantics none;
    output mytag "second @declname@";
end extension second.
`
	e1, err := ParseFile("e1", ext1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ParseFile("e2", ext2)
	if err != nil {
		t.Fatal(err)
	}
	// InstallAll keeps earlier extensions ahead: e1 overrides e2.
	_, a, err := analyzeWith(t, append(e1, e2...), "process p ::= supports mgmt.mib; end process p.")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := a.Generate("mytag", &b); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(b.String()); got != "first p" {
		t.Fatalf("output %q", got)
	}
}

func TestExtensionFrequencySemantics(t *testing.T) {
	const ext = `
extension heartbeat ::=
    clause heartbeat;
    decltype system;
    semantics frequency;
end extension heartbeat.
`
	exts, err := ParseFile("e", ext)
	if err != nil {
		t.Fatal(err)
	}
	src := `
system "h" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10 bps;
    heartbeat >= 2 minutes;
end system "h".
`
	spec, _, err := analyzeWith(t, exts, src)
	if err != nil {
		t.Fatal(err)
	}
	ec := spec.Ext[ast.ExtKey("system", "h")]
	if len(ec) != 1 || ec[0].Freq.Seconds != 120 {
		t.Fatalf("ext: %+v", ec)
	}
}

func TestExtensionRawSemantics(t *testing.T) {
	const ext = `
extension anything ::=
    clause anything;
    semantics raw;
end extension anything.
`
	exts, err := ParseFile("e", ext)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := analyzeWith(t, exts, `domain d ::= anything 1 2 wild "things"; end domain d.`)
	if err != nil {
		t.Fatal(err)
	}
	ec := spec.Ext[ast.ExtKey("domain", "d")]
	if len(ec) != 1 || len(ec[0].Raw) != 4 {
		t.Fatalf("ext: %+v", ec)
	}
}

func TestExtensionErrors(t *testing.T) {
	bad := []string{
		`extension e ::= semantics namelist; end extension e.`,        // missing clause
		`extension e ::= clause c; semantics bogus; end extension e.`, // bad semantics
		`extension e ::= clause c; output onlytag; end extension e.`,  // malformed output
		`extension e ::= clause c; mystery x; end extension e.`,       // unknown ext clause
		`notanextension e ::= clause c; end notanextension e.`,        // wrong decl type
		`extension e ::= clause c d; end extension e.`,                // too many args
		`extension e ::= clause c; decltype; end extension e.`,        // missing decltype arg
		`extension e ::= clause c; subkeywords 5; end extension e.`,   // bad subkeyword
		// nested past the parser's bound
		`extension e ::= clause c; output t ` + strings.Repeat("(", 1_000_000) + `; end extension e.`,
	}
	for _, src := range bad {
		if _, err := ParseFile("bad", src); err == nil {
			t.Errorf("no error for %.80q", src)
		}
	}
}

func TestExtensionNameListErrors(t *testing.T) {
	exts, err := ParseFile("e", ProxyExt)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = analyzeWith(t, exts, `process p ::= proxies 5; end process p.`)
	if err == nil || !strings.Contains(err.Error(), "expected a name") {
		t.Fatalf("err = %v", err)
	}
	_, _, err = analyzeWith(t, exts, `process p ::= proxies b frequency nonsense; end process p.`)
	if err == nil {
		t.Fatal("bad frequency accepted")
	}
}
