package nmsl

import (
	"os"
	"strings"
	"testing"

	"nmsl/internal/paperspec"
	"nmsl/internal/snmp"
)

// TestPipelineFigure31 exercises the full system of Figure 3.1:
// extension input + specifications -> compiler -> consistency check ->
// configuration output.
func TestPipelineFigure31(t *testing.T) {
	c := NewCompiler()
	err := c.AddExtensionSource("ext", `
extension proxyClause ::=
    clause proxies;
    decltype process;
    subkeywords via, frequency;
    semantics namelist;
    output consistency "proxy_for(@declname@,@name0@).";
end extension proxyClause.
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CompileSource("paper", paperspec.Combined); err != nil {
		t.Fatal(err)
	}
	if err := c.CompileSource("proxy", `
process bridgeProxy ::=
    supports mgmt.mib.interfaces;
    proxies bridge7 via lanpoll frequency >= 30 seconds;
    exports mgmt.mib.interfaces to "public" access ReadOnly;
end process bridgeProxy.
`); err != nil {
		t.Fatal(err)
	}
	spec, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Descriptive aspect: consistency.
	rep := spec.Check()
	if !rep.Consistent() {
		t.Fatalf("inconsistent:\n%s", rep)
	}
	rep2 := checkEngine(t, spec.Model(), EngineLogic)
	if !rep2.Consistent() {
		t.Fatalf("logic checker disagrees:\n%s", rep2)
	}

	// Compiler output: consistency facts including the extension's.
	var facts strings.Builder
	if err := spec.Generate(OutputConsistency, &facts); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"proc_export(snmpdReadOnly,", "proxy_for(bridgeProxy,bridge7)."} {
		if !strings.Contains(facts.String(), w) {
			t.Errorf("consistency output missing %q", w)
		}
	}

	// Prescriptive aspect: agent configurations.
	configs := spec.AgentConfigs()
	if len(configs) != 2 {
		t.Fatalf("configs: %d", len(configs))
	}
	var barts strings.Builder
	if err := spec.Generate(OutputBartsSnmpd, &barts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(barts.String(), "community public ReadOnly 300") {
		t.Errorf("BartsSnmpd output:\n%s", barts.String())
	}

	// Speculative aspect: load and reverse solving.
	load := spec.EstimateLoad(LoadOptions{})
	if len(load.InstanceRate) == 0 {
		t.Error("no load estimated")
	}
	ivs, err := spec.AdmissiblePeriods(
		"snmpaddr@wisc-cs#0", "snmpdReadOnly@romano.cs.wisc.edu#0",
		"mgmt.mib.ip.ipAddrTable.IpAddrEntry", AccessReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatIntervals(ivs); got != "[300, +inf)" {
		t.Errorf("admissible periods %s", got)
	}

	// Full logic program rendering.
	var prog strings.Builder
	if err := spec.WriteConsistencyProgram(&prog); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "inconsistent(") {
		t.Error("program missing rules")
	}
}

func TestCheckSourceConvenience(t *testing.T) {
	rep, err := CheckSource("paper", paperspec.Combined)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("report:\n%s", rep)
	}
}

func TestCheckSourceSyntaxError(t *testing.T) {
	if _, err := CheckSource("bad", "domain d ::="); err == nil {
		t.Fatal("want syntax error")
	}
}

func TestCheckSourceSemanticError(t *testing.T) {
	if _, err := CheckSource("bad", "domain d ::= system ghost; end domain d."); err == nil {
		t.Fatal("want semantic error")
	}
}

func TestAdmissiblePeriodsErrors(t *testing.T) {
	c := NewCompiler()
	if err := c.CompileSource("paper", paperspec.Combined); err != nil {
		t.Fatal(err)
	}
	spec, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.AdmissiblePeriods("nope", "snmpdReadOnly@romano.cs.wisc.edu#0", "mgmt.mib", AccessReadOnly); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := spec.AdmissiblePeriods("snmpaddr@wisc-cs#0", "nope", "mgmt.mib", AccessReadOnly); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := spec.AdmissiblePeriods("snmpaddr@wisc-cs#0", "snmpdReadOnly@romano.cs.wisc.edu#0", "no.such.var", AccessReadOnly); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestCompileFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/spec.nmsl"
	if err := writeFile(path, paperspec.Combined); err != nil {
		t.Fatal(err)
	}
	c := NewCompiler()
	if err := c.CompileFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := c.CompileFile(dir + "/missing.nmsl"); err == nil {
		t.Error("missing file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestAuditAndInteropFacade drives the runtime-verification API: a live
// agent configured from the spec must pass the audit, and the fleet's
// references must interoperate.
func TestAuditAndInteropFacade(t *testing.T) {
	c := NewCompiler()
	if err := c.CompileSource("paper", paperspec.Combined); err != nil {
		t.Fatal(err)
	}
	spec, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	const inst = "snmpdReadOnly@romano.cs.wisc.edu#0"
	cfg := spec.AgentConfigs()[inst]
	store := snmp.NewStore()
	snmp.PopulateFromMIB(store, spec.AST().MIB, "mgmt.mib")
	agent := snmp.NewAgent(store, cfg)
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	arep, err := spec.AuditAgent(inst, addr.String(), AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !arep.Adheres() {
		t.Fatalf("audit:\n%s", arep)
	}

	irep, err := spec.Interop(map[string]string{inst: addr.String()}, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !irep.Interoperates() {
		t.Fatalf("interop:\n%s", irep)
	}
	if irep.Exercised != 1 || irep.Skipped != 1 {
		t.Fatalf("exercised %d skipped %d", irep.Exercised, irep.Skipped)
	}

	var buf strings.Builder
	if err := spec.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "process snmpdReadOnly ::=") {
		t.Fatalf("format output:\n%s", buf.String())
	}
}
