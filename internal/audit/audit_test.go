package audit

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/mib"
	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
	"nmsl/internal/snmp"
)

const instID = "snmpdReadOnly@romano.cs.wisc.edu#0"

func model(t *testing.T) *consistency.Model {
	t.Helper()
	f, err := parser.Parse("paper", paperspec.Combined)
	if err != nil {
		t.Fatal(err)
	}
	a := sema.NewAnalyzer()
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return consistency.BuildModel(spec)
}

// startAgent launches an agent with the given config and a store
// populated from the standard MIB.
func startAgent(t *testing.T, m *consistency.Model, cfg *snmp.Config) string {
	t.Helper()
	store := snmp.NewStore()
	snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
	agent := snmp.NewAgent(store, cfg)
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agent.Close() })
	return addr.String()
}

func TestAdherentAgent(t *testing.T) {
	m := model(t)
	cfg := configgen.Generate(m)[instID]
	addr := startAgent(t, m, cfg)
	rep, err := Agent(m, instID, addr, Options{ProbeWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Adheres() {
		t.Fatalf("adherent agent flagged:\n%s", rep)
	}
	if rep.Probes == 0 {
		t.Fatal("no probes performed")
	}
	if !strings.Contains(rep.String(), "adheres") {
		t.Errorf("report: %s", rep)
	}
}

// misconfigured returns the expected config weakened: no rate limit and
// write access (an agent an administrator configured by hand, wrongly).
func misconfigured(m *consistency.Model) *snmp.Config {
	cfg := configgen.Generate(m)[instID]
	for _, cc := range cfg.Communities {
		cc.MinInterval = 0
		cc.Access = mib.AccessAny
		for i := range cc.View {
			cc.View[i].Access = mib.AccessAny
		}
	}
	return cfg
}

func TestRateAndWriteLeaks(t *testing.T) {
	m := model(t)
	addr := startAgent(t, m, misconfigured(m))
	rep, err := Agent(m, instID, addr, Options{ProbeWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adheres() {
		t.Fatal("misconfigured agent passed")
	}
	kinds := map[Kind]int{}
	for _, f := range rep.Findings {
		kinds[f.Kind]++
	}
	if kinds[KindRateLeak] != 1 {
		t.Errorf("rate leak findings: %v\n%s", kinds, rep)
	}
	if kinds[KindWriteLeak] != 1 {
		t.Errorf("write leak findings: %v\n%s", kinds, rep)
	}
}

func TestViewLeak(t *testing.T) {
	m := model(t)
	cfg := configgen.Generate(m)[instID]
	// widen the agent's actual view beyond the spec and drop the rate
	// limit so the probe is observable
	outside := mib.OID{1, 3, 6, 1, 3, 9, 9}
	for _, cc := range cfg.Communities {
		cc.MinInterval = 0
		cc.View = append(cc.View, snmp.View{Prefix: mib.OID{1, 3, 6, 1, 3}})
	}
	store := snmp.NewStore()
	snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
	store.Set(outside, snmp.Str("secret"))
	agent := snmp.NewAgent(store, cfg)
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	rep, err := Agent(m, instID, addr.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == KindViewLeak {
			found = true
		}
	}
	if !found {
		t.Fatalf("view leak not detected:\n%s", rep)
	}
}

func TestUnknownCommunityLeak(t *testing.T) {
	m := model(t)
	cfg := configgen.Generate(m)[instID]
	// an agent that answers any community with the public policy
	cfg.Communities["nmsl-audit-unknown"] = &snmp.CommunityConfig{
		Access: mib.AccessReadOnly,
		View:   []snmp.View{{Prefix: m.Spec.MIB.Lookup("mgmt.mib").OID()}},
	}
	addr := startAgent(t, m, cfg)
	rep, err := Agent(m, instID, addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == KindUnknownCommunityLeak {
			found = true
		}
	}
	if !found {
		t.Fatalf("unknown community leak not detected:\n%s", rep)
	}
}

func TestUnreachableAgent(t *testing.T) {
	m := model(t)
	// agent with no communities at all: drops everything
	addr := startAgent(t, m, &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}})
	rep, err := Agent(m, instID, addr, Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == KindUnreachable {
			found = true
		}
	}
	if !found {
		t.Fatalf("unreachable not detected:\n%s", rep)
	}
}

func TestUnservedData(t *testing.T) {
	m := model(t)
	cfg := configgen.Generate(m)[instID]
	// agent with the right policy but an empty database
	agent := snmp.NewAgent(snmp.NewStore(), cfg)
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	rep, err := Agent(m, instID, addr.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == KindUnserved {
			found = true
		}
	}
	if !found {
		t.Fatalf("unserved data not detected:\n%s", rep)
	}
}

func TestOverRestrictiveRate(t *testing.T) {
	m := model(t)
	// Build a spec-derived config with no frequency bound, but run the
	// agent with one: the agent is stricter than specified.
	src := strings.Replace(paperspec.Combined,
		"        frequency >= 5 minutes;\nend process snmpdReadOnly.",
		";\nend process snmpdReadOnly.", 1)
	src = strings.Replace(src,
		"        frequency >= 5 minutes;\nend domain wisc-cs.",
		";\nend domain wisc-cs.", 1)
	f, err := parser.Parse("mod", src)
	if err != nil {
		t.Fatal(err)
	}
	a := sema.NewAnalyzer()
	a.AnalyzeFile(f)
	astSpec, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m2 := consistency.BuildModel(astSpec)
	cfg := configgen.Generate(m2)[instID]
	for _, cc := range cfg.Communities {
		cc.MinInterval = time.Hour // stricter than the (unbounded) spec
	}
	addr := startAgent(t, m2, cfg)
	rep, err := Agent(m2, instID, addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range rep.Findings {
		if fd.Kind == KindOverRestrictive {
			found = true
		}
	}
	if !found {
		t.Fatalf("over-restrictive rate not detected:\n%s", rep)
	}
	_ = m
}

func TestAuditErrors(t *testing.T) {
	m := model(t)
	if _, err := Agent(m, "nope", "127.0.0.1:1", Options{}); err == nil {
		t.Error("unknown instance accepted")
	}
	if _, err := Agent(m, "snmpaddr@wisc-cs#0", "127.0.0.1:1", Options{}); err == nil {
		t.Error("non-agent instance accepted")
	}
}

// TestAuditCostIndependentOfFleetSize audits one agent of a 20-agent
// model and one of a 2,000-agent model and holds the second to twice the
// first's allocations. AgentContext derives the expected policy for the
// audited instance alone; when it generated the whole fleet's to pick
// one entry, the large audit allocated a hundred times the small one's,
// and a gate or sweep over the fleet was quadratic. Allocations are
// counted, not summed in bytes: the count is the same on every machine
// and under the race detector.
func TestAuditCostIndependentOfFleetSize(t *testing.T) {
	auditOne := func(domains int) uint64 {
		m, err := netsim.Model(netsim.Params{Domains: domains, SystemsPerDomain: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		id := ""
		for _, in := range m.Instances {
			if in.Proc.IsAgent() {
				id = in.ID
				break
			}
		}
		// Also builds the model's per-grantor index, as its check would
		// have: that is once per model, not per audit.
		cfg := configgen.GenerateFor(m, id)
		if cfg == nil || len(cfg.Communities) == 0 {
			t.Fatalf("%d domains: no policy for %q", domains, id)
		}
		addr := startAgent(t, m, cfg)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Agent(m, id, addr, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Adheres() || rep.Probes == 0 {
			t.Fatalf("%d domains: audit of %s:\n%s", domains, id, rep)
		}
		return after.Mallocs - before.Mallocs
	}
	small, large := auditOne(10), auditOne(1000)
	t.Logf("one audit: %d allocations in a 20-agent model, %d in a 2,000-agent model", small, large)
	if large > 2*small {
		t.Errorf("auditing one agent of 2,000 made %d allocations, over twice the %d of one agent of 20", large, small)
	}
}
