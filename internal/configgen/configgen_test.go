package configgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/extension"
	"nmsl/internal/mib"
	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
	"nmsl/internal/snmp"
)

func buildModel(t *testing.T, src string) *consistency.Model {
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
	return consistency.BuildModel(spec)
}

func TestGeneratePaperSpec(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	configs := Generate(m)
	// Both snmpdReadOnly instances get configurations; the application
	// (snmpaddr) does not.
	if len(configs) != 2 {
		t.Fatalf("configs for %v", keys(configs))
	}
	cfg := configs["snmpdReadOnly@romano.cs.wisc.edu#0"]
	if cfg == nil {
		t.Fatalf("missing romano config; have %v", keys(configs))
	}
	cc := cfg.Communities["public"]
	if cc == nil {
		t.Fatalf("missing public community: %+v", cfg)
	}
	if cc.Access != mib.AccessReadOnly {
		t.Errorf("access %v", cc.Access)
	}
	if cc.MinInterval != 5*time.Minute {
		t.Errorf("interval %v", cc.MinInterval)
	}
	mibOID := m.Spec.MIB.Lookup("mgmt.mib").OID()
	if len(cc.View) != 1 || cc.View[0].Prefix.Compare(mibOID) != 0 {
		t.Errorf("view %v", cc.View)
	}
}

// generateScan is Generate as it was before the per-grantor index: every
// instance scans every permission. It is kept as the oracle for the
// differential tests, nowhere else.
func generateScan(m *consistency.Model) map[string]*snmp.Config {
	out := map[string]*snmp.Config{}
	for _, in := range m.Instances {
		if !in.Proc.IsAgent() {
			continue
		}
		cfg := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}}
		for i := range m.Perms {
			p := &m.Perms[i]
			if p.GrantorInst != in.ID {
				continue
			}
			cc := cfg.Communities[p.Grantee]
			if cc == nil {
				cc = &snmp.CommunityConfig{Access: mib.AccessNone}
				cfg.Communities[p.Grantee] = cc
			}
			cc.View = append(cc.View, snmp.View{Prefix: p.Var.OID(), Access: exportAccess(p.Access)})
			iv := time.Duration(p.MinPeriod * float64(time.Second))
			if iv > cc.MinInterval {
				cc.MinInterval = iv
			}
		}
		applyDomainRestrictions(m, in, cfg)
		for _, cc := range cfg.Communities {
			sortViews(cc)
			summarizeAccess(cc)
		}
		out[in.ID] = cfg
	}
	return out
}

// restrictedSpec exercises what the synthetic internets do not: nested
// restricting domains (lab inside campus, both exporting), a community
// a restriction drops, mixed per-view modes, one process type hosted
// twice, an agent that exports nothing, and a process that is no agent.
const restrictedSpec = `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public" access Any frequency >= 1 minutes;
    exports mgmt.mib.system to "ops" access ReadOnly;
    exports mgmt.mib.ip to "ops" access Any frequency > 30 seconds;
    exports mgmt.mib to "outsiders" access ReadOnly;
end process agent.
process mute ::=
    supports mgmt.mib.system;
end process mute.
process poller ::=
    queries agent requests mgmt.mib.system frequency >= 10 minutes;
end process poller.
system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
    process mute;
    process agent;
end system "inside".
system "edge" ::=
    cpu sparc;
    interface ie0 net campus type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
    process poller;
end system "edge".
system "free" ::=
    cpu sparc;
    interface ie0 net world type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "free".
domain lab ::=
    system inside;
    exports mgmt.mib.system to "public" access ReadOnly frequency >= 10 minutes;
    exports mgmt.mib.ip to "ops" access ReadOnly;
end domain lab.
domain campus ::=
    domain lab;
    system edge;
    exports mgmt.mib to "public" access ReadOnly frequency >= 5 minutes;
    exports mgmt.mib to "ops" access Any;
end domain campus.
domain ops ::= end domain ops.
domain outsiders ::= end domain outsiders.
domain public ::= domain campus; system free; end domain public.
`

// differentialModels returns every model the generation oracle runs
// over: the testdata corpus, the paper's specification, the five netsim
// scenarios and restrictedSpec.
func differentialModels(t *testing.T) map[string]*consistency.Model {
	t.Helper()
	models := map[string]*consistency.Model{
		"paperspec":  buildModel(t, paperspec.Combined),
		"restricted": buildModel(t, restrictedSpec),
	}
	files, err := filepath.Glob("../../testdata/*.nmsl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.Parse(path, string(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		a := sema.NewAnalyzer()
		if filepath.Base(path) == "machineroom.nmsl" {
			extSrc, err := os.ReadFile("../../testdata/proxy.nmslext")
			if err != nil {
				t.Fatal(err)
			}
			exts, err := extension.ParseFile("proxy.nmslext", string(extSrc))
			if err != nil {
				t.Fatal(err)
			}
			extension.InstallAll(a.Tables(), exts)
		}
		a.AnalyzeFile(f)
		spec, err := a.Finish()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		models[filepath.Base(path)] = consistency.BuildModel(spec)
	}
	for _, name := range netsim.Scenarios() {
		params, err := netsim.ScenarioParams(netsim.Scenario(name), 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		m, err := netsim.Model(params)
		if err != nil {
			t.Fatal(err)
		}
		models["netsim-"+name] = m
	}
	return models
}

// sameConfig fails unless got is byte-for-byte the configuration want.
// want's bytes and digest are taken from encoding/json, the definition of
// the wire form, so every configuration the oracle generates also holds
// snmp.MarshalConfig, Config.Digest and snmp.UnmarshalConfig to it.
func sameConfig(t *testing.T, what string, got, want *snmp.Config) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Errorf("%s: got %v, want %v", what, got, want)
		}
		return
	}
	gb, err := snmp.MarshalConfig(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: config differs from the scan's\n got %s\nwant %s", what, gb, wb)
	}
	if sum := sha256.Sum256(wb); got.Digest() != hex.EncodeToString(sum[:]) {
		t.Errorf("%s: digest %s, want %x", what, got.Digest(), sum)
	}
	if back, err := snmp.UnmarshalConfig(wb); err != nil || !reflect.DeepEqual(back, want) {
		t.Errorf("%s: %s reads back as %+v, %v", what, wb, back, err)
	}
}

// TestGenerateMatchesScan is the differential oracle for the indexed
// Generate: on every model, Generate and a per-instance GenerateFor must
// reproduce the old whole-table scan byte for byte.
func TestGenerateMatchesScan(t *testing.T) {
	for name, m := range differentialModels(t) {
		t.Run(name, func(t *testing.T) {
			want := generateScan(m)
			got := Generate(m)
			if len(got) != len(want) {
				t.Fatalf("Generate made %d configs, the scan %d", len(got), len(want))
			}
			agents := 0
			for _, in := range m.Instances {
				w := want[in.ID]
				if w != nil {
					agents++
				}
				sameConfig(t, "Generate "+in.ID, got[in.ID], w)
				sameConfig(t, "GenerateFor "+in.ID, GenerateFor(m, in.ID), w)
			}
			if agents != len(want) {
				t.Fatalf("%d agents among the instances, %d configs", agents, len(want))
			}
			if cfg := GenerateFor(m, "nobody@nowhere#0"); cfg != nil {
				t.Errorf("GenerateFor an unknown instance: %+v", cfg)
			}
		})
	}
}

// TestGenerateRestrictedSpecShape pins that restrictedSpec really holds
// the cases the oracle is meant to cover, so an edit to it cannot quietly
// turn TestGenerateMatchesScan into a test of the easy path.
func TestGenerateRestrictedSpecShape(t *testing.T) {
	m := buildModel(t, restrictedSpec)
	configs := Generate(m)
	if cfg := configs["mute@inside#1"]; cfg == nil || len(cfg.Communities) != 0 {
		t.Errorf("an agent granted nothing must get an empty config, got %+v", cfg)
	}
	if configs["poller@edge#1"] != nil || GenerateFor(m, "poller@edge#1") != nil {
		t.Error("a process that supports nothing is not an agent")
	}
	inside, edge, free := configs["agent@inside#0"], configs["agent@edge#0"], configs["agent@free#0"]
	if inside == nil || edge == nil || free == nil || configs["agent@inside#2"] == nil {
		t.Fatalf("missing agent configs: %v", keys(configs))
	}
	if len(free.Communities) != 3 {
		t.Errorf("unrestricted agent keeps all three communities, got %v", keys(free.Communities))
	}
	if _, ok := edge.Communities["outsiders"]; ok {
		t.Error("campus exports nothing to outsiders; the community must be dropped")
	}
	if got := inside.Communities["public"].MinInterval; got != 10*time.Minute {
		t.Errorf("lab's stricter bound must win inside lab, got %v", got)
	}
	if got := edge.Communities["public"].MinInterval; got != 5*time.Minute {
		t.Errorf("campus's bound applies on the edge, got %v", got)
	}
	if inside.Digest() == edge.Digest() || edge.Digest() == free.Digest() {
		t.Error("the three placements must generate different configs")
	}
}

// TestGenerateLinear is the linearity gate: per-agent generation cost at
// 20,000 agents within 4x of the cost at 2,000 (the whole-table scan was
// ~11x). Both sizes are timed in this one run, best of three, so the
// ratio carries across machines.
func TestGenerateLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10,000-domain model")
	}
	perAgent := func(domains int) float64 {
		m, err := netsim.Model(netsim.Params{Domains: domains, SystemsPerDomain: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		Generate(m) // build the index outside the timing, as a check would have
		best := time.Duration(1<<63 - 1)
		agents := 0
		for i := 0; i < 3; i++ {
			runtime.GC()
			start := time.Now()
			agents = len(Generate(m))
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if agents != 2*domains {
			t.Fatalf("%d domains made %d configs", domains, agents)
		}
		return float64(best.Nanoseconds()) / float64(agents)
	}
	small, large := perAgent(1000), perAgent(10000)
	t.Logf("Generate: %.0f ns/agent at 2,000 agents, %.0f ns/agent at 20,000 (%.1fx)", small, large, large/small)
	if large > 4*small {
		t.Errorf("Generate is not linear: %.0f ns/agent at 20,000 agents vs %.0f at 2,000 (%.1fx, want <= 4x)", large, small, large/small)
	}
}

func keys[V any](m map[string]*V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDomainRestrictionNarrowsConfig(t *testing.T) {
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "public" access Any frequency >= 1 minutes;
end process agent.
system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "inside".
domain lab ::=
    system inside;
    exports mgmt.mib.system to "public" access ReadOnly frequency >= 10 minutes;
end domain lab.
domain public ::= domain lab; end domain public.
`
	m := buildModel(t, src)
	configs := Generate(m)
	cfg := configs["agent@inside#0"]
	if cfg == nil {
		t.Fatal("missing config")
	}
	cc := cfg.Communities["public"]
	if cc == nil {
		t.Fatal("public community dropped")
	}
	// The domain narrows Any -> ReadOnly, 60s -> 600s, mgmt.mib -> system.
	if cc.Access != mib.AccessReadOnly {
		t.Errorf("access %v", cc.Access)
	}
	if cc.MinInterval != 10*time.Minute {
		t.Errorf("interval %v", cc.MinInterval)
	}
	sysOID := m.Spec.MIB.Lookup("mgmt.mib.system").OID()
	if len(cc.View) != 1 || cc.View[0].Prefix.Compare(sysOID) != 0 {
		t.Errorf("view %v", cc.View)
	}
}

// TestGenerateMixedAccessDoesNotLeak is the regression test for the
// access-mode merge bug: a grantee holding ReadWrite on one subtree and
// ReadOnly on another used to get one community-wide mode covering both,
// leaking write access onto the ReadOnly export. The generated policy —
// and a live agent running it — must reject a Set on the ReadOnly
// subtree while still accepting one on the writable subtree.
func TestGenerateMixedAccessDoesNotLeak(t *testing.T) {
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib.system to "ops" access ReadOnly;
    exports mgmt.mib.ip to "ops" access Any;
end process agent.
system "h" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "h".
domain lab ::= system h; end domain lab.
domain ops ::= end domain ops.
`
	m := buildModel(t, src)
	cfg := Generate(m)["agent@h#0"]
	if cfg == nil {
		t.Fatal("missing config")
	}
	cc := cfg.Communities["ops"]
	if cc == nil {
		t.Fatalf("missing ops community: %+v", cfg)
	}
	sysDescr := m.Spec.MIB.Lookup("mgmt.mib.system.sysDescr").OID()
	ttl := m.Spec.MIB.Lookup("mgmt.mib.ip.ipDefaultTTL").OID()
	if cc.Allows(sysDescr, mib.AccessWriteOnly) {
		t.Errorf("write access leaked onto the ReadOnly subtree: %+v", cc.View)
	}
	if !cc.Allows(sysDescr, mib.AccessReadOnly) {
		t.Errorf("ReadOnly subtree lost read access: %+v", cc.View)
	}
	if !cc.Allows(ttl, mib.AccessWriteOnly) || !cc.Allows(ttl, mib.AccessReadOnly) {
		t.Errorf("ReadWrite subtree over-restricted: %+v", cc.View)
	}

	// End to end: a live agent running this config enforces the split.
	store := snmp.NewStore()
	snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
	agent := snmp.NewAgent(store, cfg)
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	client, err := snmp.Dial(addr.String(), "ops")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	err = client.Set(snmp.Binding{OID: sysDescr, Value: snmp.Str("hacked")})
	re, ok := err.(*snmp.RequestError)
	if !ok || re.Status != snmp.ReadOnly {
		t.Fatalf("Set on ReadOnly-exported variable: %v (want ReadOnly error)", err)
	}
	if err := client.Set(snmp.Binding{OID: ttl, Value: snmp.Int64(63)}); err != nil {
		t.Fatalf("Set on ReadWrite-exported variable: %v", err)
	}
	if _, err := client.Get(sysDescr); err != nil {
		t.Fatalf("Get on ReadOnly-exported variable: %v", err)
	}
}

func TestDomainRestrictionDropsUnGrantedCommunity(t *testing.T) {
	src := `
process agent ::=
    supports mgmt.mib;
    exports mgmt.mib to "outsiders" access ReadOnly;
end process agent.
system "inside" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agent;
end system "inside".
domain lab ::=
    system inside;
    exports mgmt.mib to "friends" access ReadOnly;
end domain lab.
domain outsiders ::= end domain outsiders.
domain friends ::= end domain friends.
`
	m := buildModel(t, src)
	configs := Generate(m)
	cfg := configs["agent@inside#0"]
	if _, ok := cfg.Communities["outsiders"]; ok {
		t.Errorf("outsiders community should be dropped by lab's restriction: %+v", cfg)
	}
}

func TestSnmpdConfRoundTrip(t *testing.T) {
	cfg := &snmp.Config{
		AdminCommunity: "adm",
		Communities: map[string]*snmp.CommunityConfig{
			"public": {
				Access:      mib.AccessReadOnly,
				View:        []snmp.View{{Prefix: mib.OID{1, 3, 6, 1, 2, 1}}, {Prefix: mib.OID{1, 3, 6, 1, 4}, Access: mib.AccessReadOnly}},
				MinInterval: 300 * time.Second,
			},
			"ops": {
				Access: mib.AccessAny,
				View:   []snmp.View{{Prefix: mib.OID{1, 3, 6}}},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteSnmpdConf(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnmpdConf(&buf)
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, buf.String())
	}
	if got.AdminCommunity != "adm" || len(got.Communities) != 2 {
		t.Fatalf("got %+v", got)
	}
	pc := got.Communities["public"]
	if pc.Access != mib.AccessReadOnly || pc.MinInterval != 300*time.Second || len(pc.View) != 2 {
		t.Fatalf("public %+v", pc)
	}
}

// TestSnmpdConfGolden pins WriteSnmpdConf's bytes: sorted communities,
// an explicit :mode on every view but an unspecified one, and intervals
// exactly as fmt's %g prints them (whole, fractional, exponent form).
func TestSnmpdConfGolden(t *testing.T) {
	cfg := &snmp.Config{
		AdminCommunity: "adm",
		Communities: map[string]*snmp.CommunityConfig{
			"public": {
				Access:      mib.AccessReadOnly,
				View:        []snmp.View{{Prefix: mib.OID{1, 3, 6, 1, 2, 1}}, {Prefix: mib.OID{1, 3, 6, 1, 4}, Access: mib.AccessReadOnly}},
				MinInterval: 300 * time.Second,
			},
			"ops": {
				Access:      mib.AccessAny,
				View:        []snmp.View{{Prefix: mib.OID{1, 3, 6}, Access: mib.AccessAny}},
				MinInterval: 1500 * time.Millisecond,
			},
			"archive": {
				Access:      mib.AccessNone,
				MinInterval: 2000000 * time.Second,
			},
		},
	}
	const want = `# generated by nmslgen (BartsSnmpd format)
admin adm
community archive None 2e+06 
community ops Any 1.5 1.3.6:Any
community public ReadOnly 300 1.3.6.1.2.1,1.3.6.1.4:ReadOnly
`
	var buf bytes.Buffer
	if err := WriteSnmpdConf(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("WriteSnmpdConf wrote\n%q\nwant\n%q", buf.String(), want)
	}
	// No admin line, no communities: the header alone.
	buf.Reset()
	if err := WriteSnmpdConf(&buf, &snmp.Config{}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "# generated by nmslgen (BartsSnmpd format)\n" {
		t.Errorf("empty config wrote %q", got)
	}
}

func TestParseSnmpdConfErrors(t *testing.T) {
	bad := []string{
		"community a b\n",
		"community a Bogus 5 1.3\n",
		"community a ReadOnly x 1.3\n",
		"community a ReadOnly 5 1.x\n",
		"admin\n",
		"mystery directive\n",
	}
	for _, src := range bad {
		if _, err := ParseSnmpdConf(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestCompilerLevelOutputs(t *testing.T) {
	f, err := parser.Parse("paper", paperspec.Combined)
	if err != nil {
		t.Fatal(err)
	}
	a := sema.NewAnalyzer()
	RegisterOutput(a.Tables())
	a.AnalyzeFile(f)
	if _, err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	var barts bytes.Buffer
	if err := a.Generate(TagBartsSnmpd, &barts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(barts.String(), "community public ReadOnly 300 mgmt.mib") {
		t.Fatalf("BartsSnmpd output:\n%s", barts.String())
	}
	var nvp bytes.Buffer
	if err := a.Generate(TagNVP, &nvp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nvp.String(), `"community":"public"`) {
		t.Fatalf("nvp output:\n%s", nvp.String())
	}
}

func TestInstallFiles(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	configs := Generate(m)
	dir := t.TempDir()
	paths, err := InstallFiles(dir, TagBartsSnmpd, configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths %v", paths)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "community public") {
		t.Fatalf("file content:\n%s", data)
	}
	// nvp format parses back as JSON config
	jpaths, err := InstallFiles(dir, TagNVP, configs)
	if err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(jpaths[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snmp.UnmarshalConfig(bytes.TrimSpace(jdata)); err != nil {
		t.Fatalf("nvp file not loadable: %v", err)
	}
	if _, err := InstallFiles(dir, "weird", configs); err == nil {
		t.Error("unknown format accepted")
	}
	// filenames are sanitized
	if strings.ContainsAny(filepath.Base(paths[0]), "@#") {
		t.Errorf("unsanitized path %s", paths[0])
	}
}

func TestInstallLiveEndToEnd(t *testing.T) {
	// The full prescriptive loop: generate from the paper spec, install
	// into a live agent over UDP, verify the agent now enforces the
	// spec's access and frequency.
	m := buildModel(t, paperspec.Combined)
	configs := Generate(m)
	cfg := configs["snmpdReadOnly@romano.cs.wisc.edu#0"]
	cfg.AdminCommunity = "nmsl-admin"

	store := snmp.NewStore()
	snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
	agent := snmp.NewAgent(store, &snmp.Config{
		Communities:    map[string]*snmp.CommunityConfig{},
		AdminCommunity: "nmsl-admin",
	})
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	if err := InstallLive(addr.String(), "nmsl-admin", cfg); err != nil {
		t.Fatalf("install: %v", err)
	}

	client, err := snmp.Dial(addr.String(), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	oid := m.Spec.MIB.Lookup("mgmt.mib.system.sysDescr").OID()
	if _, err := client.Get(oid); err != nil {
		t.Fatalf("in-spec query rejected: %v", err)
	}
	// Second query violates the 5-minute frequency clause.
	_, err = client.Get(oid)
	re, ok := err.(*snmp.RequestError)
	if !ok || re.Status != snmp.GenErr {
		t.Fatalf("out-of-spec query result: %v", err)
	}
	// Writes are rejected: the spec exported ReadOnly. A fresh agent is
	// used because the rate limiter of the first one already counts the
	// queries above against public's 5-minute window.
	agent2 := snmp.NewAgent(store, &snmp.Config{
		Communities:    map[string]*snmp.CommunityConfig{},
		AdminCommunity: "nmsl-admin",
	})
	addr2, err := agent2.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent2.Close()
	if err := InstallLive(addr2.String(), "nmsl-admin", cfg); err != nil {
		t.Fatalf("install: %v", err)
	}
	client2, err := snmp.Dial(addr2.String(), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	err = client2.Set(snmp.Binding{OID: oid, Value: snmp.Str("hacked")})
	re, ok = err.(*snmp.RequestError)
	if !ok || re.Status != snmp.ReadOnly {
		t.Fatalf("write result: %v", err)
	}
}
