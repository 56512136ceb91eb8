package configgen

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
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

func buildModel(t testing.TB, src string) *consistency.Model {
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
func differentialModels(t testing.TB) map[string]*consistency.Model {
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
// ~11x). Both sizes are timed in this one run, so the ratio carries
// across machines. Time is Generate's own CPU time (cpuTimeOf). Each of
// five rounds times the two sizes back to back over the same number of
// agents (the small one generates ten times), and the gate reads the
// median of the rounds' ratios, so contention on the machine that comes
// and goes during the test slows both sides of a ratio alike.
func TestGenerateLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10,000-domain model")
	}
	sizes := []struct {
		domains, reps int
		m             *consistency.Model
	}{{domains: 1000, reps: 10}, {domains: 10000, reps: 1}}
	for i := range sizes {
		m, err := netsim.Model(netsim.Params{Domains: sizes[i].domains, SystemsPerDomain: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		Generate(m) // build the index outside the timing, as a check would have
		sizes[i].m = m
	}
	var ratios []float64
	for range 5 {
		var ns [2]float64 // per agent
		for i, sz := range sizes {
			agents := 0
			d := cpuTimeOf(t, func() {
				for range sz.reps {
					agents = len(Generate(sz.m))
				}
			})
			if agents != 2*sz.domains {
				t.Fatalf("%d domains made %d configs", sz.domains, agents)
			}
			ns[i] = float64(d.Nanoseconds()) / float64(sz.reps*agents)
		}
		ratios = append(ratios, ns[1]/ns[0])
	}
	slices.Sort(ratios)
	ratio := ratios[len(ratios)/2]
	t.Logf("Generate: time per agent at 20,000 agents over 2,000, by round: %.1f (median %.1fx)", ratios, ratio)
	if ratio > 4 {
		t.Errorf("Generate is not linear: %.1fx the time per agent at 20,000 agents as at 2,000 (want <= 4x)", ratio)
	}
}

// cpuTimeOf returns the CPU time, user plus system, this process spends
// in fn, which runs with the collector off. Unlike wall time it does not
// grow when other processes share the CPUs, and with no collection in
// the window it counts neither the collector's idle-time workers, which
// run only while a CPU is free, nor a cost that depends on the heap
// headroom left by earlier work: it is the work of fn itself.
func cpuTimeOf(t *testing.T, fn func()) time.Duration {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		t.Fatal(err)
	}
	fn()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		t.Fatal(err)
	}
	return time.Duration(after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano())
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

// TestSnmpdConfIntervalRoundTrip: an interval the reader produced is
// written back and read again to the same nanosecond, at every
// magnitude it accepts, and below 2^51 ns every interval the writer
// prints reads back exactly. Multiplying a float64 of seconds out
// without rounding lost the last nanosecond from about 2µs up.
func TestSnmpdConfIntervalRoundTrip(t *testing.T) {
	roundTrip := func(d time.Duration) time.Duration {
		var buf bytes.Buffer
		cfg := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{
			"c": {Access: mib.AccessAny, MinInterval: d, View: []snmp.View{{Prefix: mib.OID{1, 3}}}},
		}}
		if err := WriteSnmpdConf(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSnmpdConf(&buf)
		if err != nil {
			t.Fatalf("%d ns: %v", int64(d), err)
		}
		return back.Communities["c"].MinInterval
	}
	ds := []time.Duration{0, 1, -1, 1914, 2 * time.Second, 1<<51 - 1, 1 << 51, 1<<51 + 1, time.Duration(1<<62 - 1).Truncate(time.Second), time.Duration(-1<<62 + 1).Truncate(time.Second)}
	r := rand.New(rand.NewSource(1))
	for bits := 1; bits < 62; bits++ {
		for range 200 {
			d := time.Duration(r.Int63n(1 << bits))
			ds = append(ds, d, -d, d.Truncate(time.Second))
		}
	}
	for _, d := range ds {
		read := roundTrip(d)
		if (d.Abs() < 1<<51 || d%time.Second == 0) && read != d {
			t.Fatalf("%d ns reads back as %d ns", int64(d), int64(read))
		}
		if again := roundTrip(read); again != read {
			t.Fatalf("%d ns read %d ns, which reads back as %d ns", int64(d), int64(read), int64(again))
		}
	}
}

func TestParseSnmpdConfErrors(t *testing.T) {
	bad := []string{
		"community a b\n",
		"community a Bogus 5 1.3\n",
		"community a ReadOnly x 1.3\n",
		"community a ReadOnly NaN 1.3\n",
		"community a ReadOnly Inf 1.3\n",
		"community a ReadOnly 5e9 1.3\n",
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

// FuzzParseSnmpdConf: no input panics the BartsSnmpd reader, and any
// input it accepts round-trips through the writer to a configuration
// with the same digest. The seeds are the writer's output for every
// agent of the testdata corpus.
func FuzzParseSnmpdConf(f *testing.F) {
	for name, m := range differentialModels(f) {
		if !strings.HasSuffix(name, ".nmsl") {
			continue
		}
		for _, cfg := range Generate(m) {
			var buf bytes.Buffer
			if err := WriteSnmpdConf(&buf, cfg); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.String())
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := ParseSnmpdConf(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSnmpdConf(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSnmpdConf(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("the writer's output does not parse: %v\n%s", err, buf.Bytes())
		}
		if back.Digest() != cfg.Digest() {
			t.Fatalf("round trip changed the digest:\n%q\nwrote\n%q", text, buf.Bytes())
		}
	})
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

// ParseSnmpdConf parses the BartsSnmpd text format back into a Config:
// the reader the round-trip, golden and fuzz tests hold the writer to.
func ParseSnmpdConf(r io.Reader) (*snmp.Config, error) {
	cfg := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "admin":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: admin takes one community", lineNo)
			}
			cfg.AdminCommunity = fields[1]
		case "community":
			if len(fields) != 5 {
				return nil, fmt.Errorf("line %d: community takes name, access, interval and views", lineNo)
			}
			acc, err := mib.ParseAccess(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %s", lineNo, err)
			}
			secs, err := strconv.ParseFloat(fields[3], 64)
			ns := math.Round(secs * float64(time.Second))
			if err != nil || !(math.Abs(ns) < 1<<62) {
				return nil, fmt.Errorf("line %d: bad interval %q", lineNo, fields[3])
			}
			// The writer's %g carries at most 17 digits, too few for the
			// nanoseconds past 2^51 ns (about 26 days); whole seconds
			// there are what it writes back exactly.
			iv := time.Duration(ns)
			if iv.Abs() >= 1<<51 {
				iv = iv.Round(time.Second)
			}
			cc := &snmp.CommunityConfig{Access: acc, MinInterval: iv}
			for _, vs := range strings.Split(fields[4], ",") {
				spec := vs
				mode := mib.AccessUnspecified
				if oidPart, modePart, found := strings.Cut(vs, ":"); found {
					a, err := mib.ParseAccess(modePart)
					if err != nil {
						return nil, fmt.Errorf("line %d: %s", lineNo, err)
					}
					spec, mode = oidPart, a
				}
				oid, err := parseOID(spec)
				if err != nil {
					return nil, fmt.Errorf("line %d: %s", lineNo, err)
				}
				cc.View = append(cc.View, snmp.View{Prefix: oid, Access: mode})
			}
			cfg.Communities[fields[1]] = cc
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func parseOID(s string) (mib.OID, error) {
	parts := strings.Split(s, ".")
	oid := make(mib.OID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad OID %q", s)
		}
		oid = append(oid, n)
	}
	return oid, nil
}
