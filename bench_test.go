package nmsl

// Benchmark harness for the experiments in EXPERIMENTS.md. The paper has
// no measured evaluation; its quantitative claims are the scale goals of
// section 1 (10,000 domains, 100k-1M hosts) and the "easy to evaluate"
// requirement of section 3.1. Each benchmark regenerates one experiment
// row; cmd/nmslsim prints the corresponding tables.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"nmsl/internal/changespec"
	"nmsl/internal/consistency"
	"nmsl/internal/lexer"
	"nmsl/internal/logic"
	"nmsl/internal/megafleet"
	"nmsl/internal/mib"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
	"nmsl/internal/simrun"
	"nmsl/internal/snmp"

	cfggen "nmsl/internal/configgen"
)

// ---- T-SCALE-1: consistency-check time vs number of domains ----

func benchCheckDomains(b *testing.B, domains int) {
	m, err := netsim.Model(netsim.Params{Domains: domains, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := consistency.Check(m)
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

func BenchmarkCheckDomains10(b *testing.B)    { benchCheckDomains(b, 10) }
func BenchmarkCheckDomains100(b *testing.B)   { benchCheckDomains(b, 100) }
func BenchmarkCheckDomains1000(b *testing.B)  { benchCheckDomains(b, 1000) }
func BenchmarkCheckDomains10000(b *testing.B) { benchCheckDomains(b, 10000) }

// ---- Tentpole: parallel sharded checking, worker sweep on the
// 1k-domain netsim workload (acceptance: >= 1.5x over 1 worker) ----

func benchCheckParallel(b *testing.B, workers int, metrics *obs.Registry) {
	m, err := netsim.Model(netsim.Params{Domains: 1000, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := consistency.CheckContext(context.Background(), m, consistency.Options{Workers: workers, Metrics: metrics})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

func BenchmarkCheckParallel1(b *testing.B)  { benchCheckParallel(b, 1, nil) }
func BenchmarkCheckParallel2(b *testing.B)  { benchCheckParallel(b, 2, nil) }
func BenchmarkCheckParallel4(b *testing.B)  { benchCheckParallel(b, 4, nil) }
func BenchmarkCheckParallel8(b *testing.B)  { benchCheckParallel(b, 8, nil) }
func BenchmarkCheckParallel16(b *testing.B) { benchCheckParallel(b, 16, nil) }

// The paper-scale sweep: the section-1 goal of a 10,000-domain internet.
// The model is built once (sync.Once inside the helper would hide the
// build anyway — netsim.Model dominates a single cold iteration) and the
// check alone is timed; acceptance is a cold full check under 3 seconds
// and 8-worker scaling on multicore hardware.
var bench10kModel = struct {
	once sync.Once
	m    *consistency.Model
	err  error
}{}

func tenKModel(b *testing.B) *consistency.Model {
	bench10kModel.once.Do(func() {
		bench10kModel.m, bench10kModel.err = netsim.Model(netsim.Params{
			Domains: 10000, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1,
		})
	})
	if bench10kModel.err != nil {
		b.Fatal(bench10kModel.err)
	}
	return bench10kModel.m
}

func benchCheckParallel10k(b *testing.B, workers int) {
	m := tenKModel(b)
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := consistency.CheckContext(context.Background(), m, consistency.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

func BenchmarkCheckParallel10k1(b *testing.B) { benchCheckParallel10k(b, 1) }
func BenchmarkCheckParallel10k2(b *testing.B) { benchCheckParallel10k(b, 2) }
func BenchmarkCheckParallel10k4(b *testing.B) { benchCheckParallel10k(b, 4) }
func BenchmarkCheckParallel10k8(b *testing.B) { benchCheckParallel10k(b, 8) }

// ---- T-SCALE-4: the full §1 internet — 100,000 domains, ~200,000
// managed systems (≈1M spec lines, ≈300k instances, ≈200k references).
// The model builds once (~25s: spec generation plus compile dominate;
// Makefile gives this tier its own short -benchtime) and the benchmarks
// time the steady-state costs a resident manager pays: the cold full
// check, and the one-edit warm delta re-check that the daemon's check
// loop actually runs. These two are guarded (BENCH_5.json) at a lighter
// sampling tier than the fast benchmarks — see GUARDED_SCALE_BENCH. ----

var bench100kModel = struct {
	once sync.Once
	m    *consistency.Model
	err  error
}{}

func hundredKModel(b *testing.B) *consistency.Model {
	bench100kModel.once.Do(func() {
		bench100kModel.m, bench100kModel.err = netsim.Model(netsim.Params{
			Domains: 100000, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1,
		})
	})
	if bench100kModel.err != nil {
		b.Fatal(bench100kModel.err)
	}
	return bench100kModel.m
}

// BenchmarkCheckDomains100k: one cold, uncached, serial full check of
// the 100k-domain internet (acceptance: a handful of seconds — §1's
// "large internets" checked interactively).
func BenchmarkCheckDomains100k(b *testing.B) {
	m := hundredKModel(b)
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := consistency.Check(m)
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

// BenchmarkCheckDomains100kWarmDelta: the resident-manager steady
// state at full scale — one instance edited out of 100k domains, every
// untouched reference replayed through the dirty bitset and the
// violation cursor. The warm pass must stay microseconds-scale and
// O(refs) only in the replay scan, never in allocation.
func BenchmarkCheckDomains100kWarmDelta(b *testing.B) {
	m := hundredKModel(b)
	chk := consistency.NewChecker(m)
	chk.Cache = consistency.NewResultCache()
	prev := chk.Check()
	if !prev.Consistent() {
		b.Fatal("unexpected inconsistency")
	}
	delta := &consistency.ModelDelta{Instances: []string{m.Refs[0].Source.ID}}
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := chk.CheckDelta(prev, delta)
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

// Observability overhead control (E-OBS): the same 8-worker check with
// the instrumentation compiled in but switched off. Acceptance: the
// instrumented default above regresses < 3% against this.
func BenchmarkCheckParallel8NoObs(b *testing.B) { benchCheckParallel(b, 8, obs.Disabled) }

// ---- Tentpole: incremental re-check with a warm result cache.
// One instance edited out of a 1000-domain internet; everything else
// replays from the dependency-fingerprinted cache (acceptance: >= 10x
// over the cold BenchmarkCheckDomains1000). ----

func BenchmarkCheckWarmCache(b *testing.B) {
	m, err := netsim.Model(netsim.Params{Domains: 1000, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	chk := consistency.NewChecker(m)
	chk.Cache = consistency.NewResultCache()
	prev := chk.Check()
	if !prev.Consistent() {
		b.Fatal("unexpected inconsistency")
	}
	delta := &consistency.ModelDelta{Instances: []string{m.Refs[0].Source.ID}}
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := chk.CheckDelta(prev, delta)
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

// ---- E-RELA: change-contract evaluation on a warm delta.
// The rollout pre-gate's cost on top of an incremental re-check: the
// same one-instance edit as BenchmarkCheckWarmCache, plus a fully armed
// contract (scope + both forbids + all four churn bounds). The
// changespec.Checker is built once, as a resident daemon or a single
// rollout would; each iteration then pays CheckDelta plus the
// delta-scoped contract evaluation (acceptance: < 10% over the bare
// BenchmarkCheckWarmCache). ----

func BenchmarkChangeContractCheck(b *testing.B) {
	m, err := netsim.Model(netsim.Params{Domains: 1000, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	chk := consistency.NewChecker(m)
	chk.Cache = consistency.NewResultCache()
	prev := chk.Check()
	if !prev.Consistent() {
		b.Fatal("unexpected inconsistency")
	}
	delta := &consistency.ModelDelta{Instances: []string{m.Refs[0].Source.ID}}
	contracts, err := changespec.Parse("bench.ncs", `
contract bench-gate ::=
    scope public;
    forbid widen-access;
    forbid relax-frequency;
    max added instances 0;
    max removed instances 0;
    max added permissions 0;
    max removed permissions 0;
end contract bench-gate.
`)
	if err != nil {
		b.Fatal(err)
	}
	ck := changespec.NewChecker(m, m)
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := chk.CheckDelta(prev, delta)
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
		if r := ck.Check(delta, contracts[0]); !r.OK() {
			b.Fatalf("contract violated: %s", r.Summary())
		}
	}
}

// ---- T-SCALE-2: compile+check vs number of network elements ----

func benchCheckSystems(b *testing.B, systemsPerDomain int) {
	m, err := netsim.Model(netsim.Params{Domains: 100, SystemsPerDomain: systemsPerDomain, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(m.Instances)), "instances")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := consistency.Check(m)
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

func BenchmarkCheckSystems100(b *testing.B)   { benchCheckSystems(b, 1) }
func BenchmarkCheckSystems1000(b *testing.B)  { benchCheckSystems(b, 10) }
func BenchmarkCheckSystems10000(b *testing.B) { benchCheckSystems(b, 100) }

// ---- T-SCALE-3: compiler throughput (lexer, parser, full front end) ----

func BenchmarkLexer(b *testing.B) {
	src := netsim.Source(netsim.Params{Domains: 100, SystemsPerDomain: 2, Seed: 1})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lx := lexer.New(src)
		for {
			if tok := lx.Next(); tok.Kind == 1 { // token.EOF
				break
			}
		}
	}
}

func BenchmarkParser(b *testing.B) {
	src := netsim.Source(netsim.Params{Domains: 100, SystemsPerDomain: 2, Seed: 1})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCompile(b *testing.B, domains int) {
	src := netsim.Source(netsim.Params{Domains: domains, SystemsPerDomain: 2, Seed: 1})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCompiler()
		if err := c.CompileSource("bench", src); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileDomains10(b *testing.B)    { benchCompile(b, 10) }
func BenchmarkCompileDomains100(b *testing.B)   { benchCompile(b, 100) }
func BenchmarkCompileDomains1000(b *testing.B)  { benchCompile(b, 1000) }
func BenchmarkCompileDomains10000(b *testing.B) { benchCompile(b, 10000) }

// benchDiffSpecs diffs two separately compiled revisions of a netsim
// internet that differ in one poller's period: the declaration diff an
// accepted edit pays twice, once for CheckDelta and once in
// VerifyChange. It walks the whole specification, so its time grows
// with the domains; its allocations do not.
func benchDiffSpecs(b *testing.B, domains int) {
	src := netsim.Source(netsim.Params{Domains: domains, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
	const tail = "minutes;\nend process pollerT0."
	old := compileSource(b, "old.nmsl", src)
	edited := compileSource(b, "new.nmsl", strings.Replace(src, ">= 5 "+tail, ">= 10 "+tail, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := sema.DiffSpecs(old.AST(), edited.AST()); len(d.Processes) != 1 {
			b.Fatalf("delta %+v, want one process", d)
		}
	}
}

func BenchmarkDiffSpecs1000(b *testing.B)  { benchDiffSpecs(b, 1000) }
func BenchmarkDiffSpecs10000(b *testing.B) { benchDiffSpecs(b, 10000) }

// BenchmarkCompilePaperSpec compiles the paper's own figures, the
// smallest realistic unit of work.
func BenchmarkCompilePaperSpec(b *testing.B) {
	b.SetBytes(int64(len(paperspec.Combined)))
	for i := 0; i < b.N; i++ {
		c := NewCompiler()
		if err := c.CompileSource("paper", paperspec.Combined); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: logic-engine checker vs indexed Go checker ----

func benchCheckerKind(b *testing.B, useLogic bool) {
	m, err := netsim.Model(netsim.Params{Domains: 50, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rep *consistency.Report
		if useLogic {
			rep, err = consistency.CheckContext(context.Background(), m,
				consistency.Options{Workers: 1, Engine: consistency.EngineLogic, Metrics: obs.Disabled})
			if err != nil {
				b.Fatal(err)
			}
		} else {
			rep = consistency.Check(m)
		}
		if !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

func BenchmarkCheckerIndexedGo(b *testing.B)   { benchCheckerKind(b, false) }
func BenchmarkCheckerLogicEngine(b *testing.B) { benchCheckerKind(b, true) }

// ---- Logic engine micro-benchmarks ----

func BenchmarkLogicResolution(b *testing.B) {
	db := logic.NewDB()
	for i := 0; i < 200; i++ {
		db.Assert(logic.Comp("edge", logic.Atom(fmt.Sprintf("n%d", i)), logic.Atom(fmt.Sprintf("n%d", i+1))))
	}
	X, Y := logic.NewVar("X"), logic.NewVar("Y")
	db.Assert(logic.Comp("path", X, Y), logic.Call(logic.Comp("edge", X, Y)))
	X2, Y2, Z2 := logic.NewVar("X"), logic.NewVar("Y"), logic.NewVar("Z")
	db.Assert(logic.Comp("path", X2, Z2),
		logic.Call(logic.Comp("edge", X2, Y2)), logic.Call(logic.Comp("path", Y2, Z2)))
	s := logic.NewSolver(db)
	s.MaxDepth = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Prove(logic.Call(logic.Comp("path", logic.Atom("n0"), logic.Atom("n200")))) {
			b.Fatal("path not found")
		}
	}
}

func BenchmarkLogicConstraints(b *testing.B) {
	s := logic.NewSolver(logic.NewDB())
	for i := 0; i < b.N; i++ {
		X, Y := logic.NewVar("X"), logic.NewVar("Y")
		ok := s.Prove(
			logic.Con(X, ">=", logic.Int(5)),
			logic.Con(Y, "<=", logic.Int(100)),
			logic.Con(X, "<", Y),
		)
		if !ok {
			b.Fatal("satisfiable system rejected")
		}
	}
}

// ---- E-SPEC-R: reverse solving ----

func BenchmarkReverseSolve(b *testing.B) {
	c := NewCompiler()
	if err := c.CompileSource("paper", paperspec.Combined); err != nil {
		b.Fatal(err)
	}
	spec, err := c.Finish()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ivs, err := spec.AdmissiblePeriods(
			"snmpaddr@wisc-cs#0", "snmpdReadOnly@romano.cs.wisc.edu#0",
			"mgmt.mib.ip.ipAddrTable.IpAddrEntry", AccessReadOnly)
		if err != nil || len(ivs) != 1 {
			b.Fatalf("ivs=%v err=%v", ivs, err)
		}
	}
}

// ---- T-GEN: configuration generation ----

func benchConfigGen(b *testing.B, domains int) {
	m, err := netsim.Model(netsim.Params{Domains: domains, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	agents := len(cfggen.Generate(m)) // and the model's permission index, built once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		configs := cfggen.Generate(m)
		if len(configs) == 0 {
			b.Fatal("no configs")
		}
	}
	b.ReportMetric(float64(agents), "agents")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*agents)*1e9, "ns/agent")
}

func BenchmarkConfigGen(b *testing.B) { benchConfigGen(b, 200) }

// BenchmarkConfigGen20k is generation at the paper's scale: 10,000
// domains, 20,000 agents. ns/agent here against BenchmarkConfigGen's is
// the linearity check; allocs/op and B/op are what bench-guard holds.
func BenchmarkConfigGen20k(b *testing.B) { benchConfigGen(b, 10000) }

func BenchmarkConfigWriteSnmpdConf(b *testing.B) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	configs := cfggen.Generate(m)
	var one *snmp.Config
	for _, c := range configs {
		one = c
		break
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cfggen.WriteSnmpdConf(io.Discard, one); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E-PRESC: management protocol substrate ----

func BenchmarkBERMessageRoundTrip(b *testing.B) {
	msg := &snmp.Message{
		Version:   snmp.Version0,
		Community: "public",
		PDU: snmp.PDU{
			Type:      snmp.TagGetRequest,
			RequestID: 7,
			Bindings: []snmp.Binding{
				{OID: mib.OID{1, 3, 6, 1, 2, 1, 1, 1}, Value: snmp.Null()},
			},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := msg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snmp.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCodecConfig is the one-community configuration bench/ installs on
// every agent of its fleets; BenchmarkConfigCodec* run the blob codec
// over it 1000 times per op, so that bench-guard's 20 iterations time
// more than the clock. allocs/op and B/op are what holds on any machine:
// 1000 allocations to marshal (the blob), 6000 to unmarshal.
var benchCodecConfig = &snmp.Config{
	AdminCommunity: "bench-admin",
	Communities:    map[string]*snmp.CommunityConfig{"public": {MinInterval: 5 * time.Minute}},
}

func BenchmarkConfigCodecMarshal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			if _, err := snmp.MarshalConfig(benchCodecConfig); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkConfigCodecUnmarshal(b *testing.B) {
	blob, err := snmp.MarshalConfig(benchCodecConfig)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			if _, err := snmp.UnmarshalConfig(blob); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAgentHandle(b *testing.B) {
	store := snmp.NewStore()
	tree := mib.NewStandard()
	snmp.PopulateFromMIB(store, tree, "mgmt.mib")
	agent := snmp.NewAgent(store, &snmp.Config{
		Communities: map[string]*snmp.CommunityConfig{
			"public": {Access: mib.AccessReadOnly, View: []snmp.View{{Prefix: tree.Lookup("mgmt.mib").OID()}}},
		},
	})
	req := &snmp.Message{
		Version:   snmp.Version0,
		Community: "public",
		PDU: snmp.PDU{
			Type:      snmp.TagGetRequest,
			RequestID: 1,
			Bindings: []snmp.Binding{
				{OID: tree.Lookup("mgmt.mib.system.sysDescr").OID(), Value: snmp.Null()},
			},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// distinct request IDs: an identical repeat would be served from
		// the agent's retransmit cache rather than the handler path
		req.PDU.RequestID = int32(i + 1)
		resp := agent.Handle(req)
		if resp == nil || resp.PDU.ErrorStatus != snmp.NoError {
			b.Fatalf("resp %+v", resp)
		}
	}
}

// ---- E-ROLL: rollout wall-clock vs workers and injected loss ----

// benchDistribute measures a full fault-tolerant rollout to 8 live
// agents, each behind the given per-direction drop probability.
func benchDistribute(b *testing.B, workers int, loss float64) {
	m, err := netsim.Model(netsim.Params{Domains: 4, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var targets []cfggen.Target
	i := 0
	for id := range cfggen.Generate(m) {
		store := snmp.NewStore()
		snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
		agent := snmp.NewAgent(store, &snmp.Config{
			Communities:    map[string]*snmp.CommunityConfig{},
			AdminCommunity: "adm",
		})
		if loss > 0 {
			inj := snmp.NewFaultInjector(int64(1 + i))
			inj.In = snmp.Faults{Drop: loss}
			inj.Out = snmp.Faults{Drop: loss}
			agent.SetFaultInjector(inj)
		}
		addr, err := agent.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer agent.Close()
		targets = append(targets, cfggen.Target{InstanceID: id, Addr: addr.String(), AdminCommunity: "adm"})
		i++
	}
	attempts := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		report, err := cfggen.DistributeContext(context.Background(), m, targets,
			cfggen.WithWorkers(workers),
			cfggen.WithRetries(12),
			cfggen.WithBackoff(time.Millisecond, 10*time.Millisecond),
			cfggen.WithAttemptTimeout(50*time.Millisecond),
		)
		if err != nil || !report.OK() {
			b.Fatalf("rollout: %v %s", err, report.Summary())
		}
		attempts += report.Attempts
	}
	b.ReportMetric(float64(attempts)/float64(b.N*len(targets)), "attempts/target")
}

func BenchmarkDistributeW1Loss1(b *testing.B)  { benchDistribute(b, 1, 0.01) }
func BenchmarkDistributeW8Loss1(b *testing.B)  { benchDistribute(b, 8, 0.01) }
func BenchmarkDistributeW1Loss5(b *testing.B)  { benchDistribute(b, 1, 0.05) }
func BenchmarkDistributeW8Loss5(b *testing.B)  { benchDistribute(b, 8, 0.05) }
func BenchmarkDistributeW1Loss20(b *testing.B) { benchDistribute(b, 1, 0.20) }
func BenchmarkDistributeW8Loss20(b *testing.B) { benchDistribute(b, 8, 0.20) }

// ---- model building (the reduction to Figure 4.9 relations) ----

func BenchmarkBuildModel(b *testing.B) {
	spec, err := netsim.Build(netsim.Params{Domains: 200, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := consistency.BuildModel(spec)
		if len(m.Refs) == 0 {
			b.Fatal("no refs")
		}
	}
}

// ---- star targets: the quadratic worst case, kept small ----

func BenchmarkCheckStarTargets(b *testing.B) {
	m, err := netsim.Model(netsim.Params{Domains: 50, SystemsPerDomain: 2, StarTargets: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(m.Refs)), "refs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := consistency.Check(m); !rep.Consistent() {
			b.Fatal("unexpected inconsistency")
		}
	}
}

// ---- T-GEN-DIST: central vs distributed installation (section 5) ----
// The loss-0 rows of the E-ROLL sweep above; kept under their original
// names so existing experiment tables keep regenerating.

func BenchmarkDistributeSerial(b *testing.B)    { benchDistribute(b, 1, 0) }
func BenchmarkDistributeParallel8(b *testing.B) { benchDistribute(b, 8, 0) }

// ---- E-SIM: virtual-time simulation throughput ----

func BenchmarkSimulate24h(b *testing.B) {
	m, err := netsim.Model(netsim.Params{Domains: 20, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var issued int64
	for i := 0; i < b.N; i++ {
		res, err := simrun.Run(m, simrun.Options{Duration: 24 * time.Hour, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("violations:\n%s", res)
		}
		issued = res.Issued
	}
	b.ReportMetric(float64(issued), "queries/day")
}

// ---- E-MEGA: mega-fleet agent throughput ----

// BenchmarkMemAgentRoundTrip times one request/response over the
// in-memory transport (client marshal → fault injector → agent handle →
// response marshal → unmarshal): the per-datagram unit cost every
// mega-fleet number is a multiple of.
func BenchmarkMemAgentRoundTrip(b *testing.B) {
	n, err := snmp.NewMemNet("bench-rt", 1)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	store := snmp.NewStore()
	tree := mib.NewStandard()
	snmp.PopulateFromMIB(store, tree, "mgmt.mib")
	agent := snmp.NewAgent(store, &snmp.Config{
		AdminCommunity: "admin",
		Communities: map[string]*snmp.CommunityConfig{
			"public": {Access: mib.AccessReadOnly, View: []snmp.View{{Prefix: tree.Lookup("mgmt.mib").OID()}}},
		},
	})
	if _, err := n.AddHost("h1", agent); err != nil {
		b.Fatal(err)
	}
	c, err := snmp.Dial(n.Addr("h1"), "public")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(time.Second)
	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	// Batch 100 round-trips per op: a single ~20µs round-trip is
	// scheduler-noise-dominated at bench-guard's short sampling, the
	// batch is not.
	const batch = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			if _, err := c.Get(oid); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N*batch)*1e9, "ns/roundtrip")
}

// BenchmarkMegaFleetInstall measures fleet install throughput: a full
// unstaged rollout (dial, prepared install, acknowledgment) over 512
// in-memory agents with 16 workers, reported as installs per second.
func BenchmarkMegaFleetInstall(b *testing.B) {
	params, err := netsim.ScenarioParams(netsim.ScenarioCampus, 512, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := netsim.Model(params)
	if err != nil {
		b.Fatal(err)
	}
	targets := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fleet, err := megafleet.New(m, fmt.Sprintf("bench-fleet-%d", i), "admin", 1)
		if err != nil {
			b.Fatal(err)
		}
		targets = len(fleet.Targets)
		b.StartTimer()
		rep, err := cfggen.DistributeContext(context.Background(), m, fleet.Targets,
			cfggen.WithWorkers(16), cfggen.WithMetrics(obs.Disabled))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Installed != targets {
			b.Fatalf("incomplete rollout: %s", rep.Summary())
		}
		b.StopTimer()
		fleet.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*targets)/b.Elapsed().Seconds(), "installs/s")
}

// BenchmarkMegaFleetInstall25k is the fleet-side §1-scale benchmark: a
// full unstaged rollout over 25,000 copy-on-write in-memory agents with
// 64 workers. Fleet construction (one shared base store, 25k forks) is
// excluded; the timed region is dial → prepared install → acknowledge
// across the whole fleet. Guarded at the GUARDED_SCALE_BENCH tier.
func BenchmarkMegaFleetInstall25k(b *testing.B) {
	params, err := netsim.ScenarioParams(netsim.ScenarioCampus, 25000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := netsim.Model(params)
	if err != nil {
		b.Fatal(err)
	}
	targets := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fleet, err := megafleet.New(m, fmt.Sprintf("bench-fleet25k-%d", i), "admin", 1)
		if err != nil {
			b.Fatal(err)
		}
		targets = len(fleet.Targets)
		b.StartTimer()
		// Generous attempt budget: on a loaded single-core runner a GC
		// pause over the 2GB rollout can starve an agent past the default
		// 500ms client timeout; the benchmark measures throughput, and a
		// handful of retransmits must not fail the run.
		rep, err := cfggen.DistributeContext(context.Background(), m, fleet.Targets,
			cfggen.WithWorkers(64), cfggen.WithMetrics(obs.Disabled),
			cfggen.WithRetries(8), cfggen.WithAttemptTimeout(2*time.Second),
			cfggen.WithBackoff(5*time.Millisecond, 50*time.Millisecond))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Installed != targets {
			b.Fatalf("incomplete rollout: %s", rep.Summary())
		}
		b.StopTimer()
		fleet.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N*targets)/b.Elapsed().Seconds(), "installs/s")
}
