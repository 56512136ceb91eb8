package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nmsl"
	"nmsl/internal/ast"
	"nmsl/internal/changespec"
	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/lexer"
	"nmsl/internal/megafleet"
	"nmsl/internal/parser"
	"nmsl/internal/reconcile"
	"nmsl/internal/sema"
	"nmsl/internal/snmp"
	"nmsl/internal/token"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	conc     int
	outDir   string
}

// sizes fixes how big each workload's input is, and caps the operations
// of a run (0 = as many as fit in the run's seconds).
type sizes struct {
	pipelineDomains, pipelineBad, pipelineOps int
	editDomains, editBad, editOps             int
	starDomains, starBad, starOps             int
	lossyAgents, lossyOps                     int
	// probeCalls is how often each snmp micro-probe calls its function.
	probeCalls int
	setupReps  int
}

var scales = map[string]sizes{
	"full": {
		pipelineDomains: 10000, pipelineBad: 100,
		editDomains: 1000, editBad: 10,
		starDomains: 500, starBad: 10,
		lossyAgents: 2000,
		probeCalls:  10000, setupReps: 9,
	},
	"smoke": {
		pipelineDomains: 100, pipelineBad: 1, pipelineOps: 1,
		editDomains: 100, editBad: 2, editOps: 20,
		starDomains: 50, starBad: 1, starOps: 5,
		lossyAgents: 200, lossyOps: 1,
		probeCalls: 200, setupReps: 2,
	},
}

// workload is one of the benchmark's four input sets. The same op runs
// untraced, through the nmsl facade, and traced, layer by layer: the
// run's helpers below choose the path.
type workload interface {
	// setup builds everything the operations need from the run's seed.
	// It is called several times to time it; each call starts afresh.
	setup(r *run) error
	// op runs and verifies operation i.
	op(r *run, i int) error
	// maxOps caps the operations of one run; 0 means no cap.
	maxOps(r *run) int
}

// sample is one operation's cost, summed over its timed sections.
type sample struct{ wall, cpu time.Duration }

// run is the state of one workload run.
type run struct {
	cfg config
	sz  sizes
	rng *rand.Rand
	ctx context.Context
	tr  *tracer // nil on the untraced pass

	attempted, failed int
	failures          []string

	cur     sample
	samples []sample
	// obs holds counts and derived values observed per operation, by
	// per-layer metric name; the reported value is their median.
	obs map[string][]float64
	// lastCheck is the duration of the latest traced warm check.
	lastCheck time.Duration
	// heapPeak is the largest HeapInuse any memStats call of the traced
	// pass saw.
	heapPeak uint64
	// liveHeaps holds what sampleLiveHeap measured.
	liveHeaps []float64
	// record, when set, collects input hashes instead of guarding them.
	record map[string]string
}

func newRun(cfg config) (*run, error) {
	sz, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown -scale %q (have full, smoke)", cfg.scale)
	}
	if n := runtime.NumCPU(); cfg.conc > n {
		cfg.conc = n
	}
	if cfg.conc < 1 {
		cfg.conc = 1
	}
	r := &run{cfg: cfg, sz: sz, ctx: context.Background(), obs: map[string][]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r, nil
}

// reseed restarts the run's random stream, so that every set-up of one
// run builds the same inputs.
func (r *run) reseed() { r.rng = rand.New(rand.NewSource(r.cfg.seed)) }

// verify counts one checked output of the program under test.
func (r *run) verify(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn as part of the current operation's measured time.
func (r *run) timed(fn func()) time.Duration {
	c0 := cpuTime()
	d := r.do(timedSpan, fn)
	r.cur.wall += d
	r.cur.cpu += cpuTime() - c0
	return d
}

func (r *run) endOp() {
	r.samples = append(r.samples, r.cur)
	r.cur = sample{}
}

// do runs fn, inside a span on the traced pass, and returns how long it
// took.
func (r *run) do(name string, fn func()) time.Duration {
	if r.tr == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	return r.tr.do(name, fn)
}

// probe runs fn on the traced pass only.
func (r *run) probe(name string, fn func()) time.Duration {
	if r.tr == nil {
		return 0
	}
	return r.tr.probe(name, fn)
}

// memStats reads the runtime's memory statistics on the traced pass,
// after a full collection if gc is set, as a span of the harness's own:
// the read stops the world, and next to a sub-millisecond operation
// that is not nothing.
func (r *run) memStats(gc bool) (ms runtime.MemStats) {
	r.probe("bench.memstats", func() {
		if gc {
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
	})
	if ms.HeapInuse > r.heapPeak {
		r.heapPeak = ms.HeapInuse
	}
	return ms
}

// heapSamples is how many times a run measures its live heap.
const heapSamples = 3

// sampleLiveHeap collects garbage and notes how much heap is still
// live. Operations call it where they hold the most; it acts in the
// run's first heapSamples operations only. A full collection costs as
// much as a short operation, and what a resident workload holds grows
// with the history of its run (edit-1k's verdict cache), which differs
// from seed to seed. It collects twice: what a sync.Pool held survives
// the first collection in the pool's victim cache, and how much that is
// depends on when the last cycle ran.
func (r *run) sampleLiveHeap() {
	if len(r.liveHeaps) >= heapSamples {
		return
	}
	r.do("bench.live_heap", func() {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.liveHeaps = append(r.liveHeaps, float64(ms.HeapAlloc))
	})
}

func (r *run) observe(metric string, v float64) { r.obs[metric] = append(r.obs[metric], v) }

// compiled is one compiled specification. facade is set on the untraced
// pass, where everything goes through the public nmsl package.
type compiled struct {
	facade *nmsl.Specification
	ast    *ast.Spec
	model  *consistency.Model
}

// compile takes specification text to a model: through nmsl.Compiler
// untraced, and pass by pass when traced.
func (r *run) compile(name string, text []byte) (*compiled, error) {
	src := string(text)
	if r.tr == nil {
		c := nmsl.NewCompiler()
		if err := c.CompileSource(name, src); err != nil {
			return nil, err
		}
		spec, err := c.Finish()
		if err != nil {
			return nil, err
		}
		return &compiled{facade: spec, ast: spec.AST(), model: spec.Model()}, nil
	}

	c := &compiled{}
	lines := float64(strings.Count(src, "\n"))
	tokens := 0
	scan := r.tr.probe("lexer.scan", func() {
		for l := lexer.New(src); l.Next().Kind != token.EOF; {
			tokens++
		}
	})
	r.observe("lexer.tokens", float64(tokens))
	r.observe("lexer.ns_per_token", float64(scan)/float64(tokens))

	var f *parser.File
	var err error
	parse := r.tr.do("parser.parse", func() { f, err = parser.Parse(name, src) })
	if err != nil {
		return nil, err
	}
	r.observe("parser.decls", float64(len(f.Decls)))
	r.observe("parser.ns_per_line", float64(parse)/lines)

	var a *sema.Analyzer
	analyze := r.tr.do("sema.analyze", func() {
		a = sema.NewAnalyzer()
		consistency.RegisterOutput(a.Tables())
		configgen.RegisterOutput(a.Tables())
		a.AnalyzeFile(f)
	})
	finish := r.tr.do("sema.finish", func() { c.ast, err = a.Finish() })
	if err != nil {
		return nil, err
	}
	r.observe("sema.ns_per_line", float64(analyze+finish)/lines)

	r.tr.do("consistency.model_build", func() { c.model = consistency.BuildModel(c.ast) })
	r.observe("consistency.instances", float64(len(c.model.Instances)))
	r.observe("consistency.refs", float64(len(c.model.Refs)))
	r.observe("consistency.perms", float64(len(c.model.Perms)))
	return c, nil
}

// The two spans of a full check: the first check of a model also builds
// its closures and columnar tables, later ones do not.
const (
	spanCheckCold = "consistency.check_cold"
	spanCheck     = "consistency.check"
)

// check runs one full check of c under one of the two spans above.
// probe marks a check only the traced pass makes.
func (r *run) check(span string, probe bool, c *compiled, cache *consistency.ResultCache) (*consistency.Report, error) {
	if r.tr == nil {
		if probe {
			return nil, nil
		}
		opts := []nmsl.CheckOption{nmsl.WithWorkers(r.cfg.conc)}
		if cache != nil {
			opts = append(opts, nmsl.WithCache(cache))
		}
		return c.facade.CheckContext(r.ctx, opts...)
	}
	var rep *consistency.Report
	var err error
	before := r.memStats(false)
	d := r.tr.run(span, probe, func() {
		rep, err = consistency.CheckContext(r.ctx, c.model, consistency.Options{Workers: r.cfg.conc, Cache: cache})
	})
	after := r.memStats(false)
	if span == spanCheck {
		r.lastCheck = d
		r.observe("consistency.check_allocs", float64(after.Mallocs-before.Mallocs))
		r.observe("consistency.check_bytes", float64(after.TotalAlloc-before.TotalAlloc))
		r.observe("consistency.ns_per_ref", float64(d)/float64(len(c.model.Refs)))
		r.observe("consistency.violations", float64(len(rep.Violations)))
	}
	return rep, err
}

// probeSerialCheck re-checks c with one worker on the traced pass, for
// the ratio of the last warm check's time to the serial time.
func (r *run) probeSerialCheck(c *compiled) {
	serial := r.probe("consistency.check_serial", func() {
		_, _ = consistency.CheckContext(r.ctx, c.model, consistency.Options{Workers: 1})
	})
	if serial > 0 {
		r.observe("consistency.check_par_ratio", float64(r.lastCheck)/float64(serial))
	}
}

// diff computes the delta between two revisions.
func (r *run) diff(old, new *compiled) *consistency.ModelDelta {
	if r.tr == nil {
		return nmsl.DiffSpecs(old.facade, new.facade)
	}
	var d *consistency.ModelDelta
	r.tr.do("sema.diff", func() { d = consistency.DeltaFromSpecs(old.ast, new.ast) })
	return d
}

// checkDelta re-checks c incrementally, the way Specification.CheckDelta
// does.
func (r *run) checkDelta(c *compiled, prev *consistency.Report, delta *consistency.ModelDelta, cache *consistency.ResultCache) *consistency.Report {
	if r.tr == nil {
		return c.facade.CheckDelta(prev, delta, cache)
	}
	var rep *consistency.Report
	before := cache.Stats()
	r.tr.do("consistency.delta", func() {
		c.model.SeedColumnsFrom(prev.Model, delta)
		chk := consistency.NewChecker(c.model)
		chk.Cache = cache
		rep = chk.CheckDelta(prev, delta)
	})
	after := cache.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	r.observe("consistency.delta_reproved_share", float64(misses)/float64(len(c.model.Refs)))
	if hits+misses > 0 {
		r.observe("consistency.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	return rep
}

// verifyChange evaluates one contract over the edit from old to new, the
// way Specification.VerifyChange does (which diffs the revisions itself).
func (r *run) verifyChange(old, new *compiled, contract *changespec.Contract) *changespec.Result {
	if r.tr == nil {
		_, results := new.facade.VerifyChange(old.facade, contract)
		return results[0]
	}
	delta := r.diff(old, new)
	var res *changespec.Result
	r.tr.do("changespec.check", func() {
		res = changespec.NewChecker(old.model, new.model).Check(delta, contract)
	})
	return res
}

// generate derives every agent's configuration and renders each one in
// the snmpd.conf format, as a generator writing files would.
func (r *run) generate(m *consistency.Model) map[string]*snmp.Config {
	var cfgs map[string]*snmp.Config
	d := r.do("configgen.generate", func() { cfgs = configgen.Generate(m) })
	r.observe("configgen.generate_ns_per_agent", float64(d)/float64(len(cfgs)))
	r.observe("configgen.configs", float64(len(cfgs)))
	var n countWriter
	r.do("configgen.write", func() {
		for _, cfg := range cfgs {
			_ = configgen.WriteSnmpdConf(&n, cfg) // countWriter cannot fail
		}
	})
	r.observe("configgen.config_bytes", float64(n))
	return cfgs
}

type countWriter int

func (w *countWriter) Write(p []byte) (int, error) { *w += countWriter(len(p)); return len(p), nil }

const adminCommunity = "bench-admin"

// buildFleet hosts one in-memory agent per generated configuration.
func (r *run) buildFleet(m *consistency.Model, netName string, seed int64) (*megafleet.Fleet, error) {
	var fl *megafleet.Fleet
	var err error
	before := r.memStats(true)
	r.do("megafleet.fleet_build", func() { fl, err = megafleet.New(m, netName, adminCommunity, seed) })
	if r.tr != nil && err == nil {
		after := r.memStats(true)
		r.observe("megafleet.bytes_per_agent", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(len(fl.Targets)))
	}
	return fl, err
}

// rollout installs the model's configurations on the fleet in stages of
// 5 %, 25 % and 100 %.
func (r *run) rollout(span string, m *consistency.Model, fl *megafleet.Fleet, workers int, opts ...configgen.RolloutOption) (*configgen.RolloutReport, time.Duration, error) {
	opts = append([]configgen.RolloutOption{
		configgen.WithWorkers(workers),
		configgen.WithStages(0.05, 0.25, 1),
	}, opts...)
	var roll *configgen.RolloutReport
	var err error
	d := r.do(span, func() { roll, err = configgen.DistributeContext(r.ctx, m, fl.Targets, opts...) })
	return roll, d, err
}

func (r *run) observeRollout(roll *configgen.RolloutReport, d time.Duration) {
	n := len(roll.Results)
	r.observe("configgen.waves", float64(len(roll.Waves)))
	r.observe("configgen.rollout_attempts", float64(roll.Attempts))
	r.observe("configgen.rollout_retries", float64(roll.Attempts-roll.Installed))
	r.observe("configgen.rollout_failed", float64(n-roll.Installed))
	r.observe("configgen.attempts_per_install", float64(roll.Attempts)/float64(n))
	r.observe("configgen.installs_per_s", float64(n)/d.Seconds())
}

// reconcileUntilInSync sweeps the fleet until one sweep leaves every
// target in sync (found so, or repaired and acknowledged), at most
// maxSweeps times.
func (r *run) reconcileUntilInSync(m *consistency.Model, fl *megafleet.Fleet, maxSweeps int, opts ...reconcile.Option) error {
	var rec *reconcile.Reconciler
	var err error
	r.do("reconcile.new", func() { rec, err = reconcile.New(m, fl.Targets, opts...) })
	if err != nil {
		return err
	}
	sweeps, healed, checkFailed, open := 0, 0, 0, 0
	t0 := time.Now()
	for inSync := false; !inSync && sweeps < maxSweeps; sweeps++ {
		var sw *reconcile.Sweep
		r.do("reconcile.sweep", func() { sw, err = rec.RunOnce(r.ctx) })
		if err != nil {
			return err
		}
		healed += sw.Healed
		checkFailed += sw.CheckFailures
		open = sw.Open
		inSync = sw.InSync+sw.Healed == len(fl.Targets)
	}
	r.observe("reconcile.sweeps", float64(sweeps))
	r.observe("reconcile.ns_per_target", float64(time.Since(t0))/float64(sweeps*len(fl.Targets)))
	r.observe("reconcile.healed", float64(healed))
	r.observe("reconcile.check_failed", float64(checkFailed))
	r.observe("reconcile.breakers_open", float64(open))
	return nil
}

// wantConfig is the configuration every netsim agent must end up
// running, written by hand from the netsim template: each agent exports
// mgmt.mib.system (1.3.6.1.2.1.1) to "public", ReadOnly, at most once
// every 5 minutes.
const wantConfig = "# generated by nmslgen (BartsSnmpd format)\n" +
	"admin " + adminCommunity + "\n" +
	"community public ReadOnly 300 1.3.6.1.2.1.1:ReadOnly\n"

// verifyFleet holds every agent's live configuration against wantConfig
// and its load count against loads (1 unless the benchmark drifted the
// agent itself), then records what the agents and links counted.
func (r *run) verifyFleet(fl *megafleet.Fleet, loads func(id string) int64) {
	r.do("bench.verify_fleet", func() {
		var b strings.Builder
		var requests, retransmits, configLoads, dropped, duplicated int64
		duplicateLoads := 0
		for _, tgt := range fl.Targets {
			a := fl.Agents[tgt.InstanceID]
			b.Reset()
			_ = configgen.WriteSnmpdConf(&b, a.ConfigSnapshot()) // strings.Builder cannot fail
			st := a.Stats()
			want := loads(tgt.InstanceID)
			r.verify(b.String() == wantConfig && st.ConfigLoads == want,
				"%s: %d config loads (want %d), running %q", tgt.InstanceID, st.ConfigLoads, want, b.String())
			if st.ConfigLoads > want {
				duplicateLoads++
			}
			requests += st.Requests
			retransmits += st.Retransmits
			configLoads += st.ConfigLoads
			fs := fl.Net.Injector(tgt.InstanceID).Stats()
			dropped += fs.Dropped
			duplicated += fs.Duplicated
		}
		r.observe("snmp.agent_requests", float64(requests))
		r.observe("snmp.agent_retransmit_hits", float64(retransmits))
		r.observe("snmp.agent_config_loads", float64(configLoads))
		r.observe("snmp.duplicate_loads", float64(duplicateLoads))
		r.observe("snmp.faults_dropped", float64(dropped))
		r.observe("snmp.faults_duplicated", float64(duplicated))
	})
}

// probeSNMP times the per-datagram path one call at a time: encode,
// decode, the agent's handler for a config fetch and for a config
// install, and one fetch through a client over mem://.
func (r *run) probeSNMP() error {
	if r.tr == nil {
		return nil
	}
	n := r.sz.probeCalls
	cfg := &snmp.Config{
		AdminCommunity: adminCommunity,
		Communities: map[string]*snmp.CommunityConfig{"public": {
			MinInterval: 5 * time.Minute,
		}},
	}
	blob, err := snmp.MarshalConfig(cfg)
	if err != nil {
		return err
	}
	request := func(typ byte, id int, value snmp.Value) *snmp.Message {
		return &snmp.Message{Version: snmp.Version0, Community: adminCommunity, PDU: snmp.PDU{
			Type: typ, RequestID: int32(id),
			Bindings: []snmp.Binding{{OID: snmp.ConfigOID, Value: value}},
		}}
	}
	install := request(snmp.TagSetRequest, 1, snmp.Opaque(blob))
	wire, err := install.Marshal()
	if err != nil {
		return err
	}
	r.observe("snmp.install_pdu_bytes", float64(len(wire)))
	per := func(metric string, d time.Duration) { r.observe(metric, float64(d)/float64(n)) }

	per("snmp.ber_marshal_ns", r.tr.probe("snmp.ber_marshal", func() {
		for i := 0; i < n; i++ {
			_, _ = install.Marshal()
		}
	}))
	per("snmp.ber_unmarshal_ns", r.tr.probe("snmp.ber_unmarshal", func() {
		for i := 0; i < n; i++ {
			_, _ = snmp.Unmarshal(wire)
		}
	}))
	agent := snmp.NewAgent(snmp.NewStore(), cfg)
	per("snmp.agent_handle_get_ns", r.tr.probe("snmp.agent_handle_get", func() {
		for i := 0; i < n; i++ {
			agent.Handle(request(snmp.TagGetRequest, i, snmp.Null()))
		}
	}))
	per("snmp.agent_apply_ns", r.tr.probe("snmp.agent_apply", func() {
		for i := 0; i < n; i++ {
			agent.Handle(request(snmp.TagSetRequest, i, snmp.Opaque(blob)))
		}
	}))
	if got := agent.Stats().ConfigLoads; got != int64(n) {
		return fmt.Errorf("snmp probe: %d installs through Agent.Handle loaded %d configurations", n, got)
	}

	net, err := snmp.NewMemNet("bench-probe", r.cfg.seed)
	if err != nil {
		return err
	}
	defer net.Close()
	if _, err := net.AddHost("probe", agent); err != nil {
		return err
	}
	client, err := snmp.Dial(net.Addr("probe"), adminCommunity)
	if err != nil {
		return err
	}
	defer client.Close()
	per("snmp.roundtrip_ns", r.tr.probe("snmp.roundtrip", func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = client.FetchConfigContext(r.ctx)
		}
	}))
	return err
}

// median and percentile use the nearest-rank definition on a copy.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// peakRSSMB reads the process's peak resident set from the kernel.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
