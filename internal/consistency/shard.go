package consistency

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nmsl/internal/logic"
	"nmsl/internal/obs"
)

// Parallel sharded checking. The paper's scale goals (section 1: 10,000
// domains, 100k-1M hosts) make the consistency check the dominant cost
// on large specifications. Every reference is verified independently —
// the check reads the model but never writes it — so the reference
// relation partitions cleanly: the refs are split into contiguous
// shards whose boundaries are aligned to target-instance runs (the
// references against one target share permission-index lookups), and
// CheckContext checks the shards over obs.Pool. Shard results are merged
// in shard order, which by construction reproduces the serial scan's
// violation order byte for byte. Checker.Check and CheckDelta run the
// same shard loop in order on the caller's goroutine (Checker.serial),
// without the heap-allocated closure a pool needs.

// Engine selects which evaluator CheckContext runs.
type Engine int

const (
	// EngineIndexed is the Go-side indexed checker (the fast path that
	// scales to the paper's 10,000-domain goal).
	EngineIndexed Engine = iota
	// EngineLogic proves each reference through the CLP(R)-style logic
	// engine (the paper's reference semantics; slower but independent).
	// Workers share the compiled fact/rule base — with the containment
	// and MIB closures materialized as fact tables — each with its own
	// solver.
	EngineLogic
	// EngineLogicRecursive is EngineLogic over the original recursive
	// transitivity rules (no materialized closures). It exists as the
	// parity oracle for the materialization; expect it to be much slower
	// on deep containment hierarchies.
	EngineLogicRecursive
)

// Options configure CheckContext. The zero value runs the indexed
// engine over a worker per CPU.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Engine selects the evaluator.
	Engine Engine
	// OnViolation, when non-nil, is invoked for every violation as it
	// is found, before the Report is assembled. Invocations are
	// serialized, but their order across shards is scheduling-dependent;
	// only the returned Report's ordering is deterministic.
	OnViolation func(Violation)
	// FailFast stops scheduling further work once any violation has
	// been recorded. The Report then holds at least one violation but
	// is partial, and RefsChecked reflects the truncated scan.
	FailFast bool
	// DisableIndex forces full permission scans in the indexed engine
	// (the DESIGN.md ablation).
	DisableIndex bool
	// Cache, when non-nil, memoizes per-reference verdicts across runs
	// keyed by dependency fingerprints (indexed engine only; the logic
	// engines ignore it). Safe to share across concurrent checks.
	Cache *ResultCache
	// Metrics selects where the run's observability counters land: nil
	// records into obs.Default, obs.Disabled turns instrumentation off
	// (including its clock reads). The run's own numbers are embedded
	// in Report.Metrics either way, unless disabled.
	Metrics *obs.Registry
}

// engineName names the engine for span labels.
func engineName(e Engine) string {
	switch e {
	case EngineLogic:
		return "logic"
	case EngineLogicRecursive:
		return "logic-recursive"
	}
	return "indexed"
}

// shardsPerWorker oversubscribes shards so uneven shard costs (star
// targets, restriction-heavy domains) still balance across the pool.
const shardsPerWorker = 4

// cancelStride is how many references a worker checks between context
// polls.
const cancelStride = 32

// shardRefs partitions the ref index space [0, len(refs)) into at most
// nshards contiguous ranges, appended to dst. Boundaries are advanced to
// the end of the current target-instance run, so all references against
// one target stay in one shard (its permission neighborhood is checked
// together).
func shardRefs(dst [][2]int, refs []Ref, nshards int) [][2]int {
	n := len(refs)
	if n == 0 {
		return dst
	}
	if nshards < 1 {
		nshards = 1
	}
	if nshards > n {
		nshards = n
	}
	shards := slices.Grow(dst, nshards)
	start := 0
	for s := 1; s <= nshards && start < n; s++ {
		end := s * n / nshards
		if end <= start {
			continue
		}
		for end < n && refs[end].Target == refs[end-1].Target {
			end++
		}
		shards = append(shards, [2]int{start, end})
		start = end
	}
	return shards
}

// Metric names recorded by CheckContext. Durations are nanoseconds.
// Shard-granularity instrumentation keeps the per-reference hot loop
// free of clock reads and atomics; the observability tax is a handful
// of operations per shard (see the E-OBS row of EXPERIMENTS.md).
const (
	MetricCheckRuns          = "nmsl_check_runs_total"
	MetricCheckRefs          = "nmsl_check_refs_total"
	MetricCheckViolations    = "nmsl_check_violations_total"
	MetricCheckShards        = "nmsl_check_shards_total"
	MetricCheckWorkers       = "nmsl_check_workers"
	MetricCheckDuration      = "nmsl_check_duration_ns"
	MetricCheckShardDuration = "nmsl_check_shard_duration_ns"
	MetricCheckWorkerBusy    = "nmsl_check_worker_busy_ns"
)

// refChecker evaluates one reference, appending its violations in rule
// order. A worker's refChecker is used by that worker alone, over a
// read-only Model.
type refChecker func(ref *Ref, out *[]Violation)

// run is one check's shared state. Its shard loop (shard) and tail
// (tail) are the only code that walks Model.Refs for a verdict; the
// entry points differ only in options and in the per-reference step
// they hand it. The context, the Report and the step are arguments, not
// fields, so that the serial path's run and Checker stay on the stack
// (escape analysis is field-insensitive).
type run struct {
	m *Model
	// opts supplies OnViolation and FailFast; the engine, cache and
	// index options are already bound into the step.
	opts Options
	// chk appends the proxy tail; nil under the logic engines.
	chk *Checker
	// halt stops scheduling: set by FailFast.
	halt atomic.Bool
	// mon gates every clock read; the instruments are nil without it.
	mon                  bool
	shardDur, workerBusy *obs.Histogram
	shardsDone           *obs.Counter
}

// worker is one pool slot's own state: its step, its staging buffer and
// its shard-level observations. The observations merge into the run's
// instruments once the pool has returned, so the shard loop shares no
// counter line with the other workers.
type worker struct {
	step refChecker
	// done flushes what step accumulated; nil if nothing does.
	done func()
	// stage is the worker's violation staging buffer, reused across its
	// shards: a clean shard retains nothing, and a violating shard pays
	// one exact-size copy.
	stage []Violation
	// emitMu serializes OnViolation across a parallel pool's workers;
	// nil at a pool of one, where nothing can overlap.
	emitMu *sync.Mutex
	dur    *obs.Histogram
	busy   time.Duration
	shards int64
}

func (r *run) merge(w *worker) {
	if w.done != nil {
		w.done()
	}
	if r.mon {
		r.shardDur.Merge(w.dur)
		r.shardsDone.Add(w.shards)
		r.workerBusy.Observe(int64(w.busy))
	}
}

// emit streams violations to the caller as found, under mu if set.
func (r *run) emit(mu *sync.Mutex, vs []Violation) {
	if r.opts.OnViolation == nil || len(vs) == 0 {
		return
	}
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	for _, v := range vs {
		r.opts.OnViolation(v)
	}
}

// shard checks the references [lo, hi) with step, appending violations
// to out, and returns how many it checked. It polls for a halt or a
// cancelled ctx every cancelStride references. The step is an argument
// rather than read from w because escape analysis is field-insensitive:
// w's lock escapes, and a step inside w would escape with it.
func (r *run) shard(ctx context.Context, step refChecker, lo, hi int, out *[]Violation, w *worker) int {
	var t0 time.Time
	if r.mon {
		t0 = time.Now()
	}
	sp := obs.StartSpan("check.shard")
	refs := r.m.Refs[lo:hi]
	// Only streaming and FailFast look at each reference's verdict.
	watch := r.opts.OnViolation != nil || r.opts.FailFast
	n := 0
	for n < len(refs) && !r.halt.Load() && ctx.Err() == nil {
		for end := min(n+cancelStride, len(refs)); n < end; n++ {
			before := len(*out)
			step(&refs[n], out)
			if watch && len(*out) > before {
				r.emit(w.emitMu, (*out)[before:])
				if r.opts.FailFast {
					r.halt.Store(true)
				}
			}
		}
	}
	if r.mon {
		d := time.Since(t0)
		w.busy += d
		w.dur.Observe(int64(d))
		w.shards++
	}
	if sp.Active() {
		sp.Label("refs", strconv.Itoa(n))
	}
	sp.End()
	return n
}

// check runs the shards over obs.Pool with pool workers, each with its
// own step from newStep. A pool of one checks the shards in order on
// the caller's goroutine, appending straight into rep. A larger pool
// stages each shard's violations and merges them in shard order once
// the pool has drained: contiguous shards concatenated in order are
// exactly the serial scan order. A worker's panic halts the run and
// returns as an *obs.PanicError.
func (r *run) check(ctx context.Context, rep *Report, pool int, shards [][2]int, newStep func() (refChecker, func())) error {
	ws := make([]worker, max(pool, 1))
	var emitMu *sync.Mutex
	var results [][]Violation
	var checked []int
	if pool > 1 {
		emitMu = new(sync.Mutex)
		results = make([][]Violation, len(shards))
		checked = make([]int, len(shards))
	}
	for i := range ws {
		ws[i].emitMu = emitMu
		if r.mon {
			ws[i].dur = obs.NewHistogram()
		}
	}
	err := obs.Pool("consistency check", len(shards), pool, func(wi, si int) {
		w, sh := &ws[wi], shards[si]
		if w.step == nil {
			// Built on the worker's own goroutine, so that the step's
			// scratch, written on every reference, comes from that
			// goroutine's allocation cache and shares no cache line with
			// another worker's.
			w.step, w.done = newStep()
		}
		if results == nil {
			rep.RefsChecked += r.shard(ctx, w.step, sh[0], sh[1], &rep.Violations, w)
			return
		}
		w.stage = w.stage[:0]
		checked[si] = r.shard(ctx, w.step, sh[0], sh[1], &w.stage, w)
		if len(w.stage) > 0 {
			results[si] = slices.Clone(w.stage)
		}
	})
	for i := range ws {
		r.merge(&ws[i])
	}
	for si, vs := range results {
		rep.Violations = append(rep.Violations, vs...)
		rep.RefsChecked += checked[si]
	}
	return err
}

// tail appends the serial, cheap end of every check — proxy
// relationships (indexed engine only) and unresolved targets — unless
// the run was cancelled or stopped by FailFast.
func (r *run) tail(ctx context.Context, rep *Report) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.opts.FailFast && len(rep.Violations) > 0 {
		return nil
	}
	before := len(rep.Violations)
	if r.chk != nil {
		r.chk.checkProxies(&rep.Violations)
	}
	for i := range r.m.Unresolved {
		rep.Violations = append(rep.Violations, unresolvedViolation(&r.m.Unresolved[i]))
	}
	return obs.Guard("consistency check", func() { r.emit(nil, rep.Violations[before:]) })
}

// CheckContext runs the consistency check over a bounded worker pool,
// honoring ctx for cancellation and deadline. A completed run returns a
// Report byte-identical to Check (or, under a logic engine, to the same
// engine at one worker) regardless of worker count. When ctx is
// cancelled mid-check the partial Report accumulated so far is returned
// together with ctx.Err(). A panic in a worker, such as one raised by
// OnViolation, halts the run and is returned as an error carrying the
// panic value and the worker's stack, with the partial Report.
func CheckContext(ctx context.Context, m *Model, opts Options) (*Report, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &run{m: m, opts: opts}
	rep := &Report{Model: m}

	// Observability. Run-scoped metrics accumulate in a private
	// registry that is merged into the shared one (and snapshotted into
	// the Report) at the end, so overlapping checks never bleed into
	// each other's embedded numbers. When disabled, r.mon gates every
	// clock read.
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default
	}
	r.mon = reg.Enabled()
	var runReg *obs.Registry
	var start time.Time
	// The label structs are only built when a sink is installed: on the
	// disabled path StartSpan with no varargs is a true no-op (no slice,
	// no allocation — guarded by TestStartSpanDisabledZeroAlloc).
	var sp obs.Span
	if obs.TracingEnabled() {
		sp = obs.StartSpan("check",
			obs.Label{Key: "engine", Value: engineName(opts.Engine)},
			obs.Label{Key: "workers", Value: strconv.Itoa(workers)})
	}
	var cs0 CacheStats
	if r.mon {
		start = time.Now()
		runReg = obs.NewRegistry()
		r.shardDur = runReg.Histogram(MetricCheckShardDuration)
		r.workerBusy = runReg.Histogram(MetricCheckWorkerBusy)
		r.shardsDone = runReg.Counter(MetricCheckShards)
		if opts.Cache != nil {
			cs0 = opts.Cache.Stats()
		}
	}
	defer func() {
		if !r.mon {
			sp.End()
			return
		}
		if opts.Cache != nil {
			cs1 := opts.Cache.Stats()
			runReg.Counter(MetricCheckCacheHits).Add(cs1.Hits - cs0.Hits)
			runReg.Counter(MetricCheckCacheMisses).Add(cs1.Misses - cs0.Misses)
			runReg.Counter(MetricCheckCacheInvalidations).Add(cs1.Invalidations - cs0.Invalidations)
		}
		runReg.Counter(MetricCheckRuns).Inc()
		runReg.Counter(MetricCheckRefs).Add(int64(rep.RefsChecked))
		runReg.Counter(MetricCheckViolations).Add(int64(len(rep.Violations)))
		runReg.Gauge(MetricCheckWorkers).Set(int64(workers))
		runReg.Histogram(MetricCheckDuration).Observe(int64(time.Since(start)))
		reg.Merge(runReg)
		rep.Metrics = runReg.Snapshot()
		if sp.Active() {
			sp.Label("refs", strconv.Itoa(rep.RefsChecked))
			sp.Label("violations", strconv.Itoa(len(rep.Violations)))
		}
		sp.End()
	}()

	// Per-engine worker construction. The indexed Checker is built once
	// and shared (read-only after construction); the logic engine
	// shares the fact/rule base and gives each worker a private solver.
	var newStep func() (refChecker, func())
	switch opts.Engine {
	case EngineLogic, EngineLogicRecursive:
		var db *logic.DB
		if opts.Engine == EngineLogic {
			db = BuildDB(m)
		} else {
			db = BuildDBRecursive(m)
		}
		newStep = func() (refChecker, func()) {
			s := logic.NewSolver(db)
			return func(ref *Ref, out *[]Violation) { logicCheckRef(m, s, ref, out) }, func() {}
		}
	default:
		chk := NewChecker(m)
		chk.DisableIndex = opts.DisableIndex
		chk.Cache = opts.Cache
		r.chk = chk
		newStep = func() (refChecker, func()) {
			sc := &scratch{}
			return func(ref *Ref, out *[]Violation) { chk.checkRefWith(ref, out, sc) },
				func() { chk.flush(sc) }
		}
	}

	// Shards are cut from the requested worker count (so shard geometry —
	// and with it the merged report — is a pure function of the options),
	// but the pool itself never exceeds GOMAXPROCS: the check is CPU
	// bound, and goroutines beyond the core count only add scheduler
	// churn and cross-worker cache traffic.
	shards := shardRefs(nil, m.Refs, workers*shardsPerWorker)
	err := r.check(ctx, rep, min(workers, runtime.GOMAXPROCS(0), len(shards)), shards, newStep)
	if err == nil {
		err = r.tail(ctx, rep)
	}
	return rep, err
}
