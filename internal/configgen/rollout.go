// Fault-tolerant rollout: the distributed installation phase of section 5
// made robust against the network it manages. Shipping configuration to
// 100k+ elements cannot assume a lossless transport, so DistributeContext
// treats each install as a fallible distributed operation — bounded
// workers, per-target retries with jittered exponential backoff and
// per-attempt timeouts, streamed results, and a report that distinguishes
// installed, failed, skipped, canceled and rolled-back targets instead of
// collapsing them into one error.
//
// On top of the retry layer the rollout is transactional: WithJournal
// records the plan, every pre-image and every outcome into a crash-safe
// write-ahead journal (journal.go) so a killed process resumes
// idempotently with ResumeRollout and an aborted run reverts with
// Rollback; WithStages splits the targets into canary waves whose health
// gates (WithMaxFailureRate, WithGate) abort the rollout and roll the
// offending wave back to its pre-images automatically.

package configgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// Metric names recorded by DistributeContext. Durations are
// nanoseconds; MetricRolloutTargets and MetricRolloutTargetDuration
// carry a status label (installed, failed, skipped, canceled,
// rolled-back).
const (
	MetricRolloutRuns           = "nmsl_rollout_runs_total"
	MetricRolloutTargets        = "nmsl_rollout_targets_total"
	MetricRolloutAttempts       = "nmsl_rollout_attempts_total"
	MetricRolloutRetries        = "nmsl_rollout_retries_total"
	MetricRolloutBackoffSleep   = "nmsl_rollout_backoff_sleep_ns_total"
	MetricRolloutDuration       = "nmsl_rollout_duration_ns"
	MetricRolloutTargetDuration = "nmsl_rollout_target_duration_ns"
	MetricRolloutGateFails      = "nmsl_rollout_gate_failures_total"
	MetricRolloutResumed        = "nmsl_rollout_resumed_total"
)

// RolloutStatus classifies one target's outcome.
type RolloutStatus int

const (
	// StatusInstalled means the configuration was acknowledged by the
	// agent (or, on resume, the journal or the agent's live digest showed
	// it already in place).
	StatusInstalled RolloutStatus = iota
	// StatusFailed means every attempt errored.
	StatusFailed
	// StatusSkipped means no configuration was generated for the
	// target's instance, so nothing was sent.
	StatusSkipped
	// StatusCanceled means the rollout was canceled (context, fail-fast
	// or an earlier wave's failed health gate) before the target
	// succeeded.
	StatusCanceled
	// StatusRolledBack means the target had been installed but was
	// restored to its pre-image after its wave failed a health gate (or
	// by an explicit Rollback of the journal).
	StatusRolledBack
)

// String returns the lowercase status name.
func (s RolloutStatus) String() string {
	switch s {
	case StatusInstalled:
		return "installed"
	case StatusFailed:
		return "failed"
	case StatusSkipped:
		return "skipped"
	case StatusCanceled:
		return "canceled"
	case StatusRolledBack:
		return "rolled-back"
	}
	return fmt.Sprintf("RolloutStatus(%d)", int(s))
}

// parseRolloutStatus is the inverse of String, used by journal replay.
func parseRolloutStatus(s string) (RolloutStatus, error) {
	for _, st := range []RolloutStatus{StatusInstalled, StatusFailed, StatusSkipped, StatusCanceled, StatusRolledBack} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown rollout status %q", s)
}

// TargetResult reports one target's rollout outcome.
type TargetResult struct {
	Target   Target
	Status   RolloutStatus
	Attempts int
	// Err is the last error observed (nil when installed).
	Err      error
	Duration time.Duration
	// Digest identifies the configuration now on the agent as far as the
	// rollout knows: the installed config's digest, or the restored
	// pre-image's after a rollback. Empty when nothing was applied.
	Digest string
	// Resumed marks a target satisfied without an install: the journal
	// (or the agent's live digest) showed the desired configuration
	// already in place.
	Resumed bool
}

// WaveResult summarizes one canary wave as it completes — the rollout's
// partial-progress unit. A mega-fleet operator watching a 10k-target
// rollout needs to know where it stands wave by wave, not only after
// the last datagram.
type WaveResult struct {
	// Wave is the zero-based wave index; Start/End its half-open span in
	// the (pre-sort) target order.
	Wave       int
	Start, End int
	// Counts by outcome within the wave, taken after the wave's gate ran
	// (so a reverted wave shows its RolledBack count, not Installed).
	Installed, Failed, Skipped, Canceled, RolledBack int
	// Resumed counts targets satisfied without an install.
	Resumed int
	// Attempts is the total install attempts the wave consumed.
	Attempts int
	// GateErr is non-nil when the wave failed its health gate.
	GateErr error
	// Duration is the wall-clock time of the wave including its gate and
	// any rollback.
	Duration time.Duration
}

// RolloutReport aggregates a rollout.
type RolloutReport struct {
	// Results holds every target's outcome, sorted by instance ID.
	Results []TargetResult
	// Waves holds per-wave summaries in wave order (one entry even for
	// an unstaged rollout; waves canceled before starting included).
	Waves []WaveResult
	// Installed, Failed, Skipped, Canceled and RolledBack count targets
	// by status.
	Installed, Failed, Skipped, Canceled, RolledBack int
	// Attempts is the total number of install attempts across targets.
	Attempts int
	// Duration is the wall-clock time of the whole rollout.
	Duration time.Duration
	// Metrics is this rollout's observability snapshot — the
	// MetricRollout* names above — embedded so tests and callers can
	// assert on attempt, retry and latency counts without scraping an
	// endpoint. Nil when metrics are disabled (WithMetrics(obs.Disabled)).
	Metrics obs.Snapshot
}

// OK reports whether every target was installed: a reverted wave
// (rolled-back targets) is NOT success, so callers cannot mistake an
// auto-rollback for a converged rollout.
func (r *RolloutReport) OK() bool {
	return r.Failed == 0 && r.Skipped == 0 && r.Canceled == 0 && r.RolledBack == 0
}

// Summary renders a one-line account of the rollout.
func (r *RolloutReport) Summary() string {
	return fmt.Sprintf("rollout: %d/%d installed, %d failed, %d skipped, %d canceled, %d rolled-back (%d attempts in %v)",
		r.Installed, len(r.Results), r.Failed, r.Skipped, r.Canceled, r.RolledBack, r.Attempts, r.Duration.Round(time.Millisecond))
}

// GateError is returned by DistributeContext when a canary health gate
// failed: the offending wave was rolled back to its pre-images and the
// remaining waves were never attempted.
type GateError struct {
	// Wave is the zero-based index of the wave that failed its gate.
	Wave int
	// Err is what the gate observed.
	Err error
}

func (e *GateError) Error() string {
	return fmt.Sprintf("configgen: wave %d failed its health gate: %v (wave rolled back, rollout aborted)", e.Wave, e.Err)
}

// Unwrap exposes the gate's observation to errors.Is/As.
func (e *GateError) Unwrap() error { return e.Err }

// rolloutRunMetrics carries the run-scoped instruments the attempt
// loop updates; the zero value (on=false) makes every update a no-op.
type rolloutRunMetrics struct {
	on    bool
	sleep *obs.Counter
}

// rolloutOptions is the resolved option set.
type rolloutOptions struct {
	workers        int
	retries        int
	backoffBase    time.Duration
	backoffMax     time.Duration
	attemptTimeout time.Duration
	onResult       func(TargetResult)
	onWave         func(WaveResult)
	failFast       bool
	metrics        *obs.Registry
	om             rolloutRunMetrics

	// Transactional layer.
	contracts      []changeContract
	stages         []float64
	maxFailureRate float64 // negative = gate disarmed
	gate           func(context.Context, []TargetResult) error
	journalPath    string
	journalNoSync  bool
	journal        *Journal          // pre-opened on resume/rollback
	resumed        map[string]string // targetKey -> digest installed per the journal

	// Jitter source; nil selects the global generator.
	jitterMu  sync.Mutex
	jitterRng *rand.Rand

	// Dial function; nil selects the session's default (target.go).
	dial func(addr, community string) (*snmp.Client, error)
}

// RolloutOption tunes DistributeContext, mirroring the checker's
// functional options.
type RolloutOption func(*rolloutOptions)

// WithWorkers bounds concurrent installations; n <= 0 selects the
// default (8).
func WithWorkers(n int) RolloutOption {
	return func(o *rolloutOptions) { o.workers = n }
}

// WithRetries sets how many times a failed install is retried per target
// (n retries = n+1 attempts). Negative means zero.
func WithRetries(n int) RolloutOption {
	return func(o *rolloutOptions) {
		if n < 0 {
			n = 0
		}
		o.retries = n
	}
}

// WithBackoff sets the delay before the k-th retry of a target:
// base·2^k, jittered ±50%, capped at max. A zero base retries
// immediately.
func WithBackoff(base, max time.Duration) RolloutOption {
	return func(o *rolloutOptions) { o.backoffBase, o.backoffMax = base, max }
}

// WithAttemptTimeout bounds each individual install attempt's wait for
// the agent's acknowledgment; zero selects the client default (500ms).
func WithAttemptTimeout(d time.Duration) RolloutOption {
	return func(o *rolloutOptions) { o.attemptTimeout = d }
}

// WithOnResult streams each target's result as it completes (from worker
// goroutines, serialized — fn need not lock). The callback may cancel
// the rollout's context to stop early.
func WithOnResult(fn func(TargetResult)) RolloutOption {
	return func(o *rolloutOptions) { o.onResult = fn }
}

// WithOnWave streams each wave's summary as the wave completes (after
// its health gate and any rollback; serialized with onResult). Waves
// canceled before starting are reported too, so the stream always
// accounts for every target.
func WithOnWave(fn func(WaveResult)) RolloutOption {
	return func(o *rolloutOptions) { o.onWave = fn }
}

// WithFailFast cancels the remaining targets after the first failure
// (skips count as failures for this purpose; cancellations do not).
func WithFailFast() RolloutOption {
	return func(o *rolloutOptions) { o.failFast = true }
}

// WithMetrics selects where the rollout's observability counters land:
// nil (the default) records into obs.Default, obs.Disabled turns
// instrumentation off entirely. The rollout's own numbers are also
// embedded in RolloutReport.Metrics unless disabled.
func WithMetrics(reg *obs.Registry) RolloutOption {
	return func(o *rolloutOptions) { o.metrics = reg }
}

// WithJitterSeed makes the rollout's backoff jitter deterministic: every
// jitter draw comes from one source seeded with seed instead of the
// global generator, so tests can assert exact sleep accounting instead
// of ranges. Workers share the source under a lock; with one worker the
// draw sequence is fully reproducible.
func WithJitterSeed(seed int64) RolloutOption {
	return func(o *rolloutOptions) { o.jitterRng = rand.New(rand.NewSource(seed)) }
}

// WithStages splits the rollout into canary waves: each fraction is the
// cumulative share of targets installed by the end of that wave, and a
// final implicit wave covers the remainder. WithStages(0.1, 0.5) rolls
// to 10%, gates, rolls to 50%, gates, then finishes. Fractions must be
// strictly increasing in (0, 1]. After each wave the health gate runs
// (WithMaxFailureRate, WithGate); a failed gate rolls the wave back to
// its pre-images and the remaining waves are never attempted.
func WithStages(fractions ...float64) RolloutOption {
	return func(o *rolloutOptions) { o.stages = fractions }
}

// WithMaxFailureRate arms the per-wave health gate: when more than rate
// (0 <= rate < 1) of a wave's targets fail or skip, the rollout aborts,
// the wave's installed targets are rolled back to their pre-images, and
// the remaining waves are never attempted. Zero tolerates no failures.
func WithMaxFailureRate(rate float64) RolloutOption {
	return func(o *rolloutOptions) {
		if rate < 0 {
			rate = 0
		}
		o.maxFailureRate = rate
	}
}

// WithGate installs a health-gate callback run after each wave with the
// wave's results (and after the final wave). A non-nil error fails the
// gate: the wave's installed targets are rolled back to their pre-images
// and DistributeContext returns a *GateError. audit.Gate adapts the
// adherence auditor into this shape.
func WithGate(fn func(ctx context.Context, wave []TargetResult) error) RolloutOption {
	return func(o *rolloutOptions) { o.gate = fn }
}

// WithJournal records the rollout into a crash-safe write-ahead journal
// at path: the plan (targets and their config digests) up front, each
// target's pre-image before it is touched, and each outcome as it lands,
// every line fsync'd before the rollout proceeds. A rollout killed
// mid-flight restarts idempotently with ResumeRollout; an aborted one
// reverts with Rollback. The file must not already exist (an existing
// journal is evidence of an unfinished run — resume or remove it).
func WithJournal(path string) RolloutOption {
	return func(o *rolloutOptions) { o.journalPath = path }
}

// WithJournalNoSync drops the journal's per-record fsync. The journal
// still hits the OS page cache in order, so it survives the process
// being killed; only a machine crash can lose the tail. A 10k-target
// rollout writes ~30k journal records; over clean links, where no
// target waits out a timeout, one fsync each is the rollout's dominant
// cost (0.9 of a clean 2,000-target run), and mega-fleet runs trade the
// power-loss window for it deliberately. Over lossy links the timeouts
// and backoffs dominate and the fsyncs are under a tenth.
func WithJournalNoSync() RolloutOption {
	return func(o *rolloutOptions) { o.journalNoSync = true }
}

// WithDialer replaces the plain dial as the way a rollout reaches its
// targets, for every datagram: pre-image fetch, install and restore. A
// mixed fleet passes (*snmp.ClientMux).DialAny here so every
// real-network target shares one UDP socket while mem:// targets keep
// the in-memory path; tests pass fault-wrapped dialers. The function
// must be safe for concurrent use by the rollout's workers.
func WithDialer(fn func(addr, community string) (*snmp.Client, error)) RolloutOption {
	return func(o *rolloutOptions) { o.dial = fn }
}

// gated reports whether a health gate is armed.
func (o *rolloutOptions) gated() bool {
	return o.gate != nil || o.maxFailureRate >= 0
}

// capturePre reports whether pre-images must be captured before
// installing: always when journaling (resume and Rollback need them) and
// whenever a gate could demand a rollback.
func (o *rolloutOptions) capturePre() bool {
	return o.journal != nil || o.journalPath != "" || o.gated()
}

// validate rejects malformed stage fractions and failure rates.
func (o *rolloutOptions) validate() error {
	last := 0.0
	for _, f := range o.stages {
		if f <= 0 || f > 1 || f <= last {
			return fmt.Errorf("configgen: stage fractions must be strictly increasing in (0, 1], got %v", o.stages)
		}
		last = f
	}
	if o.maxFailureRate >= 1 {
		return fmt.Errorf("configgen: max failure rate must be in [0, 1), got %g", o.maxFailureRate)
	}
	return nil
}

// applyRolloutOptions resolves the defaults and the caller's options.
func applyRolloutOptions(opts []RolloutOption) (*rolloutOptions, error) {
	opt := &rolloutOptions{
		workers:        8,
		retries:        2,
		backoffBase:    50 * time.Millisecond,
		backoffMax:     2 * time.Second,
		maxFailureRate: -1,
	}
	for _, fn := range opts {
		fn(opt)
	}
	if opt.workers <= 0 {
		opt.workers = 8
	}
	return opt, opt.validate()
}

// jitterInt63n draws from the seeded source when one is installed
// (serialized — workers share it), the global generator otherwise.
func (o *rolloutOptions) jitterInt63n(n int64) int64 {
	if o.jitterRng == nil {
		return rand.Int63n(n)
	}
	o.jitterMu.Lock()
	defer o.jitterMu.Unlock()
	return o.jitterRng.Int63n(n)
}

// targetKey identifies a target within a rollout and its journal.
func targetKey(instanceID, addr string) string { return instanceID + "|" + addr }

// waveSpan is one wave's half-open [start, end) slice of the targets.
type waveSpan struct{ start, end int }

// splitWaves cuts n targets into canary waves at the cumulative
// fractions (empty fractions mean one wave of everything).
func splitWaves(n int, fracs []float64) []waveSpan {
	if n == 0 {
		return nil
	}
	var waves []waveSpan
	prev := 0
	for _, f := range fracs {
		end := int(math.Ceil(f * float64(n)))
		if end > n {
			end = n
		}
		if end <= prev {
			continue // a fraction too small to add a target at this n
		}
		waves = append(waves, waveSpan{prev, end})
		prev = end
	}
	if prev < n {
		waves = append(waves, waveSpan{prev, n})
	}
	return waves
}

// preStore holds the pre-images captured this run, for gate-triggered
// rollbacks (the journal holds them durably for explicit Rollback).
type preStore struct {
	mu sync.Mutex
	m  map[string]*snmp.Config
}

func (p *preStore) put(key string, cfg *snmp.Config) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.m[key]; !ok { // first capture is the true pre-image
		p.m[key] = cfg
	}
}

func (p *preStore) get(key string) *snmp.Config {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m[key]
}

// DistributeContext derives every agent's configuration from the model
// and installs each one at its target over a bounded worker pool,
// retrying failures with backoff. With stages or gates configured the
// rollout is transactional: waves install in order, each wave's health
// gate may abort the run and roll the wave back to its pre-images (the
// error is then a *GateError). It returns the report along with the
// context's error when the rollout was cut short; the report is complete
// either way (unfinished targets appear as canceled). A panic in a pool
// worker — an install, or the WithOnResult callback — halts the rollout
// the same way and returns as an *obs.PanicError carrying the panic value
// and stack, counted in nmsl_panics_total{site="rollout"}.
func DistributeContext(ctx context.Context, m *consistency.Model, targets []Target, opts ...RolloutOption) (*RolloutReport, error) {
	opt, err := applyRolloutOptions(opts)
	if err != nil {
		return nil, err
	}
	// Change-contract pre-gate (WithChangeContract): a plan exceeding
	// its declared blast radius is refused here, before the journal is
	// created and before any datagram leaves.
	if len(opt.contracts) > 0 {
		start := time.Now()
		if cause := evalContracts(m, opt); cause != nil {
			return contractRefusedReport(targets, cause, opt, start), cause
		}
	}
	return rolloutRun(ctx, DesiredState(m, targets), targets, opt)
}

// rolloutRun executes the wave/gate state machine over the targets'
// desired state (desired[i] is targets[i]'s). ResumeRollout enters here
// with a re-opened journal and the journal's plan as targets.
func rolloutRun(ctx context.Context, desired []Desired, targets []Target, opt *rolloutOptions) (*RolloutReport, error) {
	// Journal creation (fresh runs): the plan record must be durable
	// before the first datagram leaves, or a crash forgets the targets.
	if opt.journalPath != "" && opt.journal == nil {
		plan := make([]PlannedTarget, len(targets))
		for i, tgt := range targets {
			plan[i] = PlannedTarget{
				Instance: tgt.InstanceID,
				Addr:     tgt.Addr,
				Admin:    tgt.AdminCommunity,
				Digest:   desired[i].Digest,
			}
		}
		j, err := CreateJournal(opt.journalPath, plan)
		if err != nil {
			return nil, err
		}
		opt.journal = j
	}
	// The plan record above is always fsync'd (it must survive anything);
	// per-record syncing of the rest is the caller's trade.
	opt.journal.setNoSync(opt.journalNoSync)
	defer opt.journal.Close()

	// Observability: run-scoped registry merged into the shared one at
	// the end, so overlapping rollouts keep exact per-run snapshots.
	reg := opt.metrics
	if reg == nil {
		reg = obs.Default
	}
	mon := reg.Enabled()
	var run *obs.Registry
	if mon {
		run = obs.NewRegistry()
		opt.om = rolloutRunMetrics{on: true, sleep: run.Counter(MetricRolloutBackoffSleep)}
	}
	var sp obs.Span
	if obs.TracingEnabled() {
		sp = obs.StartSpan("rollout",
			obs.Label{Key: "targets", Value: strconv.Itoa(len(targets))},
			obs.Label{Key: "workers", Value: strconv.Itoa(opt.workers)})
	}

	start := time.Now()

	// rctx carries both external cancellation and fail-fast.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	f := newFanout(targets, opt, cancel, run)
	report := f.report
	pre := &preStore{m: map[string]*snmp.Config{}}

	waves := splitWaves(len(targets), opt.stages)
	var gateErr *GateError
	for wi, w := range waves {
		waveStart := time.Now()
		if gateErr != nil || rctx.Err() != nil {
			// Aborted before this wave: mark its targets canceled without
			// touching the network.
			for i := w.start; i < w.end; i++ {
				err := f.panicked
				if err == nil {
					err = rctx.Err()
				}
				if err == nil {
					err = gateErr
				}
				f.record(i, TargetResult{Target: targets[i], Status: StatusCanceled, Err: err})
			}
			finishWave(report, wi, w, waveStart, nil, opt, &f.mu)
			continue
		}

		// Fixed worker pool pulling target indices: a 10k-target wave must
		// not spawn 10k goroutines just to have a semaphore park most of
		// them.
		f.pool(w, func(i int) {
			f.record(i, installTarget(rctx, desired[i], targets[i], opt, pre))
		})

		if rctx.Err() != nil || !opt.gated() {
			finishWave(report, wi, w, waveStart, nil, opt, &f.mu)
			continue
		}
		wave := append([]TargetResult(nil), report.Results[w.start:w.end]...)
		gerr := evalGate(rctx, wave, opt)
		if gerr == nil {
			finishWave(report, wi, w, waveStart, nil, opt, &f.mu)
			continue
		}
		gateErr = &GateError{Wave: wi, Err: gerr}
		if mon {
			run.Counter(MetricRolloutGateFails).Inc()
		}
		f.mu.Lock()
		if err := opt.journal.recordGate(wi, gerr); err != nil && f.journalErr == nil {
			f.journalErr = err
		}
		f.mu.Unlock()
		rollbackWave(rctx, w, f, pre, opt)
		finishWave(report, wi, w, waveStart, gerr, opt, &f.mu)
	}

	sort.Slice(report.Results, func(i, j int) bool {
		return report.Results[i].Target.InstanceID < report.Results[j].Target.InstanceID
	})
	retries := 0
	resumed := 0
	for _, r := range report.Results {
		report.Attempts += r.Attempts
		if r.Attempts > 1 {
			retries += r.Attempts - 1
		}
		if r.Resumed {
			resumed++
		}
		switch r.Status {
		case StatusInstalled:
			report.Installed++
		case StatusFailed:
			report.Failed++
		case StatusSkipped:
			report.Skipped++
		case StatusCanceled:
			report.Canceled++
		case StatusRolledBack:
			report.RolledBack++
		}
		if mon {
			run.Histogram(obs.L(MetricRolloutTargetDuration, "status", r.Status.String())).Observe(int64(r.Duration))
		}
	}
	report.Duration = time.Since(start)
	if mon {
		run.Counter(MetricRolloutRuns).Inc()
		run.Counter(MetricRolloutAttempts).Add(int64(report.Attempts))
		run.Counter(MetricRolloutRetries).Add(int64(retries))
		run.Counter(MetricRolloutResumed).Add(int64(resumed))
		run.Histogram(MetricRolloutDuration).Observe(int64(report.Duration))
		for s, n := range map[RolloutStatus]int{
			StatusInstalled:  report.Installed,
			StatusFailed:     report.Failed,
			StatusSkipped:    report.Skipped,
			StatusCanceled:   report.Canceled,
			StatusRolledBack: report.RolledBack,
		} {
			// Counter() first so zero-count statuses still appear in the
			// snapshot with an explicit 0.
			run.Counter(obs.L(MetricRolloutTargets, "status", s.String())).Add(int64(n))
		}
		reg.Merge(run)
		report.Metrics = run.Snapshot()
	}
	if sp.Active() {
		sp.Label("installed", strconv.Itoa(report.Installed))
		sp.Label("failed", strconv.Itoa(report.Failed))
		sp.Label("rolled_back", strconv.Itoa(report.RolledBack))
	}
	sp.End()
	switch {
	case f.panicked != nil:
		return report, f.panicked
	case f.journalErr != nil:
		return report, fmt.Errorf("configgen: journal: %w", f.journalErr)
	case gateErr != nil:
		return report, gateErr
	default:
		return report, ctx.Err()
	}
}

// fanout is where a run's per-target results land: record stores,
// journals and streams one result, and pool runs a span of targets over
// obs.Pool. A rollout's waves and gate rollbacks, and Rollback, each go
// through one.
type fanout struct {
	report  *RolloutReport
	targets []Target
	opt     *rolloutOptions
	// cancel stops the run: on a journal error, on fail-fast and on a
	// worker's panic.
	cancel context.CancelFunc
	// panics is where a worker's panic is counted; nil or obs.Disabled
	// when metrics are off.
	panics *obs.Registry

	mu         sync.Mutex // serializes onResult, failFast, journal errors and panics
	recorded   []bool
	journalErr error
	// panicked is the first panic a pool worker raised (set under mu).
	// It halts the run, and onResult is not called after it.
	panicked error
}

func newFanout(targets []Target, opt *rolloutOptions, cancel context.CancelFunc, panics *obs.Registry) *fanout {
	return &fanout{
		report:   &RolloutReport{Results: make([]TargetResult, len(targets))},
		targets:  targets,
		opt:      opt,
		cancel:   cancel,
		panics:   panics,
		recorded: make([]bool, len(targets)),
	}
}

// record stores, journals and streams targets[i]'s result.
func (f *fanout) record(i int, res TargetResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.report.Results[i] = res
	f.recorded[i] = true
	if err := f.opt.journal.recordResult(res); err != nil && f.journalErr == nil {
		f.journalErr = err
		f.cancel() // a journal that stopped persisting voids the crash-safety contract
	}
	if f.opt.onResult != nil && f.panicked == nil {
		f.opt.onResult(res)
	}
	if f.opt.failFast && (res.Status == StatusFailed || res.Status == StatusSkipped) {
		f.cancel()
	}
}

// pool runs fn(i) for every target index in the span over obs.Pool. A
// worker's panic halts the pool and the run: the span's targets left
// without a result are recorded canceled with the panic as their error,
// and the panic is counted in nmsl_panics_total{site="rollout"}.
func (f *fanout) pool(w waveSpan, fn func(i int)) {
	err := obs.Pool("rollout", w.end-w.start, f.opt.workers, func(_, k int) { fn(w.start + k) })
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.panicked == nil {
		f.panicked = err
		f.panics.Counter(obs.L(obs.MetricPanics, "site", "rollout")).Inc()
	}
	f.mu.Unlock()
	f.cancel()
	for i := w.start; i < w.end; i++ {
		if !f.recorded[i] {
			f.record(i, TargetResult{Target: f.targets[i], Status: StatusCanceled, Err: f.panicked})
		}
	}
}

// finishWave summarizes a completed (or cancel-skipped) wave from its
// span of results, appends it to the report and streams it to the
// caller. Must run before the final sort reorders Results.
func finishWave(report *RolloutReport, wi int, w waveSpan, start time.Time, gateErr error, opt *rolloutOptions, mu *sync.Mutex) {
	wr := WaveResult{Wave: wi, Start: w.start, End: w.end, GateErr: gateErr, Duration: time.Since(start)}
	for _, r := range report.Results[w.start:w.end] {
		wr.Attempts += r.Attempts
		if r.Resumed {
			wr.Resumed++
		}
		switch r.Status {
		case StatusInstalled:
			wr.Installed++
		case StatusFailed:
			wr.Failed++
		case StatusSkipped:
			wr.Skipped++
		case StatusCanceled:
			wr.Canceled++
		case StatusRolledBack:
			wr.RolledBack++
		}
	}
	report.Waves = append(report.Waves, wr)
	if opt.onWave != nil {
		mu.Lock()
		opt.onWave(wr)
		mu.Unlock()
	}
}

// evalGate runs the wave's health checks: the failure-rate threshold
// first, then the caller's gate callback.
func evalGate(ctx context.Context, wave []TargetResult, opt *rolloutOptions) error {
	if opt.maxFailureRate >= 0 {
		failed := 0
		for _, r := range wave {
			if r.Status == StatusFailed || r.Status == StatusSkipped {
				failed++
			}
		}
		if rate := float64(failed) / float64(len(wave)); rate > opt.maxFailureRate {
			return fmt.Errorf("failure rate %.2f exceeds %.2f (%d of %d targets)", rate, opt.maxFailureRate, failed, len(wave))
		}
	}
	if opt.gate != nil {
		return opt.gate(ctx, wave)
	}
	return nil
}

// rollbackWave restores every installed target of the wave to its
// captured pre-image, rewriting the wave's results in place.
func rollbackWave(rctx context.Context, w waveSpan, f *fanout, pre *preStore, opt *rolloutOptions) {
	f.pool(w, func(i int) {
		if f.report.Results[i].Status != StatusInstalled {
			return
		}
		tgt := f.targets[i]
		f.record(i, restoreTarget(rctx, tgt, pre.get(targetKey(tgt.InstanceID, tgt.Addr)), opt, false))
	})
}
