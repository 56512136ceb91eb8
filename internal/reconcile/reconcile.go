// Package reconcile closes the loop the paper leaves open between its
// two verification methods: consistency checking tells us what every
// agent's configuration must be, the adherence audit tells us what a
// live agent actually does — the reconciler runs the comparison
// continuously and repairs the difference. A jittered periodic sweep
// fetches each agent's live configuration, compares its digest against
// the model's desired configuration, and re-installs on drift. Targets that keep failing or keep
// flapping are quarantined behind a per-target circuit breaker so a
// broken element cannot monopolize the sweep; after a cooldown a single
// half-open probe decides whether it rejoins the fleet.
package reconcile

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// Metric names recorded by the reconciler.
const (
	MetricSweeps        = "nmsl_reconcile_sweeps_total"
	MetricDrift         = "nmsl_reconcile_drift_total"
	MetricHeals         = "nmsl_reconcile_heals_total"
	MetricHealFailures  = "nmsl_reconcile_heal_failures_total"
	MetricCheckFailures = "nmsl_reconcile_check_failures_total"
	// MetricBreakerOpen is a gauge: how many targets are currently
	// quarantined (open or half-open breaker).
	MetricBreakerOpen = "nmsl_reconcile_breaker_open"
)

// EventKind classifies a reconciler event.
type EventKind string

// Event kinds, in rough lifecycle order.
const (
	// EventDrift: a target's live configuration diverged from the model.
	EventDrift EventKind = "drift"
	// EventHealed: a drifted target was re-installed successfully.
	EventHealed EventKind = "healed"
	// EventHealFailed: the re-install did not land.
	EventHealFailed EventKind = "heal-failed"
	// EventCheckFailed: the target could not be observed at all.
	EventCheckFailed EventKind = "check-failed"
	// EventQuarantined: the target's breaker opened.
	EventQuarantined EventKind = "quarantined"
	// EventRestored: a quarantined target passed its half-open probe and
	// rejoined the fleet.
	EventRestored EventKind = "restored"
)

// Event is one notable observation during a sweep.
type Event struct {
	Kind     EventKind
	Instance string
	Addr     string
	// Detail carries the error or digest information behind the event.
	Detail string
}

func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("[%s] %s at %s", e.Kind, e.Instance, e.Addr)
	}
	return fmt.Sprintf("[%s] %s at %s: %s", e.Kind, e.Instance, e.Addr, e.Detail)
}

// Sweep summarizes one reconciliation pass over the fleet.
type Sweep struct {
	// Index counts sweeps since the reconciler started, from 1.
	Index int
	// Checked is how many targets were actually probed (not skipped).
	Checked int
	// InSync, Drifted, Healed, HealFailures and CheckFailures partition
	// the checked targets' outcomes (a drifted target is also counted
	// healed or heal-failed).
	InSync, Drifted, Healed, HealFailures, CheckFailures int
	// Skipped is how many targets an open breaker quarantined.
	Skipped int
	// Open is how many breakers are not closed after the sweep.
	Open int
}

// String renders the sweep summary.
func (s *Sweep) String() string {
	return fmt.Sprintf("sweep %d: %d checked, %d in-sync, %d drifted (%d healed, %d heal-failed), %d check-failed, %d quarantined-skip, %d breakers open",
		s.Index, s.Checked, s.InSync, s.Drifted, s.Healed, s.HealFailures, s.CheckFailures, s.Skipped, s.Open)
}

type options struct {
	interval         time.Duration
	jitterFrac       float64
	seed             int64
	seeded           bool
	breakerThreshold int
	breakerCooldown  time.Duration
	probeJitterFrac  float64
	retries          int
	attemptTimeout   time.Duration
	sweepWorkers     int
	metrics          *obs.Registry
	onEvent          func(Event)
	now              func() time.Time
}

// Option tunes a Reconciler.
type Option func(*options)

// WithInterval sets the pause between sweeps (default 30s).
func WithInterval(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.interval = d
		}
	}
}

// WithJitter sets the fractional jitter applied to each pause: the
// actual sleep is interval ± frac·interval, so a fleet of reconcilers
// does not sweep in lockstep. Default 0.1; zero disables jitter.
func WithJitter(frac float64) Option {
	return func(o *options) {
		if frac >= 0 && frac < 1 {
			o.jitterFrac = frac
		}
	}
}

// WithSeed makes the sleep jitter deterministic for tests.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed, o.seeded = seed, true }
}

// WithBreaker tunes the quarantine circuit breaker: threshold
// consecutive failures open it (default 3), and an open breaker admits
// a half-open probe after cooldown (default 2m).
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(o *options) {
		if threshold > 0 {
			o.breakerThreshold = threshold
		}
		if cooldown > 0 {
			o.breakerCooldown = cooldown
		}
	}
}

// WithRetries sets how many times an unanswered probe or heal is
// retransmitted (default 2; negative means zero).
func WithRetries(n int) Option {
	return func(o *options) {
		if n < 0 {
			n = 0
		}
		o.retries = n
	}
}

// WithAttemptTimeout bounds each probe or heal attempt's wait for the
// agent's answer (default 500ms).
func WithAttemptTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.attemptTimeout = d
		}
	}
}

// WithMetrics selects where the reconciler's counters land: nil (the
// default) records into obs.Default, obs.Disabled turns them off.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// WithOnEvent streams drift, heal, quarantine and restore events as
// they happen (called from the sweep goroutine, serialized).
func WithOnEvent(fn func(Event)) Option {
	return func(o *options) { o.onEvent = fn }
}

// WithSweepWorkers runs each sweep as n parallel workers over n
// contiguous target shards (default 1: the serial sweep). Each shard
// owns its targets' breakers, drift history and probe-jitter rng, so
// workers share nothing but the atomic metric counters and the
// serialized event sink — and a shard's outcomes stay deterministic
// under WithSeed regardless of how the workers interleave. At 100k
// targets the serial sweep is the convergence-phase bottleneck (every
// probe waits out its attempt timeout on a partitioned host before the
// next target is even looked at); sharding bounds a sweep by the
// slowest shard instead of the sum.
func WithSweepWorkers(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.sweepWorkers = n
		}
	}
}

// target is one fleet member with its desired state, shared with every
// other consumer of the model's (configgen.DesiredState).
type target struct {
	tgt  configgen.Target
	want configgen.Desired
}

// shard is one worker's slice of the fleet with its private mutable
// state. Breakers, drift history and the probe-jitter rng are owned by
// exactly one shard (targets are split contiguously and never move), so
// a parallel sweep's workers share no mutable state and each shard's
// strike/probe sequence is as deterministic as the serial sweep's.
type shard struct {
	targets  []target
	breakers map[string]*breaker
	// lastDrift marks targets that drifted on the previous observation:
	// a target that drifts again immediately after a heal is flapping —
	// something else keeps rewriting it — and collects a strike.
	lastDrift map[string]bool
	rng       *rand.Rand
}

// Reconciler drives the drift-detection and self-healing loop. It is
// not safe for concurrent use; run one loop per Reconciler (RunOnce
// itself fans out over shards when WithSweepWorkers is set).
type Reconciler struct {
	shards []*shard
	opt    options
	// rng drives the inter-sweep interval jitter, and doubles as shard
	// 0's probe-jitter source so the single-shard reconciler draws the
	// exact sequence the pre-sharding implementation did.
	rng    *rand.Rand
	emitMu sync.Mutex
	sweeps int
}

// New builds a reconciler for the fleet. Every target must name an
// agent instance the model generates a configuration for.
func New(m *consistency.Model, targets []configgen.Target, opts ...Option) (*Reconciler, error) {
	opt := options{
		interval:         30 * time.Second,
		jitterFrac:       0.1,
		breakerThreshold: 3,
		breakerCooldown:  2 * time.Minute,
		probeJitterFrac:  0.1,
		retries:          2,
		attemptTimeout:   500 * time.Millisecond,
		sweepWorkers:     1,
		now:              time.Now,
	}
	for _, fn := range opts {
		fn(&opt)
	}
	r := &Reconciler{opt: opt}
	if opt.seeded {
		r.rng = rand.New(rand.NewSource(opt.seed))
	} else {
		opt.seed = rand.Int63()
		r.rng = rand.New(rand.NewSource(opt.seed))
	}

	all := make([]target, len(targets))
	for i, want := range configgen.DesiredState(m, targets) {
		if want.Config == nil {
			return nil, fmt.Errorf("reconcile: no configuration generated for instance %q", targets[i].InstanceID)
		}
		all[i] = target{tgt: targets[i], want: want}
	}

	nshards := opt.sweepWorkers
	if nshards > len(all) {
		nshards = len(all)
	}
	if nshards < 1 {
		nshards = 1
	}
	for si := 0; si < nshards; si++ {
		lo := si * len(all) / nshards
		hi := (si + 1) * len(all) / nshards
		sd := &shard{
			targets:   all[lo:hi],
			breakers:  make(map[string]*breaker, hi-lo),
			lastDrift: make(map[string]bool, hi-lo),
			rng:       r.rng, // shard 0: the legacy serial stream
		}
		if si > 0 {
			sd.rng = rand.New(rand.NewSource(opt.seed + int64(si)))
		}
		for _, t := range sd.targets {
			sd.breakers[key(t.tgt)] = &breaker{}
		}
		r.shards = append(r.shards, sd)
	}
	return r, nil
}

func key(tgt configgen.Target) string { return tgt.InstanceID + "|" + tgt.Addr }

// emit streams an event to the configured sink, serialized across the
// sweep workers.
func (r *Reconciler) emit(kind EventKind, tgt configgen.Target, detail string) {
	if r.opt.onEvent != nil {
		r.emitMu.Lock()
		defer r.emitMu.Unlock() // a panicking sink must not wedge the other shards
		r.opt.onEvent(Event{Kind: kind, Instance: tgt.InstanceID, Addr: tgt.Addr, Detail: detail})
	}
}

// strike records a failure on b, drawing a fresh probe jitter for the
// open period when the strike opened (or re-opened) the breaker. The
// jitter comes from the shard's seeded rng, so tests with WithSeed get
// reproducible probe times.
func (r *Reconciler) strike(sd *shard, b *breaker, now time.Time) bool {
	opened := b.strike(now, r.opt.breakerThreshold)
	if opened {
		b.probeExtra = 0
		if span := int64(float64(r.opt.breakerCooldown) * r.opt.probeJitterFrac); span > 0 {
			b.probeExtra = time.Duration(sd.rng.Int63n(span))
		}
	}
	return opened
}

// observe fetches the target's live configuration blob and decides
// whether it matches the desired one. The bytes as fetched are digested
// first; only a blob whose digest differs is decoded and digested again
// in canonical form, so an equal configuration written differently is
// never called drift. drifted is meaningful only when err is nil.
func (r *Reconciler) observe(ctx context.Context, t target) (drifted bool, detail string, err error) {
	client, err := r.dial(t)
	if err != nil {
		return false, "", err
	}
	defer client.Close()
	blob, err := client.FetchConfigBlobContext(ctx)
	if err != nil {
		return false, "", err
	}
	if snmp.BlobDigest(blob) == t.want.Digest {
		return false, "", nil
	}
	live, err := snmp.UnmarshalConfig(blob)
	if err != nil {
		return false, "", err
	}
	if d := live.Digest(); d != t.want.Digest {
		return true, fmt.Sprintf("live digest %.12s.. != desired %.12s..", d, t.want.Digest), nil
	}
	return false, "", nil
}

// heal re-installs the desired configuration at the target.
func (r *Reconciler) heal(ctx context.Context, t target) error {
	client, err := r.dial(t)
	if err != nil {
		return err
	}
	defer client.Close()
	return client.InstallConfigContext(ctx, t.want.Config)
}

// dial opens an admin session to the target under the reconciler's
// retry policy.
func (r *Reconciler) dial(t target) (*snmp.Client, error) {
	client, err := snmp.Dial(t.tgt.Addr, t.tgt.AdminCommunity)
	if err != nil {
		return nil, err
	}
	client.SetRetries(r.opt.retries)
	client.SetTimeout(r.opt.attemptTimeout)
	return client, nil
}

// RunOnce performs a single reconciliation sweep over the fleet and
// returns its summary. With WithSweepWorkers(n>1) the shards sweep
// concurrently over obs.Pool and their summaries merge. The context
// cancels the sweep mid-fleet; the partial summary is returned with the
// context's error. A panic in a shard — including one raised by the
// WithOnEvent callback — ends that shard's sweep, and shards that have
// not started yet do not start; once the running shards finish, RunOnce
// returns the first panic as an *obs.PanicError carrying the panic value
// and stack, counted in nmsl_panics_total{site="reconcile"}.
func (r *Reconciler) RunOnce(ctx context.Context) (*Sweep, error) {
	reg := r.opt.metrics
	if reg == nil {
		reg = obs.Default
	}
	mon := reg.Enabled()
	r.sweeps++
	sw := &Sweep{Index: r.sweeps}
	sp := obs.StartSpan("reconcile.sweep")
	defer sp.End()

	sws := make([]Sweep, len(r.shards))
	errs := make([]error, len(r.shards))
	err := obs.Pool("reconcile sweep", len(r.shards), len(r.shards), func(_, si int) {
		errs[si] = r.sweepShard(ctx, r.shards[si], &sws[si], reg, mon)
	})
	if err != nil && mon {
		reg.Counter(obs.L(obs.MetricPanics, "site", "reconcile")).Inc()
	}
	for si := range sws {
		s := &sws[si]
		sw.Checked += s.Checked
		sw.InSync += s.InSync
		sw.Drifted += s.Drifted
		sw.Healed += s.Healed
		sw.HealFailures += s.HealFailures
		sw.CheckFailures += s.CheckFailures
		sw.Skipped += s.Skipped
		if errs[si] != nil && err == nil {
			err = errs[si]
		}
	}
	if err != nil {
		return sw, err
	}

	for _, sd := range r.shards {
		for _, b := range sd.breakers {
			if b.state != BreakerClosed {
				sw.Open++
			}
		}
	}
	if mon {
		reg.Counter(MetricSweeps).Inc()
		reg.Gauge(MetricBreakerOpen).Set(int64(sw.Open))
	}
	if sp.Active() {
		sp.Label("checked", fmt.Sprint(sw.Checked))
		sp.Label("drifted", fmt.Sprint(sw.Drifted))
	}
	return sw, nil
}

// sweepShard reconciles one shard's targets into sw, touching only the
// shard's own breakers, drift history and rng.
func (r *Reconciler) sweepShard(ctx context.Context, sd *shard, sw *Sweep, reg *obs.Registry, mon bool) error {
	for _, t := range sd.targets {
		if err := ctx.Err(); err != nil {
			return err
		}
		k := key(t.tgt)
		b := sd.breakers[k]
		if !b.allow(r.opt.now(), r.opt.breakerCooldown) {
			sw.Skipped++
			continue
		}
		sw.Checked++

		drifted, detail, err := r.observe(ctx, t)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			sw.CheckFailures++
			if mon {
				reg.Counter(MetricCheckFailures).Inc()
			}
			r.emit(EventCheckFailed, t.tgt, err.Error())
			if r.strike(sd, b, r.opt.now()) {
				r.emit(EventQuarantined, t.tgt, fmt.Sprintf("check failures reached %d", r.opt.breakerThreshold))
			}
			continue
		}

		if !drifted {
			sw.InSync++
			sd.lastDrift[k] = false
			if b.success() {
				r.emit(EventRestored, t.tgt, "in sync after quarantine")
			}
			continue
		}

		// Drift: heal by re-installing the desired configuration.
		sw.Drifted++
		if mon {
			reg.Counter(MetricDrift).Inc()
		}
		r.emit(EventDrift, t.tgt, detail)
		// A target that drifts again right after being reconciled is
		// flapping — something else keeps rewriting it — and collects a
		// strike even though each individual heal succeeds. Only closed
		// breakers take flap strikes: in half-open the single probe's own
		// outcome decides.
		flapping := sd.lastDrift[k] && b.state == BreakerClosed
		sd.lastDrift[k] = true

		if err := r.heal(ctx, t); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			sw.HealFailures++
			if mon {
				reg.Counter(MetricHealFailures).Inc()
			}
			r.emit(EventHealFailed, t.tgt, err.Error())
			if r.strike(sd, b, r.opt.now()) {
				r.emit(EventQuarantined, t.tgt, "heal failed")
			}
			continue
		}
		sw.Healed++
		if mon {
			reg.Counter(MetricHeals).Inc()
		}
		r.emit(EventHealed, t.tgt, detail)
		if flapping {
			if r.strike(sd, b, r.opt.now()) {
				r.emit(EventQuarantined, t.tgt, "flapping: drifted again immediately after a heal")
			}
		} else if b.success() {
			r.emit(EventRestored, t.tgt, "healed after quarantine")
		}
	}
	return nil
}

// Run sweeps the fleet until ctx is done, pausing interval ± jitter
// between sweeps, and returns ctx.Err(). Sweep summaries stream through
// fn (nil is allowed).
func (r *Reconciler) Run(ctx context.Context, fn func(*Sweep)) error {
	for {
		sw, err := r.RunOnce(ctx)
		if fn != nil && sw != nil {
			fn(sw)
		}
		if err != nil {
			return err
		}
		d := r.opt.interval
		if r.opt.jitterFrac > 0 {
			span := int64(float64(d) * r.opt.jitterFrac)
			if span > 0 {
				d += time.Duration(r.rng.Int63n(2*span+1) - span)
			}
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}
