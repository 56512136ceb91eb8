package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"nmsl"
	apiv1 "nmsl/api/v1"
	"nmsl/internal/configgen"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// Tenant is one resident specification: the compiled model, the last
// complete check report (the delta-replay substrate), the accumulated
// edit delta since that report, and the tenant's private result cache.
// All fields behind mu are owned exclusively by this tenant — the
// isolation invariant the whole service rests on.
type Tenant struct {
	id  string
	opt *options
	bkt bucket

	mu         sync.Mutex
	gen        int64
	sources    []apiv1.Source
	exts       []apiv1.Source
	spec       *nmsl.Specification
	lastReport *nmsl.Report
	consistent *bool
	// checkedGen is the generation the last check ran against;
	// consistency verdicts for older generations are stale.
	checkedGen int64
	// pending accumulates the model delta of every spec update since
	// lastReport. nil means "no usable delta" (never checked, or the
	// report went stale) and forces the next delta-check to run full; a
	// non-nil empty delta is the warm no-op path.
	pending    *nmsl.ModelDelta
	cache      *nmsl.CheckCache
	cacheDirty bool
}

func newTenant(id string, opt *options) *Tenant {
	cache := nmsl.NewCheckCache()
	if opt.cacheMaxEntries > 0 {
		cache.SetMaxEntries(opt.cacheMaxEntries)
	}
	return &Tenant{id: id, opt: opt, cache: cache}
}

// info snapshots the tenant for the list endpoints.
func (t *Tenant) info() apiv1.TenantInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := apiv1.TenantInfo{ID: t.id, Generation: t.gen}
	if t.consistent != nil {
		c := *t.consistent
		out.Consistent = &c
	}
	if t.cache != nil {
		cs := apiv1.FromCacheStats(t.cache.Stats())
		out.Cache = &cs
	}
	return out
}

// allow spends one rate-limit token, recording a rejection metric when
// the bucket is empty.
func (s *Service) allow(t *Tenant) error {
	if t.bkt.allow(s.opt.now(), s.opt.ratePerSec, s.opt.rateBurst) {
		return nil
	}
	if s.reg.Enabled() {
		s.reg.Counter(MetricRateLimited).Inc()
	}
	return fmt.Errorf("%w: tenant %q", ErrRateLimited, t.id)
}

// admit acquires a global admission slot, recording a rejection metric
// when the queue is full.
func (s *Service) admit(ctx context.Context) (func(), error) {
	release, err := s.adm.acquire(ctx)
	if err != nil && s.reg.Enabled() {
		s.reg.Counter(MetricAdmissionRejected).Inc()
	}
	return release, err
}

// compile builds a fresh Specification from wire sources. Each call
// uses its own Compiler, so nothing is shared with any resident model.
func compile(req *apiv1.SpecRequest) (*nmsl.Specification, error) {
	c := nmsl.NewCompiler()
	for _, ext := range req.Extensions {
		if err := c.AddExtensionSource(ext.Name, ext.Text); err != nil {
			return nil, fmt.Errorf("%w: extension %s: %v", ErrCompile, ext.Name, err)
		}
	}
	for _, src := range req.Sources {
		if err := c.CompileSource(src.Name, src.Text); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCompile, err)
		}
	}
	spec, err := c.Finish()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCompile, err)
	}
	return spec, nil
}

// mergeDelta folds b into a (set union per dimension; Full/MIBChanged
// are sticky).
func mergeDelta(a, b *nmsl.ModelDelta) *nmsl.ModelDelta {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &nmsl.ModelDelta{
		Full:       a.Full || b.Full,
		MIBChanged: a.MIBChanged || b.MIBChanged,
		Domains:    unionStrings(a.Domains, b.Domains),
		Systems:    unionStrings(a.Systems, b.Systems),
		Processes:  unionStrings(a.Processes, b.Processes),
		Instances:  unionStrings(a.Instances, b.Instances),
	}
}

func unionStrings(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, lists := range [2][]string{a, b} {
		for _, s := range lists {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// UpdateSpec replaces (or creates) a tenant's specification from wire
// sources. Compilation runs outside the tenant lock; the swap — and
// the diff against the generation being replaced — happens under it.
// The accepted sources are persisted before the call returns, so a
// restart recompiles exactly what was acknowledged.
func (s *Service) UpdateSpec(ctx context.Context, id string, req *apiv1.SpecRequest) (*apiv1.SpecResponse, error) {
	if len(req.Sources) == 0 {
		return nil, fmt.Errorf("%w: no sources", ErrCompile)
	}
	t, err := s.tenantOrCreate(id)
	if err != nil {
		return nil, err
	}
	if err := s.allow(t); err != nil {
		return nil, err
	}
	spec, err := compile(req)
	if err != nil {
		// A failed upload must not leave an empty tenant occupying a
		// slot (or reachable as 409s over HTTP).
		s.dropIfEmpty(t)
		return nil, err
	}

	t.mu.Lock()
	var delta *nmsl.ModelDelta
	if t.spec != nil {
		delta = nmsl.DiffSpecs(t.spec, spec)
		t.pending = mergeDelta(t.pending, delta)
	}
	t.spec = spec
	t.gen++
	t.sources = append([]apiv1.Source(nil), req.Sources...)
	t.exts = append([]apiv1.Source(nil), req.Extensions...)
	gen := t.gen
	model := spec.Model()
	resp := &apiv1.SpecResponse{
		APIVersion: apiv1.Version,
		Tenant:     t.id,
		Generation: gen,
		Delta:      apiv1.FromDelta(delta),
		Instances:  len(model.Instances),
		Refs:       len(model.Refs),
		Perms:      len(model.Perms),
	}
	t.mu.Unlock()

	if s.reg.Enabled() {
		s.reg.Counter(MetricSpecUpdates).Inc()
	}
	if s.opt.stateDir != "" {
		if err := s.persistSpec(t, gen, req); err != nil {
			return nil, fmt.Errorf("service: persisting tenant %q: %w", t.id, err)
		}
	}
	return resp, nil
}

// checkOptions resolves a wire CheckRequest into checker options.
func (s *Service) checkOptions(t *Tenant, req *apiv1.CheckRequest) []nmsl.CheckOption {
	workers := s.opt.checkWorkers
	if req != nil && req.Workers > 0 {
		workers = req.Workers
	}
	opts := []nmsl.CheckOption{
		nmsl.WithWorkers(workers),
		nmsl.WithCache(t.cache),
		nmsl.WithMetrics(s.reg),
	}
	if req != nil && req.FailFast {
		opts = append(opts, nmsl.WithFailFast())
	}
	return opts
}

// Check runs a full consistency check for the tenant.
func (s *Service) Check(ctx context.Context, id string, req *apiv1.CheckRequest) (*apiv1.CheckResponse, error) {
	return s.check(ctx, id, req, false)
}

// DeltaCheck re-checks the tenant incrementally: references untouched
// by the spec updates since the last complete check replay their
// previous verdicts; only the dirty ones re-prove. Without a usable
// previous report it degrades to a full check (still warmed by the
// result cache).
func (s *Service) DeltaCheck(ctx context.Context, id string, req *apiv1.CheckRequest) (*apiv1.CheckResponse, error) {
	return s.check(ctx, id, req, true)
}

func (s *Service) check(ctx context.Context, id string, req *apiv1.CheckRequest, delta bool) (*apiv1.CheckResponse, error) {
	t, err := s.tenant(id)
	if err != nil {
		return nil, err
	}
	if err := s.allow(t); err != nil {
		return nil, err
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spec == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSpec, t.id)
	}
	start := time.Now()
	var rep *nmsl.Report
	ranDelta := false
	if delta && t.lastReport != nil && t.pending != nil && !(req != nil && req.FailFast) {
		rep = t.spec.CheckDelta(t.lastReport, t.pending, t.cache)
		ranDelta = true
	} else {
		rep, err = t.spec.CheckContext(ctx, s.checkOptions(t, req)...)
		if err != nil {
			// A cancelled or timed-out check is partial: report the
			// context error, keep the previous replay substrate.
			return nil, err
		}
	}
	dur := time.Since(start)

	// A complete run becomes the new replay substrate; FailFast runs
	// are partial and must not (CheckDelta would fall back anyway, but
	// the stale-report guard belongs here).
	if !(req != nil && req.FailFast) {
		t.lastReport = rep
		t.pending = &nmsl.ModelDelta{}
	}
	c := rep.Consistent()
	t.consistent = &c
	t.checkedGen = t.gen
	t.cacheDirty = true

	if s.reg.Enabled() {
		kind := "full"
		if ranDelta {
			kind = "delta"
		}
		s.reg.Histogram(obs.L(MetricCheckDuration, "kind", kind)).Observe(int64(dur))
	}
	cs := apiv1.FromCacheStats(t.cache.Stats())
	return &apiv1.CheckResponse{
		APIVersion: apiv1.Version,
		Tenant:     t.id,
		Generation: t.gen,
		Report:     apiv1.FromReport(rep),
		Delta:      ranDelta,
		Cache:      &cs,
		DurationNS: int64(dur),
	}, nil
}

// Generate derives the tenant's per-agent configurations (running a
// check first when none has completed; only a consistent specification
// may be executed, per the paper).
func (s *Service) Generate(ctx context.Context, id string) (*apiv1.GenerateResponse, error) {
	t, err := s.tenant(id)
	if err != nil {
		return nil, err
	}
	if err := s.allow(t); err != nil {
		return nil, err
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spec == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSpec, t.id)
	}
	if err := t.ensureConsistentLocked(ctx, s); err != nil {
		return nil, err
	}
	configs := t.spec.AgentConfigs()
	out := &apiv1.GenerateResponse{
		APIVersion: apiv1.Version,
		Tenant:     t.id,
		Generation: t.gen,
		Configs:    make(map[string]json.RawMessage, len(configs)),
	}
	for inst, cfg := range configs {
		blob, err := snmp.MarshalConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("service: marshal config for %s: %w", inst, err)
		}
		out.Configs[inst] = blob
	}
	return out, nil
}

// Rollout installs the tenant's generated configuration at the
// requested fleet through the fault-tolerant rollout engine.
func (s *Service) Rollout(ctx context.Context, id string, req *apiv1.RolloutRequest) (*apiv1.RolloutResponse, error) {
	t, err := s.tenant(id)
	if err != nil {
		return nil, err
	}
	if err := s.allow(t); err != nil {
		return nil, err
	}
	if len(req.Targets) == 0 {
		return nil, fmt.Errorf("%w: rollout has no targets", ErrCompile)
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spec == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSpec, t.id)
	}
	if err := t.ensureConsistentLocked(ctx, s); err != nil {
		return nil, err
	}
	targets := make([]configgen.Target, len(req.Targets))
	for i, rt := range req.Targets {
		targets[i] = configgen.Target{InstanceID: rt.Instance, Addr: rt.Addr, AdminCommunity: rt.Admin}
	}
	ropts := []configgen.RolloutOption{configgen.WithMetrics(s.reg)}
	if req.Workers > 0 {
		ropts = append(ropts, configgen.WithWorkers(req.Workers))
	}
	if req.Retries > 0 {
		ropts = append(ropts, configgen.WithRetries(req.Retries))
	}
	if req.FailFast {
		ropts = append(ropts, configgen.WithFailFast())
	}
	report, rerr := configgen.DistributeContext(ctx, t.spec.Model(), targets, ropts...)
	if rerr != nil && report == nil {
		return nil, rerr
	}
	return &apiv1.RolloutResponse{
		APIVersion: apiv1.Version,
		Tenant:     t.id,
		Generation: t.gen,
		Report:     apiv1.FromRolloutReport(report),
	}, rerr
}

// ensureConsistentLocked runs a check when none has completed for the
// current spec, then refuses inconsistent specifications. Caller holds
// t.mu.
func (t *Tenant) ensureConsistentLocked(ctx context.Context, s *Service) error {
	if t.consistent == nil || t.lastReport == nil || t.checkedGen != t.gen {
		rep, err := t.spec.CheckContext(ctx, s.checkOptions(t, nil)...)
		if err != nil {
			return err
		}
		t.lastReport = rep
		t.pending = &nmsl.ModelDelta{}
		c := rep.Consistent()
		t.consistent = &c
		t.checkedGen = t.gen
		t.cacheDirty = true
	}
	if !*t.consistent {
		return fmt.Errorf("%w: tenant %q (re-check for causes)", ErrInconsistent, t.id)
	}
	return nil
}
