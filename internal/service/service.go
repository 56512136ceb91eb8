// Package service is the multi-tenant check/rollout daemon behind
// cmd/nmsld: a long-running process that keeps each tenant's compiled
// *nmsl.Specification and warm result cache resident, so the delta
// machinery's ~50× warm re-check speedup (PR 5) pays off under
// sustained traffic instead of being rebuilt per CLI invocation.
//
// The design has four load-bearing properties:
//
//   - Session isolation. Every tenant owns its compiler output, model
//     and result cache outright; no mutable model state is ever shared
//     between tenants, so tenants check concurrently without
//     interference (verified under -race by TestManyTenantsConcurrent).
//     Within one tenant, operations serialize on the tenant's mutex —
//     a tenant is a consistency domain, not a parallelism domain.
//
//   - Admission + rate limits. A global admission gate bounds the
//     number of concurrently executing checks (plus a bounded wait
//     queue); per-tenant token buckets bound each tenant's request
//     rate. Following the SNMP agent's rate-window discipline,
//     rejected requests do not consume budget — an over-eager tenant
//     is delayed, never starved.
//
//   - Crash-safe persistence. Tenant state (spec sources and the
//     result cache) is persisted under the state directory with the
//     fsync'd write-then-rename discipline of the configgen journal:
//     a kill at any point leaves either the old or the new file, never
//     a torn one. On restart the tenants recompile and their caches
//     reload, so the first post-restart check is already warm.
//
//   - A frozen wire surface. Everything the HTTP layer reads or
//     writes is an api/v1 type; the service returns wire-ready
//     responses so the daemon and the CLIs cannot drift apart.
package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/obs"
)

// Typed errors the HTTP layer maps onto status codes (see
// statusFromServiceErr in http.go).
var (
	// ErrNoTenant: the tenant ID names no resident tenant.
	ErrNoTenant = errors.New("service: unknown tenant")
	// ErrBadTenantID: the tenant ID is not [A-Za-z0-9][A-Za-z0-9_.-]*
	// (64 chars max) — the constraint that makes IDs safe as state
	// subdirectory names.
	ErrBadTenantID = errors.New("service: invalid tenant id")
	// ErrNoSpec: the tenant exists but has no compiled specification.
	ErrNoSpec = errors.New("service: tenant has no specification")
	// ErrRateLimited: the tenant's token bucket is empty.
	ErrRateLimited = errors.New("service: tenant rate limit exceeded")
	// ErrBusy: the admission queue is full.
	ErrBusy = errors.New("service: admission queue full")
	// ErrTenantLimit: the resident-tenant cap is reached.
	ErrTenantLimit = errors.New("service: tenant limit reached")
	// ErrCompile wraps compilation failures (syntax or semantic).
	ErrCompile = errors.New("service: specification does not compile")
	// ErrBadContract wraps change-contract parse failures
	// (verify-change requests with malformed .ncs text).
	ErrBadContract = errors.New("service: change contract does not parse")
	// ErrInconsistent: the operation requires a consistent
	// specification (generate/rollout refuse on a failing check).
	ErrInconsistent = errors.New("service: specification is inconsistent")
)

// Metric names recorded by the service into its registry.
const (
	MetricRequests          = "nmsl_svc_requests_total"
	MetricRateLimited       = "nmsl_svc_rate_limited_total"
	MetricAdmissionRejected = "nmsl_svc_admission_rejected_total"
	MetricCheckDuration     = "nmsl_svc_check_duration_ns"
	MetricTenants           = "nmsl_svc_tenants"
	MetricCacheFlushes      = "nmsl_svc_cache_flush_total"
	MetricSpecUpdates       = "nmsl_svc_spec_updates_total"
)

// tenantIDPat is the shape of an acceptable tenant ID. IDs become
// state-directory names, so the alphabet excludes path separators and
// anything needing escaping.
var tenantIDPat = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// options is the resolved configuration.
type options struct {
	stateDir        string
	maxTenants      int
	ratePerSec      float64
	rateBurst       int
	admissionSlots  int
	admissionQueue  int
	checkWorkers    int
	cacheMaxEntries int
	flushInterval   time.Duration
	metrics         *obs.Registry
	now             func() time.Time
	// flush replaces Flush in the background flusher's ticks; nil (the
	// default) runs Flush. Tests set it to make a tick panic.
	flush func() error
}

// Option configures New, following the checker's and the rollout's
// functional-option convention.
type Option func(*options)

// WithStateDir persists tenant state (spec sources + result caches)
// under dir, and reloads it on startup. Empty (the default) keeps
// everything in memory only.
func WithStateDir(dir string) Option { return func(o *options) { o.stateDir = dir } }

// WithMaxTenants caps the number of resident tenants; n <= 0 means
// unlimited.
func WithMaxTenants(n int) Option { return func(o *options) { o.maxTenants = n } }

// WithRateLimit arms each tenant's token bucket: sustained rps
// requests per second with bursts up to burst. rps <= 0 disables rate
// limiting; burst < 1 is raised to 1.
func WithRateLimit(rps float64, burst int) Option {
	return func(o *options) { o.ratePerSec, o.rateBurst = rps, burst }
}

// WithAdmission bounds concurrently executing checks to slots, with at
// most queue requests waiting; requests beyond that are rejected with
// ErrBusy instead of piling up. slots <= 0 selects GOMAXPROCS-shaped
// default (8); queue < 0 means no waiting at all.
func WithAdmission(slots, queue int) Option {
	return func(o *options) { o.admissionSlots, o.admissionQueue = slots, queue }
}

// WithCheckWorkers sets the per-check worker pool default (the value a
// request's workers=0 resolves to); n <= 0 selects 1, the right shape
// for a daemon that parallelizes across tenants rather than within
// one check.
func WithCheckWorkers(n int) Option { return func(o *options) { o.checkWorkers = n } }

// WithCacheMaxEntries caps each tenant's result cache (LRU-trimmed);
// n <= 0 means unbounded.
func WithCacheMaxEntries(n int) Option { return func(o *options) { o.cacheMaxEntries = n } }

// WithFlushInterval sets how often dirty tenant caches are persisted
// in the background (state dir only). d <= 0 disables the background
// flusher; Flush and Close still persist on demand.
func WithFlushInterval(d time.Duration) Option { return func(o *options) { o.flushInterval = d } }

// Service is the resident multi-tenant checker.
type Service struct {
	opt options
	reg *obs.Registry

	mu      sync.RWMutex
	tenants map[string]*Tenant

	adm *admission

	flushWG   sync.WaitGroup
	flushStop chan struct{}
	closeOnce sync.Once
}

// New builds a Service and, when a state directory is configured,
// reloads every persisted tenant (recompiling specs and loading their
// result caches) before returning.
func New(opts ...Option) (*Service, error) {
	o := options{
		ratePerSec:     0,
		rateBurst:      1,
		admissionSlots: 8,
		admissionQueue: 64,
		checkWorkers:   1,
		flushInterval:  2 * time.Second,
		now:            time.Now,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.admissionSlots <= 0 {
		o.admissionSlots = 8
	}
	if o.rateBurst < 1 {
		o.rateBurst = 1
	}
	if o.checkWorkers <= 0 {
		o.checkWorkers = 1
	}
	reg := o.metrics
	if reg == nil {
		reg = obs.Default
	}
	s := &Service{
		opt:       o,
		reg:       reg,
		tenants:   map[string]*Tenant{},
		adm:       newAdmission(o.admissionSlots, o.admissionQueue),
		flushStop: make(chan struct{}),
	}
	if o.stateDir != "" {
		if err := s.loadState(); err != nil {
			return nil, err
		}
		if o.flushInterval > 0 {
			s.flushWG.Add(1)
			go s.flushLoop()
		}
	}
	s.gaugeTenants()
	return s, nil
}

// Close stops the background flusher and persists every dirty cache.
func (s *Service) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.flushStop)
		s.flushWG.Wait()
		err = s.Flush()
	})
	return err
}

// Flush persists every dirty tenant cache now (no-op without a state
// directory).
func (s *Service) Flush() error {
	if s.opt.stateDir == "" {
		return nil
	}
	var firstErr error
	for _, t := range s.snapshotTenants() {
		if err := t.flush(s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flushLoop persists dirty caches every flush interval until Close.
// Each tick's Flush runs under obs.Guard: a panic in it is counted in
// nmsl_panics_total{site="nmsld"}, and the next tick runs as usual.
func (s *Service) flushLoop() {
	defer s.flushWG.Done()
	flush := s.Flush
	if s.opt.flush != nil {
		flush = s.opt.flush
	}
	tick := time.NewTicker(s.opt.flushInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-tick.C:
			// Close's final Flush reports errors; periodic ones only count.
			if err := obs.Guard("nmsld flush", func() { _ = flush() }); err != nil {
				s.reg.Counter(obs.L(obs.MetricPanics, "site", "nmsld")).Inc()
			}
		}
	}
}

// snapshotTenants returns the current tenants in ID order.
func (s *Service) snapshotTenants() []*Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// TenantIDs lists the resident tenants in order.
func (s *Service) TenantIDs() []string {
	ts := s.snapshotTenants()
	ids := make([]string, len(ts))
	for i, t := range ts {
		ids[i] = t.id
	}
	return ids
}

// Tenants summarizes the resident tenants for the list endpoint.
func (s *Service) Tenants() apiv1.TenantsResponse {
	ts := s.snapshotTenants()
	out := apiv1.TenantsResponse{APIVersion: apiv1.Version, Tenants: make([]apiv1.TenantInfo, len(ts))}
	for i, t := range ts {
		out.Tenants[i] = t.info()
	}
	return out
}

// tenant returns the resident tenant, or ErrNoTenant.
func (s *Service) tenant(id string) (*Tenant, error) {
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTenant, id)
	}
	return t, nil
}

// tenantOrCreate returns the resident tenant, creating it when new —
// subject to the ID shape and the tenant cap.
func (s *Service) tenantOrCreate(id string) (*Tenant, error) {
	if !tenantIDPat.MatchString(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenantID, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[id]; t != nil {
		return t, nil
	}
	if s.opt.maxTenants > 0 && len(s.tenants) >= s.opt.maxTenants {
		return nil, fmt.Errorf("%w (%d resident)", ErrTenantLimit, len(s.tenants))
	}
	t := newTenant(id, &s.opt)
	s.tenants[id] = t
	s.gaugeTenantsLocked()
	return t, nil
}

// dropIfEmpty evicts a tenant that never received a specification
// (a creation rolled back after its first upload failed to compile).
func (s *Service) dropIfEmpty(t *Tenant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.mu.Lock()
	empty := t.spec == nil
	t.mu.Unlock()
	// Only drop while still empty and still the resident object — a
	// concurrent upload may have installed a spec in the meantime.
	if empty && s.tenants[t.id] == t {
		delete(s.tenants, t.id)
		s.gaugeTenantsLocked()
	}
}

// RemoveTenant evicts a tenant and deletes its persisted state.
func (s *Service) RemoveTenant(id string) error {
	s.mu.Lock()
	t := s.tenants[id]
	delete(s.tenants, id)
	s.gaugeTenantsLocked()
	s.mu.Unlock()
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoTenant, id)
	}
	if s.opt.stateDir != "" {
		return os.RemoveAll(s.tenantDir(id))
	}
	return nil
}

// tenantDir is where one tenant's state persists.
func (s *Service) tenantDir(id string) string {
	return filepath.Join(s.opt.stateDir, "tenants", id)
}

// gaugeTenants updates the resident-tenant gauge.
func (s *Service) gaugeTenants() {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	if s.reg.Enabled() {
		s.reg.Gauge(MetricTenants).Set(int64(n))
	}
}

func (s *Service) gaugeTenantsLocked() {
	if s.reg.Enabled() {
		s.reg.Gauge(MetricTenants).Set(int64(len(s.tenants)))
	}
}
