package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/paperspec"
)

func newTestService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	opts = append([]Option{WithMetrics(obs.Disabled)}, opts...)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// specReqFor renders tenant i's synthetic internet as a wire request.
func specReqFor(p netsim.Params) *apiv1.SpecRequest {
	return &apiv1.SpecRequest{Sources: []apiv1.Source{{Name: "net.nmsl", Text: netsim.Source(p)}}}
}

// TestManyTenantsConcurrent is the isolation proof: 64 tenants, each a
// different synthetic internet with a known violation count, all
// checking concurrently (full and delta interleaved). Any cross-tenant
// state bleed shows up as a wrong violation count; any data race shows
// up under -race (make ci runs this package with -race).
func TestManyTenantsConcurrent(t *testing.T) {
	const tenants = 64
	s := newTestService(t, WithAdmission(8, tenants*4))

	type tc struct {
		id   string
		p    netsim.Params
		want int
	}
	cases := make([]tc, tenants)
	for i := range cases {
		p := netsim.Params{
			Domains:           1 + i%3,
			SystemsPerDomain:  1 + i%4,
			InconsistencyRate: 0.5,
			Seed:              int64(i),
		}
		cases[i] = tc{id: fmt.Sprintf("t%02d", i), p: p, want: netsim.ExpectedViolations(p)}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, tenants)
	for i := range cases {
		wg.Add(1)
		go func(c tc) {
			defer wg.Done()
			if _, err := s.UpdateSpec(ctx, c.id, specReqFor(c.p)); err != nil {
				errc <- fmt.Errorf("%s: update: %w", c.id, err)
				return
			}
			for round := 0; round < 4; round++ {
				var rep *apiv1.CheckResponse
				var err error
				if round%2 == 0 {
					rep, err = s.Check(ctx, c.id, nil)
				} else {
					rep, err = s.DeltaCheck(ctx, c.id, nil)
				}
				if err != nil {
					errc <- fmt.Errorf("%s round %d: %w", c.id, round, err)
					return
				}
				if got := len(rep.Report.Violations); got != c.want {
					errc <- fmt.Errorf("%s round %d: %d violations, want %d — cross-tenant interference",
						c.id, round, got, c.want)
					return
				}
				if rep.Tenant != c.id {
					errc <- fmt.Errorf("response for %s labeled %s", c.id, rep.Tenant)
					return
				}
			}
		}(cases[i])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := len(s.TenantIDs()); got != tenants {
		t.Errorf("resident tenants = %d, want %d", got, tenants)
	}
}

// TestDeltaCheckAfterEdit proves the daemon's delta path: after a spec
// update the accumulated delta drives an incremental re-check whose
// verdict matches a from-scratch check.
func TestDeltaCheckAfterEdit(t *testing.T) {
	s := newTestService(t)
	ctx := context.Background()
	p := netsim.Params{Domains: 3, SystemsPerDomain: 3, InconsistencyRate: 0.5, Seed: 7}
	if _, err := s.UpdateSpec(ctx, "acme", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	first, err := s.Check(ctx, "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Delta {
		t.Fatal("first check cannot be a delta run")
	}
	if got, want := len(first.Report.Violations), netsim.ExpectedViolations(p); got != want {
		t.Fatalf("cold check: %d violations, want %d", got, want)
	}

	// Same topology, new seed: different pollers misbehave.
	p2 := p
	p2.Seed = 8
	up, err := s.UpdateSpec(ctx, "acme", specReqFor(p2))
	if err != nil {
		t.Fatal(err)
	}
	if up.Generation != 2 {
		t.Fatalf("generation = %d, want 2", up.Generation)
	}
	warm, err := s.DeltaCheck(ctx, "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Delta {
		t.Fatal("second check should take the delta path")
	}
	if got, want := len(warm.Report.Violations), netsim.ExpectedViolations(p2); got != want {
		t.Fatalf("delta check: %d violations, want %d", got, want)
	}
	// And an untouched re-check replays everything.
	again, err := s.DeltaCheck(ctx, "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Delta || len(again.Report.Violations) != len(warm.Report.Violations) {
		t.Fatalf("no-op delta check changed the verdict: %+v", again.Report.Summary)
	}
}

// TestRestartKeepsWarm is the kill-and-restart proof: a new Service
// over the same state directory recompiles the tenants and reloads
// their caches, so the first post-restart check hits the cache instead
// of re-proving every reference.
func TestRestartKeepsWarm(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p := netsim.Params{Domains: 4, SystemsPerDomain: 4, InconsistencyRate: 0.25, Seed: 42}
	want := netsim.ExpectedViolations(p)

	s1 := newTestService(t, WithStateDir(dir), WithFlushInterval(0))
	if _, err := s1.UpdateSpec(ctx, "acme", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	cold, err := s1.Check(ctx, "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Hits != 0 {
		t.Fatalf("cold check had %d cache hits", cold.Cache.Hits)
	}
	if err := s1.Close(); err != nil { // flushes the dirty cache
		t.Fatal(err)
	}

	// "Restart": a fresh Service over the same state directory. The
	// old one is abandoned, as after a crash (Close already flushed —
	// crash-safety of the file itself is the atomic-rename discipline).
	s2 := newTestService(t, WithStateDir(dir), WithFlushInterval(0))
	if got := s2.TenantIDs(); len(got) != 1 || got[0] != "acme" {
		t.Fatalf("restart lost tenants: %v", got)
	}
	warm, err := s2.Check(ctx, "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(warm.Report.Violations); got != want {
		t.Fatalf("post-restart check: %d violations, want %d", got, want)
	}
	if warm.Cache.Hits == 0 {
		t.Fatalf("post-restart check was cold: %+v", warm.Cache)
	}
	if warm.Cache.Misses != 0 {
		t.Errorf("post-restart check missed %d entries (fingerprints drifted?)", warm.Cache.Misses)
	}
}

// TestRateLimit drives a tenant's token bucket through a fake clock:
// burst admits, the next request bounces, a refill admits again —
// and the rejected request must not consume budget.
func TestRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestService(t,
		WithRateLimit(1, 2),
		WithClock(func() time.Time { return now }))
	ctx := context.Background()
	p := netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1}

	// The burst pays for the spec upload + one check.
	if _, err := s.UpdateSpec(ctx, "acme", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Check(ctx, "acme", nil); err != nil {
		t.Fatal(err)
	}
	// Bucket empty: rejected, repeatedly (no budget consumed by rejects).
	for i := 0; i < 3; i++ {
		if _, err := s.Check(ctx, "acme", nil); !errors.Is(err, ErrRateLimited) {
			t.Fatalf("want ErrRateLimited, got %v", err)
		}
	}
	// Half a second refills half a token: still rejected.
	now = now.Add(500 * time.Millisecond)
	if _, err := s.Check(ctx, "acme", nil); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want ErrRateLimited after partial refill, got %v", err)
	}
	// A full second's refill admits exactly one.
	now = now.Add(600 * time.Millisecond)
	if _, err := s.Check(ctx, "acme", nil); err != nil {
		t.Fatalf("refilled bucket rejected: %v", err)
	}
	if _, err := s.Check(ctx, "acme", nil); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want ErrRateLimited, got %v", err)
	}
}

// TestRateLimitPerTenant proves one tenant exhausting its bucket does
// not touch another's.
func TestRateLimitPerTenant(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newTestService(t,
		WithRateLimit(0.001, 2), // effectively no refill within the test
		WithClock(func() time.Time { return now }))
	ctx := context.Background()
	p := netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1}
	for _, id := range []string{"a", "b"} {
		if _, err := s.UpdateSpec(ctx, id, specReqFor(p)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain tenant a.
	if _, err := s.Check(ctx, "a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Check(ctx, "a", nil); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("tenant a should be limited, got %v", err)
	}
	// Tenant b still has its own budget.
	if _, err := s.Check(ctx, "b", nil); err != nil {
		t.Fatalf("tenant b was starved by tenant a: %v", err)
	}
}

// TestAdmissionQueueFull fills every slot and the whole wait queue with
// blocked acquirers, then asserts the next request bounces with
// ErrBusy instead of queueing unboundedly.
func TestAdmissionQueueFull(t *testing.T) {
	adm := newAdmission(1, 1)
	ctx := context.Background()

	release, err := adm.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue.
	waiterDone := make(chan struct{})
	waiterCtx, cancelWaiter := context.WithCancel(ctx)
	defer cancelWaiter()
	go func() {
		defer close(waiterDone)
		if rel, err := adm.acquire(waiterCtx); err == nil {
			rel()
		}
	}()
	// Wait until the waiter is counted.
	for i := 0; adm.waiters.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// Queue full: immediate ErrBusy.
	if _, err := adm.acquire(ctx); !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	// A canceled waiter returns its context error.
	shortCtx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := adm.acquire(shortCtx); !errors.Is(err, context.Canceled) && !errors.Is(err, ErrBusy) {
		t.Fatalf("want Canceled or Busy, got %v", err)
	}
	release()
	<-waiterDone
}

// TestTenantLifecycle exercises the management surface: ID validation,
// the tenant cap, removal, and the no-spec error.
func TestTenantLifecycle(t *testing.T) {
	s := newTestService(t, WithMaxTenants(2))
	ctx := context.Background()
	p := netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1}

	if _, err := s.UpdateSpec(ctx, "../evil", specReqFor(p)); !errors.Is(err, ErrBadTenantID) {
		t.Fatalf("path-escaping ID accepted: %v", err)
	}
	if _, err := s.UpdateSpec(ctx, "", specReqFor(p)); !errors.Is(err, ErrBadTenantID) {
		t.Fatalf("empty ID accepted: %v", err)
	}
	if _, err := s.Check(ctx, "ghost", nil); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("want ErrNoTenant, got %v", err)
	}
	if _, err := s.UpdateSpec(ctx, "a", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateSpec(ctx, "b", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateSpec(ctx, "c", specReqFor(p)); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("want ErrTenantLimit, got %v", err)
	}
	if err := s.RemoveTenant("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateSpec(ctx, "c", specReqFor(p)); err != nil {
		t.Fatalf("slot freed by removal not reusable: %v", err)
	}
	if err := s.RemoveTenant("ghost"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("want ErrNoTenant, got %v", err)
	}
	if _, err := s.UpdateSpec(ctx, "c", &apiv1.SpecRequest{}); !errors.Is(err, ErrCompile) {
		t.Fatalf("empty spec accepted: %v", err)
	}
	bad := &apiv1.SpecRequest{Sources: []apiv1.Source{{Name: "x.nmsl", Text: "domain {"}}}
	if _, err := s.UpdateSpec(ctx, "c", bad); !errors.Is(err, ErrCompile) {
		t.Fatalf("want ErrCompile, got %v", err)
	}
}

// TestGenerateRefusesInconsistent pins the paper's execution rule: only
// a consistent specification may be executed (generate/rollout).
func TestGenerateRefusesInconsistent(t *testing.T) {
	s := newTestService(t)
	ctx := context.Background()
	p := netsim.Params{Domains: 2, SystemsPerDomain: 2, InconsistencyRate: 1.0, Seed: 3}
	if netsim.ExpectedViolations(p) == 0 {
		t.Fatal("test wants an inconsistent spec")
	}
	if _, err := s.UpdateSpec(ctx, "acme", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	// Generate triggers the implicit check and must refuse.
	if _, err := s.Generate(ctx, "acme"); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
	if _, err := s.Rollout(ctx, "acme", &apiv1.RolloutRequest{
		Targets: []apiv1.RolloutRequestTarget{{Instance: "x", Addr: "127.0.0.1:1"}},
	}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("rollout of inconsistent spec: %v", err)
	}

	// A consistent revision unblocks generation...
	good := p
	good.InconsistencyRate = 0
	if _, err := s.UpdateSpec(ctx, "acme", specReqFor(good)); err != nil {
		t.Fatal(err)
	}
	out, err := s.Generate(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Configs) == 0 {
		t.Fatal("no configs generated")
	}
	// ...and the verdict tracks the generation: a bad re-upload refuses
	// again even though the last completed check said consistent.
	if _, err := s.UpdateSpec(ctx, "acme", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate(ctx, "acme"); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("stale consistency verdict honored: %v", err)
	}
}

// TestCacheCapAppliesToTenants proves the service plumbs the LRU cap
// into tenant caches.
func TestCacheCapAppliesToTenants(t *testing.T) {
	s := newTestService(t, WithCacheMaxEntries(2))
	ctx := context.Background()
	p := netsim.Params{Domains: 3, SystemsPerDomain: 3, Seed: 5}
	if _, err := s.UpdateSpec(ctx, "acme", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check(ctx, "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report.RefsChecked <= 2 {
		t.Fatalf("model too small to exercise the cap: %d refs", rep.Report.RefsChecked)
	}
	if rep.Cache.Entries > 2 {
		t.Fatalf("cache grew past the cap: %d entries", rep.Cache.Entries)
	}
	if rep.Cache.Evictions == 0 {
		t.Fatal("cap produced no evictions")
	}
}

// TestGenerateResponseBytes pins the generate endpoint's bytes to
// encoding/json's: each configuration blob is snmp.MarshalConfig's
// direct encoding, and both it and the whole response must read exactly
// as json.Marshal of the same configurations would, over the testdata
// corpus and the paper's specification.
func TestGenerateResponseBytes(t *testing.T) {
	s := newTestService(t)
	ctx := context.Background()
	reqs := map[string]*apiv1.SpecRequest{
		"paperspec": {Sources: []apiv1.Source{{Name: "paper.nmsl", Text: paperspec.Combined}}},
	}
	files, err := filepath.Glob("../../testdata/*.nmsl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata corpus: %v", err)
	}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		req := &apiv1.SpecRequest{Sources: []apiv1.Source{{Name: filepath.Base(path), Text: string(text)}}}
		if filepath.Base(path) == "machineroom.nmsl" {
			ext, err := os.ReadFile("../../testdata/proxy.nmslext")
			if err != nil {
				t.Fatal(err)
			}
			req.Extensions = []apiv1.Source{{Name: "proxy.nmslext", Text: string(ext)}}
		}
		reqs[strings.TrimSuffix(filepath.Base(path), ".nmsl")] = req
	}
	configs := 0
	for id, req := range reqs {
		if _, err := s.UpdateSpec(ctx, id, req); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out, err := s.Generate(ctx, id)
		if errors.Is(err, ErrInconsistent) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tn, err := s.tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		want := *out
		want.Configs = map[string]json.RawMessage{}
		for inst, cfg := range tn.spec.AgentConfigs() {
			if want.Configs[inst], err = json.Marshal(cfg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Configs[inst], want.Configs[inst]) {
				t.Errorf("%s %s:\n got %s\nwant %s", id, inst, out.Configs[inst], want.Configs[inst])
			}
		}
		t.Logf("%s: %d configurations", id, len(want.Configs))
		configs += len(want.Configs)
		gb, _ := json.Marshal(out)
		wb, _ := json.Marshal(&want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: response\n got %s\nwant %s", id, gb, wb)
		}
	}
	if configs == 0 {
		t.Fatal("no consistent specification generated a configuration")
	}
}
