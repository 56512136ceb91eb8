package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/netsim"
)

// Synthetic many-tenant load generation (make svc-smoke, experiment
// E-SVC-1). The generator is a real HTTP client: it exercises the
// daemon exactly the way external callers do — JSON bodies over the
// versioned routes — so the measured numbers include the wire, not just
// the library.

// LoadConfig sizes a load run.
type LoadConfig struct {
	// BaseURL of a running daemon, e.g. "http://127.0.0.1:9380".
	BaseURL string
	// Tenants is how many distinct tenants to install and drive.
	Tenants int
	// DomainsPerTenant and SystemsPerDomain size each tenant's
	// synthetic internet (distinct seeds per tenant).
	DomainsPerTenant int
	SystemsPerDomain int
	// Duration bounds the sustained delta-check phase.
	Duration time.Duration
	// Conc is the number of concurrent client workers.
	Conc int
	// Client sends the requests (httptest's for an in-process daemon).
	Client *http.Client
}

// LoadResult is what a run measured; its JSON shape is the
// BENCH_svc.json contract the budgets are checked on.
type LoadResult struct {
	Tenants      int     `json:"tenants"`
	DurationSec  float64 `json:"duration_s"`
	ColdChecks   int64   `json:"cold_checks"`
	DeltaChecks  int64   `json:"delta_checks"`
	ChecksPerSec float64 `json:"checks_per_sec"`
	WarmP50NS    int64   `json:"warm_p50_ns"`
	WarmP90NS    int64   `json:"warm_p90_ns"`
	WarmP99NS    int64   `json:"warm_p99_ns"`
	RateLimited  int64   `json:"rate_limited"`
	Busy         int64   `json:"busy"`
	Errors       int64   `json:"errors"`
	ViolationsOK bool    `json:"violations_ok"`
	CheckedTotal int64   `json:"refs_checked_total"`
	CacheHitsEnd int64   `json:"cache_hits_end"`
	CacheMissEnd int64   `json:"cache_misses_end"`
}

// tenantParams gives tenant i its own deterministic synthetic
// internet; distinct seeds make cross-tenant result bleed detectable
// (each tenant's violation count is predicted by its own params).
func tenantParams(cfg *LoadConfig, i int) netsim.Params {
	return netsim.Params{
		Domains:           cfg.DomainsPerTenant,
		SystemsPerDomain:  cfg.SystemsPerDomain,
		InconsistencyRate: 0.25,
		Seed:              int64(1000 + i),
	}
}

// RunLoad installs cfg.Tenants synthetic tenants, cold-checks each
// once, then drives sustained delta-checks from cfg.Conc workers until
// cfg.Duration elapses, verifying every report against the tenant's
// expected violation count.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	res := &LoadResult{Tenants: cfg.Tenants, ViolationsOK: true}

	type tstate struct {
		id   string
		want int
	}
	tenants := make([]tstate, cfg.Tenants)
	for i := range tenants {
		p := tenantParams(&cfg, i)
		id := fmt.Sprintf("load-%03d", i)
		tenants[i] = tstate{id: id, want: netsim.ExpectedViolations(p)}
		req := apiv1.SpecRequest{Sources: []apiv1.Source{{Name: id + ".nmsl", Text: netsim.Source(p)}}}
		if _, err := doJSON[apiv1.SpecResponse](ctx, cfg.Client, http.MethodPut,
			cfg.BaseURL+"/v1/tenants/"+id+"/spec", req); err != nil {
			return nil, fmt.Errorf("loadgen: installing %s: %w", id, err)
		}
	}

	// Cold pass: every tenant proves its full reference set once,
	// populating the result cache and the delta substrate.
	for i := range tenants {
		rep, err := doJSON[apiv1.CheckResponse](ctx, cfg.Client, http.MethodPost,
			cfg.BaseURL+"/v1/tenants/"+tenants[i].id+"/check", apiv1.CheckRequest{})
		if err != nil {
			return nil, fmt.Errorf("loadgen: cold check %s: %w", tenants[i].id, err)
		}
		res.ColdChecks++
		res.CheckedTotal += int64(rep.Report.RefsChecked)
		if len(rep.Report.Violations) != tenants[i].want {
			res.ViolationsOK = false
		}
	}

	// Sustained warm phase: workers round-robin tenants with
	// delta-checks; each latency sample is one wire round trip.
	var (
		mu        sync.Mutex
		lat       []time.Duration
		next      atomic.Int64
		deltaN    atomic.Int64
		refsN     atomic.Int64
		limited   atomic.Int64
		busy      atomic.Int64
		errsN     atomic.Int64
		badCounts atomic.Int64
	)
	deadline := time.Now().Add(cfg.Duration)
	runCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && runCtx.Err() == nil {
				t := &tenants[int(next.Add(1))%len(tenants)]
				start := time.Now()
				rep, err := doJSON[apiv1.CheckResponse](runCtx, cfg.Client, http.MethodPost,
					cfg.BaseURL+"/v1/tenants/"+t.id+"/delta-check", apiv1.CheckRequest{})
				if err != nil {
					switch {
					case errCode(err) == http.StatusTooManyRequests:
						limited.Add(1)
					case errCode(err) == http.StatusServiceUnavailable:
						busy.Add(1)
					case runCtx.Err() != nil:
						// deadline tripped mid-request: not an error
					default:
						errsN.Add(1)
					}
					continue
				}
				el := time.Since(start)
				deltaN.Add(1)
				refsN.Add(int64(rep.Report.RefsChecked))
				if len(rep.Report.Violations) != t.want {
					badCounts.Add(1)
				}
				mu.Lock()
				lat = append(lat, el)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	res.DeltaChecks = deltaN.Load()
	res.CheckedTotal += refsN.Load()
	res.RateLimited = limited.Load()
	res.Busy = busy.Load()
	res.Errors = errsN.Load()
	if badCounts.Load() > 0 {
		res.ViolationsOK = false
	}
	res.DurationSec = cfg.Duration.Seconds()
	if res.DurationSec > 0 {
		res.ChecksPerSec = float64(res.DeltaChecks) / res.DurationSec
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.WarmP50NS = int64(percentile(lat, 0.50))
	res.WarmP90NS = int64(percentile(lat, 0.90))
	res.WarmP99NS = int64(percentile(lat, 0.99))

	// Final cache stats from an arbitrary tenant round out the record.
	if info, err := doJSON[apiv1.TenantInfo](ctx, cfg.Client, http.MethodGet,
		cfg.BaseURL+"/v1/tenants/"+tenants[0].id, nil); err == nil && info.Cache != nil {
		res.CacheHitsEnd = info.Cache.Hits
		res.CacheMissEnd = info.Cache.Misses
	}
	return res, nil
}

// percentile reads the p-quantile from sorted samples (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// httpError carries a non-2xx response's code and decoded envelope.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.msg) }

// errCode extracts the status code of an httpError, 0 otherwise.
func errCode(err error) int {
	if he, ok := err.(*httpError); ok {
		return he.code
	}
	return 0
}

// doJSON performs one JSON round trip against the daemon.
func doJSON[T any](ctx context.Context, client *http.Client, method, url string, body any) (*T, error) {
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var envelope apiv1.Error
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		return nil, &httpError{code: resp.StatusCode, msg: envelope.Message}
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
