package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmsl/internal/service"
)

// TestLoadRunWritesBench drives a small in-process load run and checks
// the BENCH_svc.json contract. The budgets are TestBudget's subject, so
// this run sets them out of reach of a loaded test host.
func TestLoadRunWritesBench(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_svc.json")
	var stdout, stderr strings.Builder
	code := run([]string{
		"-tenants", "4", "-domains", "2", "-systems", "2",
		"-duration", "300ms", "-conc", "2", "-out", out,
		"-max-warm-p99", "1h", "-min-checks-per-sec", "0",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res LoadResult
	if err := json.Unmarshal(blob, &res); err != nil {
		t.Fatal(err)
	}
	if res.Tenants != 4 || res.ColdChecks != 4 || res.DeltaChecks == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if !res.ViolationsOK || res.Errors != 0 {
		t.Fatalf("load run unhealthy: %+v", res)
	}
	if !strings.Contains(stdout.String(), "checks/s") {
		t.Fatalf("summary missing: %q", stdout.String())
	}
}

func TestLoadBadFlags(t *testing.T) {
	var stdout, stderr strings.Builder
	for _, args := range [][]string{{"-no-such-flag"}, {"-tenants", "0"}, {"-conc", "-1"}, {"-duration", "0s"}} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestRunLoadSmoke drives the load generator against an in-process
// server — the same path make svc-smoke takes, shrunk for test time.
func TestRunLoadSmoke(t *testing.T) {
	svc, err := service.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	res, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:          ts.URL,
		Client:           ts.Client(),
		Tenants:          6,
		DomainsPerTenant: 2,
		SystemsPerDomain: 2,
		Duration:         300 * time.Millisecond,
		Conc:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ViolationsOK {
		t.Fatal("load run saw wrong violation counts")
	}
	if res.ColdChecks != 6 || res.DeltaChecks == 0 || res.Errors != 0 {
		t.Fatalf("bad load result: %+v", res)
	}
	if res.WarmP99NS <= 0 || res.WarmP50NS > res.WarmP99NS {
		t.Fatalf("bad percentiles: p50=%d p99=%d", res.WarmP50NS, res.WarmP99NS)
	}
}

// TestBudget: a measured run is written to -out and then fails on a
// warm p99 over budget, throughput under the floor, a wrong violation
// count or request errors, each with its own line on stderr.
func TestBudget(t *testing.T) {
	healthy := LoadResult{
		Tenants:      64,
		DeltaChecks:  10000,
		ChecksPerSec: 5000,
		WarmP99NS:    3_000_000, // 3ms
		ViolationsOK: true,
	}
	for _, tc := range []struct {
		name   string
		edit   func(*LoadResult)
		maxP99 time.Duration
		code   int
		stderr string
	}{
		{"pass", func(*LoadResult) {}, 250 * time.Millisecond, 0, ""},
		{"slow p99", func(r *LoadResult) { r.WarmP99NS = 400_000_000 }, 250 * time.Millisecond, 1, "warm p99 400ms > budget 250ms"},
		{"low throughput", func(r *LoadResult) { r.ChecksPerSec = 3 }, 250 * time.Millisecond, 1, "3 checks/s < floor 50"},
		{"bad counts", func(r *LoadResult) { r.ViolationsOK = false }, 250 * time.Millisecond, 1, "violation count mismatch"},
		{"errors", func(r *LoadResult) { r.Errors = 7 }, 250 * time.Millisecond, 1, "7 request errors"},
		{"custom budget", func(*LoadResult) {}, time.Millisecond, 1, "warm p99 3ms > budget 1ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := healthy
			tc.edit(&res)
			out := filepath.Join(t.TempDir(), "BENCH_svc.json")
			var stdout, stderr strings.Builder
			if code := report(&res, out, tc.maxP99, 50, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d: %s", code, tc.code, stderr.String())
			}
			if tc.stderr == "" && stderr.Len() != 0 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q, want %q", stderr.String(), tc.stderr)
			}
			var back LoadResult
			if blob, err := os.ReadFile(out); err != nil || json.Unmarshal(blob, &back) != nil || back != res {
				t.Errorf("-out not written before the verdict: %v %+v", err, back)
			}
		})
	}
}
