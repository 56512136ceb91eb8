// nmslload is the synthetic many-tenant load generator for nmsld
// (experiment E-SVC-1, make svc-smoke).
//
// It installs N tenants — each a distinct synthetic internet from
// internal/netsim — cold-checks each one, then drives sustained
// delta-checks from concurrent workers, measuring throughput and warm
// latency percentiles over the wire. Every report is verified against
// the tenant's expected violation count, so the run doubles as a
// cross-tenant isolation check: a verdict bleeding between tenants
// shows up as a wrong count.
//
// The run is also the latency SLO gate of make svc-smoke: it fails when
// the warm delta-check p99 exceeds -max-warm-p99 or the sustained
// throughput falls below -min-checks-per-sec. The defaults are
// deliberately loose — an order of magnitude above the measured numbers
// on the development machine — so the gate catches a real regression
// (an accidental cold path, a lock added to the warm loop) rather than
// scheduler noise on shared CI runners.
//
// Usage:
//
//	nmslload [-addr a] [-tenants n] [-domains n] [-systems n]
//	         [-duration d] [-conc n] [-out BENCH_svc.json]
//	         [-max-warm-p99 d] [-min-checks-per-sec n]
//
// With no -addr it spins up an in-process daemon on a loopback port,
// so a load run needs no prior setup. -out writes the measured
// LoadResult as JSON, before the budgets are checked.
//
// Exit status: 0 on success, 1 when any report had the wrong violation
// count, any request errored or a budget was missed, 2 on usage/setup
// errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"time"

	"nmsl/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nmslload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "daemon base URL (empty = in-process daemon)")
	tenants := fs.Int("tenants", 64, "number of tenants to install and drive")
	domains := fs.Int("domains", 4, "domains per tenant")
	systems := fs.Int("systems", 4, "systems per domain")
	duration := fs.Duration("duration", 3*time.Second, "sustained delta-check phase length")
	conc := fs.Int("conc", 8, "concurrent client workers")
	out := fs.String("out", "", "write the measured LoadResult JSON here")
	maxP99 := fs.Duration("max-warm-p99", 250*time.Millisecond, "warm delta-check p99 budget")
	minRate := fs.Float64("min-checks-per-sec", 50, "sustained delta-check throughput floor")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tenants < 1 || *domains < 1 || *systems < 1 || *duration <= 0 || *conc < 1 {
		fmt.Fprintln(stderr, "nmslload: -tenants, -domains, -systems, -duration and -conc must be positive")
		return 2
	}

	cfg := LoadConfig{
		BaseURL:          *addr,
		Tenants:          *tenants,
		DomainsPerTenant: *domains,
		SystemsPerDomain: *systems,
		Duration:         *duration,
		Conc:             *conc,
	}
	if cfg.BaseURL == "" {
		svc, err := service.New()
		if err != nil {
			fmt.Fprintf(stderr, "nmslload: %v\n", err)
			return 2
		}
		defer svc.Close()
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		cfg.BaseURL = ts.URL
		cfg.Client = ts.Client()
		fmt.Fprintf(stdout, "nmslload: in-process daemon at %s\n", ts.URL)
	} else {
		cfg.Client = http.DefaultClient
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := RunLoad(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "nmslload: %v\n", err)
		return 2
	}
	return report(res, *out, *maxP99, *minRate, stdout, stderr)
}

// report prints res, writes it to out (when set) and then checks it:
// exit 1 on a wrong violation count, a request error, a warm p99 over
// maxP99 or fewer than minRate delta-checks per second.
func report(res *LoadResult, out string, maxP99 time.Duration, minRate float64, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout,
		"nmslload: %d tenants, %d cold + %d delta checks in %.1fs (%.0f checks/s)\n",
		res.Tenants, res.ColdChecks, res.DeltaChecks, res.DurationSec, res.ChecksPerSec)
	fmt.Fprintf(stdout, "nmslload: warm latency p50=%s p90=%s p99=%s\n",
		time.Duration(res.WarmP50NS), time.Duration(res.WarmP90NS), time.Duration(res.WarmP99NS))
	fmt.Fprintf(stdout, "nmslload: cache hits=%d misses=%d; rate-limited=%d busy=%d errors=%d\n",
		res.CacheHitsEnd, res.CacheMissEnd, res.RateLimited, res.Busy, res.Errors)
	if out != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "nmslload: %v\n", err)
			return 2
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			fmt.Fprintf(stderr, "nmslload: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "nmslload: wrote %s\n", out)
	}

	p99 := time.Duration(res.WarmP99NS)
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "nmslload: FAIL "+format+"\n", args...)
		ok = false
	}
	if !res.ViolationsOK {
		fail("violation count mismatch — cross-tenant interference or checker regression")
	}
	if res.Errors > 0 {
		fail("%d request errors", res.Errors)
	}
	if p99 > maxP99 {
		fail("warm p99 %s > budget %s", p99, maxP99)
	}
	if res.ChecksPerSec < minRate {
		fail("%.0f checks/s < floor %.0f", res.ChecksPerSec, minRate)
	}
	if !ok {
		return 1
	}
	fmt.Fprintf(stdout, "nmslload: OK warm p99 %s <= %s, %.0f checks/s >= %.0f\n", p99, maxP99, res.ChecksPerSec, minRate)
	return 0
}
