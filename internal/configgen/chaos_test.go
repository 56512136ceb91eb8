package configgen

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// startRolloutFleetAgents is startRolloutFleet plus access to the
// agents themselves, keyed by instance ID, so chaos tests can assert on
// ConfigLoads (exactly-once installs) and live digests.
func startRolloutFleetAgents(t *testing.T, m *consistency.Model, admin string) ([]Target, map[string]*snmp.Agent) {
	t.Helper()
	configs := Generate(m)
	var targets []Target
	agents := make(map[string]*snmp.Agent, len(configs))
	for id := range configs {
		store := snmp.NewStore()
		snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
		agent := snmp.NewAgent(store, &snmp.Config{
			Communities:    map[string]*snmp.CommunityConfig{},
			AdminCommunity: admin,
		})
		addr, err := agent.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agent.Close() })
		agents[id] = agent
		targets = append(targets, Target{InstanceID: id, Addr: addr.String(), AdminCommunity: admin})
	}
	return targets, agents
}

// rolloutOpts is the fast-retry option set the chaos tests share.
func chaosOpts(extra ...RolloutOption) []RolloutOption {
	opts := []RolloutOption{
		WithRetries(2),
		WithBackoff(time.Millisecond, 4*time.Millisecond),
		WithAttemptTimeout(200 * time.Millisecond),
		WithMetrics(obs.Disabled),
	}
	return append(opts, extra...)
}

// assertExactlyOnce fails unless every agent saw exactly one config
// install across the crashed run and its resume.
func assertExactlyOnce(t *testing.T, m *consistency.Model, targets []Target, agents map[string]*snmp.Agent) {
	t.Helper()
	configs := Generate(m)
	for _, tgt := range targets {
		agent := agents[tgt.InstanceID]
		if loads := agent.Stats().ConfigLoads; loads != 1 {
			t.Errorf("%s: %d config loads, want exactly 1 (double-apply or lost install)", tgt.InstanceID, loads)
		}
		want := DesiredConfig(configs[tgt.InstanceID], tgt).Digest()
		if got := agent.ConfigSnapshot().Digest(); got != want {
			t.Errorf("%s: live digest %.12s != desired %.12s", tgt.InstanceID, got, want)
		}
	}
}

// TestRolloutResumesAfterCrash is the acceptance bar for the journal: a
// 50-target journaled rollout killed after roughly half the results are
// in resumes from the journal to 50/50 installed with zero duplicate
// applies (every agent's ConfigLoads is exactly 1).
func TestRolloutResumesAfterCrash(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 25, SystemsPerDomain: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startRolloutFleetAgents(t, m, "adm")
	if len(targets) != 50 {
		t.Fatalf("fleet size %d, want 50", len(targets))
	}
	path := filepath.Join(t.TempDir(), "rollout.journal")

	// "Crash": cancel the rollout's context the moment the 25th result
	// lands, mid-wave, exactly as a SIGKILL would strand the journal.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var landed atomic.Int32
	report, err := DistributeContext(ctx, m, targets, chaosOpts(
		WithJournal(path),
		WithOnResult(func(TargetResult) {
			if landed.Add(1) == 25 {
				cancel()
			}
		}),
	)...)
	if err == nil {
		t.Fatalf("crashed rollout reported no error: %s", report.Summary())
	}
	if report.Installed == 0 || report.Installed == len(targets) {
		t.Fatalf("crash timing produced no partial state: %s", report.Summary())
	}
	t.Logf("crashed run: %s", report.Summary())

	resumed, err := ResumeRollout(context.Background(), m, path, chaosOpts()...)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.OK() || resumed.Installed != len(targets) {
		t.Fatalf("resume did not converge: %s", resumed.Summary())
	}
	skipped := 0
	for _, r := range resumed.Results {
		if r.Resumed {
			skipped++
		}
	}
	if skipped < report.Installed {
		t.Errorf("resume re-ran journaled targets: %d resumed < %d previously installed", skipped, report.Installed)
	}
	t.Logf("resumed run: %s (%d satisfied from the journal)", resumed.Summary(), skipped)
	assertExactlyOnce(t, m, targets, agents)
}

// chaosRun counts TestChaosKillResume invocations within one test
// binary so `go test -count=N` kills at a different journal offset each
// run even with a fixed base seed.
var chaosRun atomic.Int64

// TestChaosKillResume kills a journaled rollout at a pseudo-random
// journal offset (seed from NMSL_CHAOS_SEED when set, logged either
// way) and requires resume to converge with exactly-once installs. This
// is the `make chaos` workload.
func TestChaosKillResume(t *testing.T) {
	seed := int64(20260805) + chaosRun.Add(1)
	if env := os.Getenv("NMSL_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("NMSL_CHAOS_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (rerun with NMSL_CHAOS_SEED=%d)", seed, seed)

	m, err := netsim.Model(netsim.Params{Domains: 5, SystemsPerDomain: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startRolloutFleetAgents(t, m, "adm")
	path := filepath.Join(t.TempDir(), "rollout.journal")

	// Kill after 1..len-1 results, single worker so the offset maps
	// deterministically onto journal progress.
	killAfter := int32(1 + seed%int64(len(targets)-1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var landed atomic.Int32
	report, err := DistributeContext(ctx, m, targets, chaosOpts(
		WithWorkers(1),
		WithJournal(path),
		WithJitterSeed(seed),
		WithOnResult(func(TargetResult) {
			if landed.Add(1) == killAfter {
				cancel()
			}
		}),
	)...)
	if err == nil {
		t.Fatalf("killed rollout reported no error: %s", report.Summary())
	}
	t.Logf("killed after %d results: %s", killAfter, report.Summary())

	resumed, err := ResumeRollout(context.Background(), m, path, chaosOpts()...)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.OK() || resumed.Installed != len(targets) {
		t.Fatalf("resume did not converge: %s", resumed.Summary())
	}
	assertExactlyOnce(t, m, targets, agents)
}

// TestCanaryGateRollsBack is the acceptance bar for canary waves: a
// rollout whose first (canary) wave fails its health gate must restore
// every canary target to its pre-image digest, never touch the
// remaining waves, and surface a *GateError.
func TestCanaryGateRollsBack(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 5, SystemsPerDomain: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startRolloutFleetAgents(t, m, "adm")
	if len(targets) != 10 {
		t.Fatalf("fleet size %d, want 10", len(targets))
	}
	// Wave membership follows target order: the first 20% are canaries.
	canaries := map[string]bool{
		targets[0].InstanceID: true,
		targets[1].InstanceID: true,
	}
	preDigest := map[string]string{}
	for _, tgt := range targets {
		preDigest[tgt.InstanceID] = agents[tgt.InstanceID].ConfigSnapshot().Digest()
	}
	path := filepath.Join(t.TempDir(), "rollout.journal")

	gateRuns := 0
	var mu sync.Mutex
	report, err := DistributeContext(context.Background(), m, targets, chaosOpts(
		WithJournal(path),
		WithStages(0.2),
		WithGate(func(_ context.Context, wave []TargetResult) error {
			mu.Lock()
			gateRuns++
			mu.Unlock()
			return fmt.Errorf("injected fault: %d canaries unhealthy", len(wave))
		}),
	)...)

	var gerr *GateError
	if !errors.As(err, &gerr) {
		t.Fatalf("err = %v, want *GateError", err)
	}
	if gerr.Wave != 0 {
		t.Fatalf("gate failed wave %d, want 0", gerr.Wave)
	}
	if gateRuns != 1 {
		t.Fatalf("gate ran %d times; later waves must never be attempted", gateRuns)
	}
	if report.RolledBack != 2 || report.Canceled != 8 || report.Installed != 0 {
		t.Fatalf("counts: %s", report.Summary())
	}
	if report.OK() {
		t.Fatal("rolled-back rollout reported OK")
	}
	if !strings.Contains(report.Summary(), "2 rolled-back") {
		t.Fatalf("Summary omits rolled-back count: %s", report.Summary())
	}

	for _, tgt := range targets {
		agent := agents[tgt.InstanceID]
		got := agent.ConfigSnapshot().Digest()
		if got != preDigest[tgt.InstanceID] {
			t.Errorf("%s: digest %.12s != pre-image %.12s", tgt.InstanceID, got, preDigest[tgt.InstanceID])
		}
		loads := agent.Stats().ConfigLoads
		if canaries[tgt.InstanceID] {
			// install + restore
			if loads != 2 {
				t.Errorf("canary %s: %d config loads, want 2", tgt.InstanceID, loads)
			}
		} else if loads != 0 {
			t.Errorf("non-canary %s was touched: %d config loads", tgt.InstanceID, loads)
		}
	}

	// The journal tells the same story.
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.GateFailed {
		t.Error("journal has no gate-failed record")
	}
	rolledBack := 0
	for _, ts := range st.ByKey {
		if ts.HasResult && ts.Status == StatusRolledBack {
			rolledBack++
		}
	}
	if rolledBack != 2 {
		t.Errorf("journal records %d rolled-back targets, want 2", rolledBack)
	}
}

// TestMaxFailureRateGate: the built-in failure-rate threshold aborts
// and rolls back without any custom gate callback.
func TestMaxFailureRateGate(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startRolloutFleetAgents(t, m, "adm")
	if len(targets) != 4 {
		t.Fatalf("fleet size %d, want 4", len(targets))
	}
	// Break the first canary: nothing listens at port 1.
	dead := targets[0]
	targets[0].Addr = "127.0.0.1:1"
	preDigest := agents[targets[1].InstanceID].ConfigSnapshot().Digest()

	report, err := DistributeContext(context.Background(), m, targets, chaosOpts(
		WithStages(0.5), // wave 0 = targets[0:2]
		WithMaxFailureRate(0.25),
	)...)
	var gerr *GateError
	if !errors.As(err, &gerr) || gerr.Wave != 0 {
		t.Fatalf("err = %v, want *GateError for wave 0", err)
	}
	if report.Failed != 1 || report.RolledBack != 1 || report.Canceled != 2 {
		t.Fatalf("counts: %s", report.Summary())
	}
	// The healthy canary is back on its pre-image; the dead one never
	// reported installed.
	if got := agents[targets[1].InstanceID].ConfigSnapshot().Digest(); got != preDigest {
		t.Errorf("healthy canary not restored: %.12s != %.12s", got, preDigest)
	}
	if loads := agents[dead.InstanceID].Stats().ConfigLoads; loads != 0 {
		t.Errorf("dead target's real agent saw %d config loads", loads)
	}
}

// rolloutBackoff is the delay the retry engine sleeps before retry k.
func rolloutBackoff(o *rolloutOptions, k int) time.Duration {
	return snmp.Backoff(o.backoffBase, o.backoffMax, k, o.jitterInt63n)
}

// TestRolloutJitterSeedDeterministic: with WithJitterSeed the backoff
// sequence is an exact function of the seed, so tests can account for
// sleeps precisely instead of bounding them.
func TestRolloutJitterSeedDeterministic(t *testing.T) {
	mk := func(seed int64) *rolloutOptions {
		opt, err := applyRolloutOptions([]RolloutOption{
			WithBackoff(10*time.Millisecond, time.Second),
			WithJitterSeed(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	a, b, c := mk(7), mk(7), mk(8)
	var sameAsC int
	for k := 0; k < 12; k++ {
		da, db, dc := rolloutBackoff(a, k), rolloutBackoff(b, k), rolloutBackoff(c, k)
		if da != db {
			t.Fatalf("k=%d: same seed diverged: %v vs %v", k, da, db)
		}
		if da == dc {
			sameAsC++
		}
		// Jitter stays within [d/2, 3d/2) of the clamped exponential.
		d := 10 * time.Millisecond << uint(k)
		if d <= 0 || d > time.Second {
			d = time.Second
		}
		if da < d/2 || da >= d/2*3 {
			t.Errorf("k=%d: delay %v outside [%v, %v)", k, da, d/2, d/2*3)
		}
	}
	if sameAsC == 12 {
		t.Error("different seeds produced identical jitter sequences")
	}
}

// TestRolloutBackoffOverflow is the regression for the satellite fix:
// with no configured cap, base << k wrapped negative at large k, the
// clamp guard never fired, and retries tight-looped with zero delay.
func TestRolloutBackoffOverflow(t *testing.T) {
	opt, err := applyRolloutOptions([]RolloutOption{
		WithBackoff(50*time.Millisecond, 0),
		WithJitterSeed(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{40, 62, 63, 64, 100, 1000} {
		d := rolloutBackoff(opt, k)
		if d <= 0 {
			t.Errorf("k=%d: delay %v, want positive (overflow not clamped)", k, d)
		}
		if d > snmp.MaxBackoff+snmp.MaxBackoff/2 {
			t.Errorf("k=%d: delay %v exceeds jittered clamp", k, d)
		}
	}
	// With a cap, the clamp lands at the cap (jitter aside).
	opt2, err := applyRolloutOptions([]RolloutOption{
		WithBackoff(50*time.Millisecond, 2*time.Second),
		WithJitterSeed(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{40, 63, 100} {
		if d := rolloutBackoff(opt2, k); d <= 0 || d > 3*time.Second {
			t.Errorf("capped k=%d: delay %v outside (0, 3s]", k, d)
		}
	}
}

// TestRolloutOptionValidation: malformed stages and rates are rejected
// up front, before any datagram leaves.
func TestRolloutOptionValidation(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]RolloutOption{
		"decreasing stages": {WithStages(0.5, 0.2)},
		"zero stage":        {WithStages(0)},
		"stage above one":   {WithStages(0.5, 1.5)},
		"rate of one":       {WithMaxFailureRate(1)},
	} {
		if _, err := DistributeContext(context.Background(), m, nil, opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
