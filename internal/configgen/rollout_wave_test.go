package configgen

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// startMemFleet hosts one agent per model instance on an in-memory
// network instead of UDP sockets, returning rollout targets with mem://
// addresses. The per-host injectors are reachable through the returned
// MemNet for chaos shaping.
func startMemFleet(t *testing.T, m *consistency.Model, admin, netName string) ([]Target, map[string]*snmp.Agent, *snmp.MemNet) {
	t.Helper()
	n, err := snmp.NewMemNet(netName, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
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
		if _, err := n.AddHost(id, agent); err != nil {
			t.Fatal(err)
		}
		agents[id] = agent
		targets = append(targets, Target{InstanceID: id, Addr: n.Addr(id), AdminCommunity: admin})
	}
	return targets, agents, n
}

// TestWaveProgressStream: a staged rollout reports one WaveResult per
// wave, in order, spans covering every target exactly once, with counts
// agreeing with the final report.
func TestWaveProgressStream(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	targets, _, _ := startMemFleet(t, m, "adm", "waves")

	var seen []WaveResult
	report, err := DistributeContext(context.Background(), m, targets, chaosOpts(
		WithStages(0.1, 0.5),
		WithMaxFailureRate(0),
		WithOnWave(func(w WaveResult) { seen = append(seen, w) }),
	)...)
	if err != nil || !report.OK() {
		t.Fatalf("rollout: %v (%s)", err, report.Summary())
	}
	if len(seen) != 3 {
		t.Fatalf("streamed %d waves, want 3 (10%%, 50%%, rest)", len(seen))
	}
	if len(report.Waves) != 3 {
		t.Fatalf("report has %d waves, want 3", len(report.Waves))
	}
	covered := 0
	for i, w := range seen {
		if w.Wave != i {
			t.Errorf("wave %d streamed out of order (index %d)", w.Wave, i)
		}
		if w.Start != covered {
			t.Errorf("wave %d starts at %d, want %d (gap or overlap)", i, w.Start, covered)
		}
		covered = w.End
		if span := w.End - w.Start; w.Installed != span {
			t.Errorf("wave %d: %d installed of %d", i, w.Installed, span)
		}
		if w.GateErr != nil {
			t.Errorf("wave %d: unexpected gate error %v", i, w.GateErr)
		}
	}
	if covered != len(targets) {
		t.Fatalf("waves covered %d targets, want %d", covered, len(targets))
	}
	total := 0
	for _, w := range report.Waves {
		total += w.Installed
	}
	if total != report.Installed {
		t.Fatalf("wave installed sum %d != report installed %d", total, report.Installed)
	}
}

// TestWaveStreamOnGateFailure: a wave that fails its gate streams with
// GateErr set and its rollback already reflected in the counts, and the
// never-started waves stream as canceled.
func TestWaveStreamOnGateFailure(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	targets, _, _ := startMemFleet(t, m, "adm", "gatewaves")

	var seen []WaveResult
	boom := errors.New("canary unhealthy")
	report, err := DistributeContext(context.Background(), m, targets, chaosOpts(
		WithStages(0.25),
		WithGate(func(context.Context, []TargetResult) error { return boom }),
		WithOnWave(func(w WaveResult) { seen = append(seen, w) }),
	)...)
	var ge *GateError
	if !errors.As(err, &ge) {
		t.Fatalf("err = %v, want *GateError", err)
	}
	if len(seen) != 2 {
		t.Fatalf("streamed %d waves, want 2", len(seen))
	}
	first, rest := seen[0], seen[1]
	if first.GateErr == nil || !errors.Is(first.GateErr, boom) {
		t.Fatalf("first wave GateErr = %v, want the gate's error", first.GateErr)
	}
	if first.RolledBack != first.End-first.Start || first.Installed != 0 {
		t.Fatalf("first wave after gate failure: %+v, want all rolled back", first)
	}
	if rest.Canceled != rest.End-rest.Start {
		t.Fatalf("remaining wave: %+v, want all canceled", rest)
	}
	if report.RolledBack != first.RolledBack || report.Canceled != rest.Canceled {
		t.Fatalf("report (%s) disagrees with wave stream", report.Summary())
	}
}

// TestRolloutAckLossExactlyOnce: every agent's first acknowledgment is
// eaten by the network; the retry layer re-sends, the agent's
// retransmit cache answers, and no agent applies its configuration
// twice. This is the wire-level exactly-once property the prepared
// (stable request ID) install provides — with a fresh request ID per
// attempt, every one of these agents would load twice.
func TestRolloutAckLossExactlyOnce(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents, n := startMemFleet(t, m, "adm", "ackloss")
	for _, host := range n.Hosts() {
		n.Injector(host).SetFaults(snmp.Faults{}, snmp.Faults{DropFirst: 1})
	}

	report, err := DistributeContext(context.Background(), m, targets, chaosOpts()...)
	if err != nil || !report.OK() {
		t.Fatalf("rollout under ack loss: %v (%s)", err, report.Summary())
	}
	assertExactlyOnce(t, m, targets, agents)
	if report.Attempts <= len(targets) {
		t.Fatalf("attempts %d: ack loss should have forced retries beyond %d", report.Attempts, len(targets))
	}
}

// TestRolloutCancelPromptDuringAttempt: canceling a rollout mid-attempt
// against silent targets returns promptly — the attempt's blocked read
// and the backoff sleeps both honor the context, so cancellation never
// waits out a timeout or a backoff. Regression test for the prompt-
// cancellation guarantee.
func TestRolloutCancelPromptDuringAttempt(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 4, SystemsPerDomain: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	targets, _, n := startMemFleet(t, m, "adm", "cancelprompt")
	for _, host := range n.Hosts() {
		n.SetDown(host, true) // nobody will ever answer
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	report, err := DistributeContext(ctx, m, targets, chaosOpts(
		// Long attempt timeout and long backoff: only prompt context
		// handling can finish this test quickly.
		WithAttemptTimeout(30*time.Second),
		WithBackoff(10*time.Second, 30*time.Second),
	)...)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancel took %v to stop the rollout", elapsed)
	}
	if report.Canceled != len(targets) {
		t.Fatalf("report: %s, want all canceled", report.Summary())
	}
}

// TestJournalNoSyncCrashResume: a journal written without per-record
// fsync still resumes a canceled run to convergence with exactly-once
// installs — the records reach the page cache in order, so everything
// short of a power loss replays identically.
func TestJournalNoSyncCrashResume(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents, _ := startMemFleet(t, m, "adm", "nosync")
	path := filepath.Join(t.TempDir(), "rollout.journal")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed := 0
	report, err := DistributeContext(ctx, m, targets, chaosOpts(
		WithJournal(path),
		WithJournalNoSync(),
		WithWorkers(1),
		WithOnResult(func(TargetResult) {
			landed++
			if landed == 10 {
				cancel()
			}
		}),
	)...)
	if err == nil {
		t.Fatalf("canceled rollout reported no error: %s", report.Summary())
	}
	if report.Installed == 0 || report.Installed == len(targets) {
		t.Fatalf("cancel timing produced no partial state: %s", report.Summary())
	}

	resumed, err := ResumeRollout(context.Background(), m, path, chaosOpts(WithJournalNoSync())...)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !resumed.OK() || resumed.Installed != len(targets) {
		t.Fatalf("resume did not converge: %s", resumed.Summary())
	}
	assertExactlyOnce(t, m, targets, agents)
}

// TestRolloutPanicContained: a WithOnResult callback that panics inside
// the rollout pool halts the rollout instead of the process.
// DistributeContext returns the panic with its value and the raising
// goroutine's stack, counts it under site="rollout", and still reports
// every target: the ones the halted pool never finished, and the whole
// later wave, appear as canceled.
func TestRolloutPanicContained(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	targets, _, _ := startMemFleet(t, m, "adm", "panics")
	reg := obs.NewRegistry()
	calls := 0 // onResult calls are serialized
	report, err := DistributeContext(context.Background(), m, targets, chaosOpts(
		WithWorkers(4),
		WithStages(0.5),
		WithMetrics(reg),
		WithOnResult(func(TargetResult) {
			if calls++; calls == 2 {
				panic("boom")
			}
		}),
	)...)
	var pe *obs.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "TestRolloutPanicContained") {
		t.Fatalf("DistributeContext = %v, want the recovered panic with its stack", err)
	}
	if len(report.Results) != len(targets) {
		t.Fatalf("report covers %d of %d targets", len(report.Results), len(targets))
	}
	for _, r := range report.Results {
		if r.Target.InstanceID == "" {
			t.Fatal("a target has no result")
		}
	}
	if report.Canceled < len(targets)/2 || report.Installed+report.Canceled+report.Failed+report.Skipped != len(targets) {
		t.Errorf("want the later wave canceled and every target counted: %s", report.Summary())
	}
	if got := report.Metrics.Value(obs.L(snmp.MetricPanics, "site", "rollout")); got != 1 {
		t.Errorf("nmsl_panics_total{site=rollout} = %d, want 1", got)
	}
}

// TestRollbackPanicContained: a panic in the WithOnResult callback
// during Rollback comes back as an *obs.PanicError with the report
// instead of killing the process. The candidates the pool never reached
// are recorded canceled, and the journal still replays.
func TestRollbackPanicContained(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	targets, _, _ := startMemFleet(t, m, "adm", "rollback-panics")
	path := filepath.Join(t.TempDir(), "rollout.journal")
	report, err := DistributeContext(context.Background(), m, targets, chaosOpts(WithJournal(path))...)
	if err != nil || !report.OK() {
		t.Fatalf("rollout: err=%v %s", err, report.Summary())
	}

	reg := obs.NewRegistry()
	calls := 0 // onResult calls are serialized
	rb, err := Rollback(context.Background(), path, chaosOpts(
		WithWorkers(2),
		WithMetrics(reg),
		WithOnResult(func(TargetResult) {
			if calls++; calls == 2 {
				panic("boom")
			}
		}),
	)...)
	var pe *obs.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "TestRollbackPanicContained") {
		t.Fatalf("Rollback = %v, want the recovered panic with its stack", err)
	}
	if rb == nil || len(rb.Results) != len(targets) {
		t.Fatalf("rollback report covers %v of %d candidates", rb, len(targets))
	}
	for _, r := range rb.Results {
		switch {
		case r.Target.InstanceID == "":
			t.Fatal("a candidate has no result")
		case r.Status == StatusCanceled && !errors.Is(r.Err, err):
			t.Errorf("%s: canceled with %v, want the panic", r.Target.InstanceID, r.Err)
		case r.Status != StatusCanceled && r.Status != StatusRolledBack:
			t.Errorf("%s: status %s, want rolled-back or canceled", r.Target.InstanceID, r.Status)
		}
	}
	if rb.RolledBack < 2 || rb.Canceled == 0 || rb.RolledBack+rb.Canceled != len(targets) {
		t.Errorf("want the reached candidates rolled back and the rest canceled: %s", rb.Summary())
	}
	if got := reg.Snapshot().Value(obs.L(snmp.MetricPanics, "site", "rollout")); got != 1 {
		t.Errorf("nmsl_panics_total{site=rollout} = %d, want 1", got)
	}

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("the journal no longer loads: %v", err)
	}
	for _, r := range rb.Results {
		ts := st.ByKey[targetKey(r.Target.InstanceID, r.Target.Addr)]
		if ts == nil || !ts.HasResult || ts.Status != r.Status {
			t.Errorf("%s: journal holds %+v, want the %s result", r.Target.InstanceID, ts, r.Status)
		}
	}
}
