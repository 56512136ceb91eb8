package configgen

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// TestPreImageFetchObeysRolloutPolicy: the datagram a journaled rollout
// loses first is the pre-image GET. Its resend must be the rollout's —
// spaced by WithBackoff and counted in MetricRolloutBackoffSleep — not a
// retransmit inside a client the options never reached. The install that
// follows is not a retry of anything.
func TestPreImageFetchObeysRolloutPolicy(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 2, SystemsPerDomain: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents, n := startMemFleet(t, m, "adm", "prepolicy")
	tgt := targets[0]
	n.Injector(tgt.InstanceID).SetFaults(snmp.Faults{DropFirst: 1}, snmp.Faults{})

	report, err := DistributeContext(context.Background(), m, targets[:1],
		WithJournal(filepath.Join(t.TempDir(), "rollout.journal")),
		WithAttemptTimeout(20*time.Millisecond),
		WithBackoff(2*time.Millisecond, 2*time.Millisecond),
		WithMetrics(obs.NewRegistry()),
	)
	if err != nil || !report.OK() {
		t.Fatalf("rollout: %v (%s)", err, report.Summary())
	}
	if slept := report.Metrics.Value(MetricRolloutBackoffSleep); slept <= 0 {
		t.Errorf("backoff sleep counter = %d: the lost pre-image fetch was resent outside the rollout's retry engine", slept)
	}
	if res := report.Results[0]; res.Status != StatusInstalled || res.Attempts != 1 {
		t.Errorf("result: %s after %d install attempts, want installed after 1", res.Status, res.Attempts)
	}
	if loads := agents[tgt.InstanceID].Stats().ConfigLoads; loads != 1 {
		t.Errorf("%d config loads, want 1", loads)
	}
}

// TestRolloutDialsOncePerTarget: every datagram of a journaled rollout
// and of its Rollback leaves through the configured dialer, one dial per
// target — the addresses here mean nothing to snmp.Dial.
func TestRolloutDialsOncePerTarget(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 10, SystemsPerDomain: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents, n := startMemFleet(t, m, "adm", "dialonce")
	if len(targets) != 20 {
		t.Fatalf("fleet has %d targets, want 20", len(targets))
	}
	const alias = "mem://dialonce-alias/" // no such network is registered
	pre := map[string]string{}
	for i := range targets {
		id := targets[i].InstanceID
		pre[id] = agents[id].ConfigSnapshot().Digest()
		targets[i].Addr = alias + id
		if _, err := snmp.Dial(targets[i].Addr, "adm"); err == nil {
			t.Fatalf("snmp.Dial resolved the alias %q", targets[i].Addr)
		}
	}
	var dials atomic.Int64
	dialer := WithDialer(func(addr, community string) (*snmp.Client, error) {
		dials.Add(1)
		host, ok := strings.CutPrefix(addr, alias)
		if !ok {
			return nil, fmt.Errorf("not an alias: %q", addr)
		}
		return snmp.Dial(n.Addr(host), community)
	})
	path := filepath.Join(t.TempDir(), "rollout.journal")

	report, err := DistributeContext(context.Background(), m, targets, chaosOpts(WithJournal(path), dialer)...)
	if err != nil || report.Installed != 20 {
		t.Fatalf("rollout: %v (%s)", err, report.Summary())
	}
	if got := dials.Load(); got != 20 {
		t.Errorf("rollout dialed %d times for 20 targets", got)
	}
	assertExactlyOnce(t, m, targets, agents)

	rb, err := Rollback(context.Background(), path, chaosOpts(dialer)...)
	if err != nil || rb.RolledBack != 20 {
		t.Fatalf("rollback: %v (%s)", err, rb.Summary())
	}
	if got := dials.Load(); got != 40 {
		t.Errorf("rollback dialed %d times for 20 targets", got-20)
	}
	for id, a := range agents {
		if got := a.ConfigSnapshot().Digest(); got != pre[id] {
			t.Errorf("%s: digest %.12s != pre-rollout %.12s", id, got, pre[id])
		}
	}
}

// TestRetryEngine pins the one retry loop with a fake send.
func TestRetryEngine(t *testing.T) {
	newOpt := func(t *testing.T, opts ...RolloutOption) (*rolloutOptions, func() int64) {
		opt, err := applyRolloutOptions(opts)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		opt.om = rolloutRunMetrics{on: true, sleep: reg.Counter(MetricRolloutBackoffSleep)}
		return opt, func() int64 { return reg.Snapshot().Value(MetricRolloutBackoffSleep) }
	}
	fast := WithBackoff(time.Millisecond, time.Millisecond)

	t.Run("budget", func(t *testing.T) {
		opt, slept := newOpt(t, WithRetries(3), fast)
		calls := 0
		attempts, err := opt.retry(context.Background(), func(context.Context) error {
			calls++
			return fmt.Errorf("failure %d", calls)
		})
		if calls != 4 || attempts != 4 {
			t.Errorf("%d calls, %d attempts reported, want retries+1 = 4", calls, attempts)
		}
		if err == nil || err.Error() != "failure 4" {
			t.Errorf("err = %v, want the last call's", err)
		}
		if slept() <= 0 {
			t.Error("three backoffs left the sleep counter at zero")
		}
	})

	t.Run("stops on success", func(t *testing.T) {
		opt, _ := newOpt(t, WithRetries(3), fast)
		calls := 0
		attempts, err := opt.retry(context.Background(), func(context.Context) error {
			if calls++; calls < 2 {
				return errors.New("lost")
			}
			return nil
		})
		if err != nil || calls != 2 || attempts != 2 {
			t.Errorf("err=%v after %d calls (%d attempts), want nil after 2", err, calls, attempts)
		}
	})

	t.Run("no sleep before the first attempt", func(t *testing.T) {
		opt, slept := newOpt(t, WithRetries(3), fast)
		attempts, err := opt.retry(context.Background(), func(context.Context) error { return nil })
		if err != nil || attempts != 1 || slept() != 0 {
			t.Errorf("err=%v attempts=%d slept=%dns, want one unslept attempt", err, attempts, slept())
		}
	})

	t.Run("canceled during a backoff", func(t *testing.T) {
		opt, _ := newOpt(t, WithRetries(3), WithBackoff(time.Hour, time.Hour))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		done := make(chan error, 1)
		go func() {
			_, err := opt.retry(ctx, func(context.Context) error {
				calls++
				time.AfterFunc(10*time.Millisecond, cancel)
				return errors.New("lost")
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) || calls != 1 {
				t.Errorf("err = %v after %d calls, want context.Canceled after 1", err, calls)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("retry slept through its context's cancellation")
		}
	})

	t.Run("context done on entry", func(t *testing.T) {
		opt, _ := newOpt(t, WithRetries(3), fast)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		attempts, err := opt.retry(ctx, func(context.Context) error {
			t.Error("send called under a canceled context")
			return nil
		})
		if attempts != 0 || !errors.Is(err, context.Canceled) {
			t.Errorf("attempts=%d err=%v, want 0 and context.Canceled", attempts, err)
		}
	})
}
