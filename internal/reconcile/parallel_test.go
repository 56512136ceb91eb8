package reconcile

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nmsl/internal/netsim"
	"nmsl/internal/obs"
)

// TestParallelSweepMatchesSerial: a sharded sweep over a drifted fleet
// reaches exactly the serial sweep's outcome — same partition of the
// targets into drifted/healed, same convergence, same in-sync steady
// state — with the work spread over four workers.
func TestParallelSweepMatchesSerial(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 2, SystemsPerDomain: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) (*Sweep, *Sweep) {
		targets, _ := startFleet(t, m, emptyConfig)
		r, err := New(m, targets,
			WithSeed(4),
			WithSweepWorkers(workers),
			WithRetries(1),
			WithAttemptTimeout(300*time.Millisecond),
			WithMetrics(obs.Disabled),
		)
		if err != nil {
			t.Fatal(err)
		}
		first, err := r.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		second, err := r.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return first, second
	}

	sFirst, sSecond := run(1)
	pFirst, pSecond := run(4)

	if pFirst.Checked != sFirst.Checked || pFirst.Drifted != sFirst.Drifted || pFirst.Healed != sFirst.Healed {
		t.Errorf("parallel first sweep %+v != serial %+v", pFirst, sFirst)
	}
	if sFirst.Drifted == 0 || sFirst.Healed != sFirst.Drifted {
		t.Fatalf("fixture did not drift-and-heal: %+v", sFirst)
	}
	if pSecond.InSync != sSecond.InSync || pSecond.InSync != pSecond.Checked {
		t.Errorf("parallel fleet not in sync after heal: %+v (serial %+v)", pSecond, sSecond)
	}
}

// TestParallelSweepQuarantinesPerShard: breakers are shard-owned; a
// parallel sweep over a fleet of unreachable agents still opens every
// breaker and later skips every target, with the merged counters adding
// up across shards.
func TestParallelSweepQuarantinesPerShard(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startFleet(t, m, emptyConfig)
	for _, a := range agents {
		a.Close() // every probe now times out
	}
	r, err := New(m, targets,
		WithSeed(5),
		WithSweepWorkers(3),
		WithRetries(0),
		WithAttemptTimeout(30*time.Millisecond),
		WithBreaker(2, time.Hour),
		WithProbeJitter(0),
		WithMetrics(obs.Disabled),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		sw, err := r.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sw.CheckFailures != len(targets) {
			t.Fatalf("sweep %d: %d check failures, want %d", i+1, sw.CheckFailures, len(targets))
		}
	}
	for k, st := range r.BreakerStates() {
		if st != BreakerOpen {
			t.Errorf("breaker %s = %v after threshold failures, want open", k, st)
		}
	}
	sw, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Skipped != len(targets) || sw.Checked != 0 {
		t.Errorf("quarantined sweep: %+v, want all %d skipped", sw, len(targets))
	}
	if sw.Open != len(targets) {
		t.Errorf("Open = %d, want %d", sw.Open, len(targets))
	}
}

// TestParallelSweepPanicContained: an OnEvent callback that panics
// inside a sweep shard halts the sweep instead of the process. RunOnce
// returns the panic with its value and the raising goroutine's stack,
// counts it under site="reconcile", and the reconciler keeps working:
// the event lock is released, so the next sweep runs.
func TestParallelSweepPanicContained(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 2, SystemsPerDomain: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	targets, _ := startFleet(t, m, emptyConfig)
	reg := obs.NewRegistry()
	armed := true
	r, err := New(m, targets,
		WithSeed(4),
		WithSweepWorkers(4),
		WithRetries(1),
		WithAttemptTimeout(300*time.Millisecond),
		WithMetrics(reg),
		WithOnEvent(func(Event) {
			if armed {
				panic("boom")
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunOnce(context.Background())
	var pe *obs.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "TestParallelSweepPanicContained") {
		t.Fatalf("RunOnce = %v, want the recovered panic with its stack", err)
	}
	if got := reg.Snapshot().Value(obs.L(obs.MetricPanics, "site", "reconcile")); got != 1 {
		t.Errorf("nmsl_panics_total{site=reconcile} = %d, want 1", got)
	}
	armed = false
	if _, err := r.RunOnce(context.Background()); err != nil {
		t.Fatalf("sweep after a contained panic: %v", err)
	}
}
