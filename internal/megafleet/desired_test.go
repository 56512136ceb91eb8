package megafleet

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/reconcile"
	"nmsl/internal/snmp"
)

func campusModel(t *testing.T, agents int, seed int64) *consistency.Model {
	t.Helper()
	params, err := netsim.ScenarioParams(netsim.ScenarioCampus, agents, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := netsim.Model(params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOneDesiredStatePerModel: the fleet, its rollout, its reconciler and
// its convergence probes all read one derivation of the model's desired
// state. Equal (configuration, admin community) pairs are one value,
// nothing those consumers do replaces or re-derives it, and asking again
// costs the result slice alone.
func TestOneDesiredStatePerModel(t *testing.T) {
	m := campusModel(t, 60, 8)
	fl, err := New(m, "t-one-state", "adm", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	first := configgen.DesiredState(m, fl.Targets)
	byDigest := map[string]*snmp.Config{}
	for i, d := range first {
		if d.Config == nil {
			t.Fatalf("%s: no desired configuration", fl.Targets[i].InstanceID)
		}
		if p, ok := byDigest[d.Digest]; ok && p != d.Config {
			t.Fatalf("%s: an equal desired configuration is a second value", fl.Targets[i].InstanceID)
		}
		byDigest[d.Digest] = d.Config
	}
	if len(byDigest) >= len(first) {
		t.Fatalf("%d distinct configurations for %d agents: nothing shared", len(byDigest), len(first))
	}

	rep, err := configgen.DistributeContext(context.Background(), m, fl.Targets, chaosOpts("", nil)...)
	if err != nil || !rep.OK() {
		t.Fatalf("rollout: %v %s", err, rep.Summary())
	}
	rec, err := reconcile.New(m, fl.Targets, reconcile.WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := rec.RunOnce(context.Background())
	if err != nil || sw.InSync != len(fl.Targets) {
		t.Fatalf("reconciler disagrees with the rollout: %v %s", err, sw)
	}
	if !fl.Converged() {
		t.Fatal("fleet not converged after an OK rollout")
	}

	for i, d := range configgen.DesiredState(m, fl.Targets) {
		if d != first[i] {
			t.Fatalf("%s: desired state re-derived (%p, was %p)", fl.Targets[i].InstanceID, d.Config, first[i].Config)
		}
	}
	if a := testing.AllocsPerRun(5, func() { configgen.DesiredState(m, fl.Targets) }); a > 1 {
		t.Errorf("a repeated DesiredState allocates %.0f times; it regenerates", a)
	}
}

// TestSharedDesiredStateIsReadOnly: two rollouts to disjoint fleets and a
// reconciler sweep, concurrently, all on one model, share its desired
// configurations — and leave every one byte-identical. Under -race this
// also shows none of them writes what the others read.
func TestSharedDesiredStateIsReadOnly(t *testing.T) {
	m := campusModel(t, 40, 9)
	a, err := New(m, "t-shared-a", "adm-a", 9)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(m, "t-shared-b", "adm-b", 9)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	snapshot := map[*snmp.Config][]byte{}
	for _, fl := range []*Fleet{a, b} {
		for _, d := range configgen.DesiredState(m, fl.Targets) {
			snapshot[d.Config], _ = snmp.MarshalConfig(d.Config)
		}
	}
	rec, err := reconcile.New(m, a.Targets, reconcile.WithSweepWorkers(4), reconcile.WithRetries(1),
		reconcile.WithAttemptTimeout(100*time.Millisecond), reconcile.WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, fl := range []*Fleet{a, b} {
		wg.Add(1)
		go func(i int, fl *Fleet) {
			defer wg.Done()
			_, errs[i] = configgen.DistributeContext(context.Background(), m, fl.Targets, chaosOpts("", nil)...)
		}(i, fl)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[2] = rec.RunOnce(context.Background())
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !a.Converged() || !b.Converged() {
		t.Fatalf("unconverged: %d in fleet a, %d in fleet b", a.Unconverged(), b.Unconverged())
	}
	for cfg, want := range snapshot {
		if got, _ := snmp.MarshalConfig(cfg); !bytes.Equal(got, want) {
			t.Errorf("a shared desired configuration changed:\n got %s\nwant %s", got, want)
		}
	}
}
