package configgen

import (
	"context"
	"testing"
	"time"

	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// TestDistribute spins up one live agent per agent instance of a
// synthetic internet, fans configuration out to all of them
// concurrently, and verifies every agent ends up enforcing its policy.
func TestDistribute(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 5, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	configs := Generate(m)
	if len(configs) != 10 {
		t.Fatalf("configs: %d", len(configs))
	}

	var targets []Target
	agents := map[string]*snmp.Agent{}
	for id := range configs {
		store := snmp.NewStore()
		snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
		agent := snmp.NewAgent(store, &snmp.Config{
			Communities:    map[string]*snmp.CommunityConfig{},
			AdminCommunity: "adm",
		})
		addr, err := agent.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agent.Close() })
		agents[id] = agent
		targets = append(targets, Target{InstanceID: id, Addr: addr.String(), AdminCommunity: "adm"})
	}

	report, err := DistributeContext(context.Background(), m, targets, WithWorkers(4), WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != len(targets) || !report.OK() {
		t.Fatalf("%s", report.Summary())
	}
	for id, agent := range agents {
		cfg := agent.ConfigSnapshot()
		if len(cfg.Communities) == 0 {
			t.Errorf("agent %s has no communities after distribution", id)
		}
		if cfg.Communities["public"] == nil {
			t.Errorf("agent %s missing public community", id)
		}
		if got := cfg.Communities["public"].MinInterval; got != 5*time.Minute {
			t.Errorf("agent %s min interval %v", id, got)
		}
	}
}

func TestDistributeReportsMissingInstance(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := DistributeContext(context.Background(), m,
		[]Target{{InstanceID: "ghost@nowhere#0", Addr: "127.0.0.1:1", AdminCommunity: "adm"}},
		WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}
	if report.Skipped != 1 || report.Results[0].Status != StatusSkipped || report.Results[0].Err == nil {
		t.Fatalf("results: %+v", report.Results)
	}
}

func TestDistributeUnreachableTarget(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	for k := range Generate(m) {
		id = k
	}
	// port 1 on loopback: nothing listens; the install must fail after
	// retries rather than hang.
	report, err := DistributeContext(context.Background(), m,
		[]Target{{InstanceID: id, Addr: "127.0.0.1:1", AdminCommunity: "adm"}},
		WithAttemptTimeout(100*time.Millisecond), WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 1 || report.Results[0].Status != StatusFailed || report.Results[0].Err == nil {
		t.Fatalf("results: %+v", report.Results)
	}
}
