package audit

import (
	"context"
	"strings"
	"testing"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// startFleet builds a synthetic internet, starts one agent per agent
// instance, and distributes the generated configuration.
func startFleet(t *testing.T, p netsim.Params) (*consistency.Model, map[string]string, map[string]*snmp.Agent) {
	t.Helper()
	m, err := netsim.Model(p)
	if err != nil {
		t.Fatal(err)
	}
	configs := configgen.Generate(m)
	addrs := map[string]string{}
	agents := map[string]*snmp.Agent{}
	var targets []configgen.Target
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
		addrs[id] = addr.String()
		agents[id] = agent
		targets = append(targets, configgen.Target{InstanceID: id, Addr: addr.String(), AdminCommunity: "adm"})
	}
	report, err := configgen.DistributeContext(context.Background(), m, targets, configgen.WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("distribution failures: %s", report.Summary())
	}
	return m, addrs, agents
}

func TestInteropConsistentFleet(t *testing.T) {
	m, addrs, _ := startFleet(t, netsim.Params{Domains: 4, SystemsPerDomain: 2, Seed: 3})
	rep, err := Interop(m, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interoperates() {
		t.Fatalf("consistent fleet fails to interoperate:\n%s", rep)
	}
	// 4 pollers x 2 target instances = 8 refs, all exercised
	if rep.Exercised != 8 || rep.Skipped != 0 {
		t.Fatalf("exercised %d skipped %d", rep.Exercised, rep.Skipped)
	}
	if !strings.Contains(rep.String(), "interoperate") {
		t.Errorf("report: %s", rep)
	}
}

func TestInteropDetectsBrokenAgent(t *testing.T) {
	m, addrs, agents := startFleet(t, netsim.Params{Domains: 3, SystemsPerDomain: 1, Seed: 3})
	// one agent loses its policy (e.g. it was rebooted into defaults)
	var victim string
	for id := range agents {
		victim = id
		break
	}
	agents[victim].ApplyConfig(&snmp.Config{Communities: map[string]*snmp.CommunityConfig{}})
	rep, err := Interop(m, addrs, Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interoperates() {
		t.Fatalf("broken agent not detected:\n%s", rep)
	}
	for _, f := range rep.Findings {
		if f.Ref.Target.ID != victim {
			t.Errorf("finding blames wrong agent: %s", f)
		}
	}
}

func TestInteropDetectsWrongView(t *testing.T) {
	m, addrs, agents := startFleet(t, netsim.Params{Domains: 3, SystemsPerDomain: 1, Seed: 3})
	// one agent's view was narrowed below the spec (exports system, agent
	// only serves icmp)
	var victim string
	for id := range agents {
		victim = id
		break
	}
	cfg := agents[victim].ConfigSnapshot()
	icmp := m.Spec.MIB.Lookup("mgmt.mib.icmp").OID()
	broken := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}, AdminCommunity: cfg.AdminCommunity}
	for name, cc := range cfg.Communities {
		broken.Communities[name] = &snmp.CommunityConfig{Access: cc.Access, View: []snmp.View{{Prefix: icmp}}}
	}
	agents[victim].ApplyConfig(broken)
	rep, err := Interop(m, addrs, Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Ref.Target.ID == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("narrowed view not detected:\n%s", rep)
	}
}

func TestInteropSkipsUnknownAddresses(t *testing.T) {
	m, addrs, _ := startFleet(t, netsim.Params{Domains: 3, SystemsPerDomain: 1, Seed: 3})
	// forget one agent's address
	for id := range addrs {
		delete(addrs, id)
		break
	}
	rep, err := Interop(m, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 {
		t.Fatalf("skipped %d", rep.Skipped)
	}
}
