// Package megafleet hosts very large simulated agent fleets and the
// chaos matrix that batters them. The paper's scale goals — 10,000
// administrative domains, on the order of 100,000 elements — are far
// past what socket-per-agent simulation reaches, so the fleet hosts
// every agent in-process on an snmp.MemNet (mem:// transport) and
// drives rollouts, chaos and reconciliation against it: the full
// management stack, zero sockets, deterministic seeds.
package megafleet

import (
	"fmt"
	"sort"

	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/snmp"
)

// Fleet is a model's worth of agents hosted on an in-memory network.
//
// The fleet is built for §1 scale (100k agents in one process): every
// agent's store is a copy-on-write fork of one shared MIB database, the
// pre-rollout configuration is a single shared immutable Config, and the
// desired state is the model's own (configgen.DesiredState), derived
// once for the rollout, the reconciler and every convergence probe.
type Fleet struct {
	Model   *consistency.Model
	Net     *snmp.MemNet
	Admin   string
	Targets []configgen.Target
	Agents  map[string]*snmp.Agent
}

// New builds one agent per agent instance of the model and hosts them
// all on a fresh MemNet registered under netName. Agents start with an
// empty configuration that honors the admin community (the pre-rollout
// state: reachable, unconfigured). seed derives every host's fault
// schedule.
func New(m *consistency.Model, netName, admin string, seed int64) (*Fleet, error) {
	var ids []string
	for _, in := range m.Instances {
		if in.Proc.IsAgent() {
			ids = append(ids, in.ID)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("megafleet: model generates no agent configurations")
	}
	sort.Strings(ids) // stable target order → stable wave membership
	n, err := snmp.NewMemNet(netName, seed)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		Model:  m,
		Net:    n,
		Admin:  admin,
		Agents: make(map[string]*snmp.Agent, len(ids)),
	}

	// One populated MIB database for the whole fleet; each agent gets a
	// copy-on-write fork whose overlay holds only that agent's own
	// writes. The base is never mutated after this point (Store.Fork's
	// contract). Likewise one shared pre-rollout Config: agents treat
	// their configuration as immutable (ApplyConfig swaps the pointer),
	// so a single instance serves every agent.
	base := snmp.NewStore()
	snmp.PopulateFromMIB(base, m.Spec.MIB, "mgmt.mib")
	initial := &snmp.Config{
		Communities:    map[string]*snmp.CommunityConfig{},
		AdminCommunity: admin,
	}
	for _, id := range ids {
		agent := snmp.NewAgent(base.Fork(), initial)
		if _, err := n.AddHost(id, agent); err != nil {
			n.Close()
			return nil, err
		}
		f.Agents[id] = agent
		f.Targets = append(f.Targets, configgen.Target{
			InstanceID:     id,
			Addr:           n.Addr(id),
			AdminCommunity: admin,
		})
	}
	return f, nil
}

// Close unregisters the fleet's network.
func (f *Fleet) Close() { f.Net.Close() }

// Converged reports ground truth: whether every agent's live
// configuration digest equals the model's desired one. It reads the
// agents directly, bypassing the (possibly chaos-degraded) network, so
// it is the arbiter the run report trusts.
func (f *Fleet) Converged() bool {
	return f.Unconverged() == 0
}

// Unconverged counts agents whose live digest differs from desired.
// The model derives its desired state once, so a convergence probe costs
// one live digest per agent, not a configuration regeneration.
func (f *Fleet) Unconverged() int {
	n := 0
	for i, want := range configgen.DesiredState(f.Model, f.Targets) {
		if f.Agents[f.Targets[i].InstanceID].ConfigSnapshot().Digest() != want.Digest {
			n++
		}
	}
	return n
}

// DuplicateLoads counts agents that applied a configuration more than
// once — the exactly-once property's violation counter. Restart chaos
// legitimately forces re-applies (a restarted agent's retransmit cache
// is gone), so runs report this number instead of asserting zero;
// controlled resume tests do assert zero.
func (f *Fleet) DuplicateLoads() int {
	n := 0
	for _, a := range f.Agents {
		if a.Stats().ConfigLoads > 1 {
			n++
		}
	}
	return n
}
