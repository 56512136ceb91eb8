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
// desired digests are computed once at construction instead of
// regenerating the model's configurations on every convergence probe.
type Fleet struct {
	Model   *consistency.Model
	Net     *snmp.MemNet
	Admin   string
	Targets []configgen.Target
	Agents  map[string]*snmp.Agent

	// desired maps instance ID → the digest of the exact configuration a
	// rollout installs there (configgen.DesiredConfig under this fleet's
	// admin community). Computed once in New; Unconverged compares live
	// digests against it instead of re-running configgen.Generate.
	desired map[string]string
}

// New builds one agent per generated configuration and hosts them all
// on a fresh MemNet registered under netName. Agents start with an
// empty configuration that honors the admin community (the pre-rollout
// state: reachable, unconfigured). seed derives every host's fault
// schedule.
func New(m *consistency.Model, netName, admin string, seed int64) (*Fleet, error) {
	configs := configgen.Generate(m)
	if len(configs) == 0 {
		return nil, fmt.Errorf("megafleet: model generates no agent configurations")
	}
	n, err := snmp.NewMemNet(netName, seed)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		Model:   m,
		Net:     n,
		Admin:   admin,
		Agents:  make(map[string]*snmp.Agent, len(configs)),
		desired: make(map[string]string, len(configs)),
	}
	ids := make([]string, 0, len(configs))
	for id := range configs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // stable target order → stable wave membership

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
	// Structurally identical generated configurations (every agent of the
	// same process shape) intern to one payload, so the digest pass below
	// hashes each distinct configuration once and caches by pointer.
	pool := configgen.InternPool{}
	digests := map[*snmp.Config]string{}
	for _, id := range ids {
		agent := snmp.NewAgent(base.Fork(), initial)
		if _, err := n.AddHost(id, agent); err != nil {
			n.Close()
			return nil, err
		}
		f.Agents[id] = agent
		tgt := configgen.Target{
			InstanceID:     id,
			Addr:           n.Addr(id),
			AdminCommunity: admin,
		}
		f.Targets = append(f.Targets, tgt)
		cfg, _ := pool.Intern(configs[id])
		d, ok := digests[cfg]
		if !ok {
			d = configgen.DesiredConfig(cfg, tgt).Digest()
			digests[cfg] = d
		}
		f.desired[id] = d
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
// The desired digests were computed once at construction — a
// convergence probe costs one live digest per agent, not a full
// configuration regeneration.
func (f *Fleet) Unconverged() int {
	n := 0
	for _, tgt := range f.Targets {
		if f.Agents[tgt.InstanceID].ConfigSnapshot().Digest() != f.desired[tgt.InstanceID] {
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
