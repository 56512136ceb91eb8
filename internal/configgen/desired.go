package configgen

import (
	"sync"

	"nmsl/internal/consistency"
	"nmsl/internal/snmp"
)

// Desired is the configuration a rollout installs at one target and its
// digest; the zero value means the target's instance gets none (unknown,
// or not an agent). Config is shared by every target of the same shape
// and admin community and by every caller, so it must not be modified.
type Desired struct {
	Config *snmp.Config
	Digest string
}

// fleetState is one model's desired fleet state. configs[i] is what
// Model.Instances[i] runs (nil for a non-agent), structurally identical
// configurations folded into one shared value by digest; desired holds
// each (shared config, admin community) pair's install form.
type fleetState struct {
	configs []*snmp.Config
	mu      sync.Mutex
	desired map[desiredKey]Desired
}

type desiredKey struct {
	cfg   *snmp.Config
	admin string
}

// modelFleet returns m's desired fleet state, deriving it on first use.
func modelFleet(m *consistency.Model) *fleetState {
	return m.FleetState(func() any {
		st := &fleetState{configs: make([]*snmp.Config, len(m.Instances)), desired: map[desiredKey]Desired{}}
		byDigest := map[string]*snmp.Config{}
		for i, in := range m.Instances {
			if cfg := generateInstance(m, in); cfg != nil {
				d := cfg.Digest()
				if byDigest[d] == nil {
					byDigest[d] = cfg
				}
				st.configs[i] = byDigest[d]
			}
		}
		return st
	}).(*fleetState)
}

// DesiredState returns, in target order, the configuration a rollout
// installs at each target — the instance's generated configuration under
// the target's admin community — and its digest. The model's
// configurations are generated once, and each distinct (configuration,
// admin community) pair is cloned and digested once, however many
// targets and calls share it. Generate, by contrast, returns fresh
// configurations the caller owns.
func DesiredState(m *consistency.Model, targets []Target) []Desired {
	st := modelFleet(m)
	out := make([]Desired, len(targets))
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, tgt := range targets {
		in := m.InstanceByID(tgt.InstanceID)
		if in == nil {
			continue
		}
		k := desiredKey{st.configs[in.Index()], tgt.AdminCommunity}
		if k.cfg == nil {
			continue
		}
		d, ok := st.desired[k]
		if !ok {
			cp := k.cfg.Clone()
			cp.AdminCommunity = k.admin
			d = Desired{Config: cp, Digest: cp.Digest()}
			st.desired[k] = d
		}
		out[i] = d
	}
	return out
}
