package configgen

import (
	"bytes"
	"testing"

	"nmsl/internal/snmp"
)

// DesiredConfig is the configuration a rollout installs at tgt, derived
// per call: the instance's generated configuration, cloned, under the
// target's admin community. It is the oracle DesiredState is held to.
func DesiredConfig(cfg *snmp.Config, tgt Target) *snmp.Config {
	if cfg == nil {
		return nil
	}
	cp := cfg.Clone()
	cp.AdminCommunity = tgt.AdminCommunity
	return cp
}

// TestDesiredStateMatchesOracle holds DesiredState to DesiredConfig over
// every model the generation oracle runs on, under three admin
// communities (one empty): the same wire bytes and digest per target,
// the zero value for an unknown instance and for a non-agent, one shared
// value per (configuration, admin community), and a second call that
// allocates only its result rather than regenerating the fleet.
func TestDesiredStateMatchesOracle(t *testing.T) {
	nonAgents := 0
	for name, m := range differentialModels(t) {
		t.Run(name, func(t *testing.T) {
			var targets []Target
			for _, admin := range []string{"", "adm", "ops-admin"} {
				for _, in := range m.Instances {
					targets = append(targets, Target{InstanceID: in.ID, Addr: "mem://x/" + in.ID, AdminCommunity: admin})
				}
				targets = append(targets, Target{InstanceID: "ghost@nowhere#0", Addr: "mem://x/ghost", AdminCommunity: admin})
			}
			got := DesiredState(m, targets)
			if len(got) != len(targets) {
				t.Fatalf("%d results for %d targets", len(got), len(targets))
			}
			configs := Generate(m)
			shared := map[string]*snmp.Config{}
			wire := make([][]byte, len(targets))
			for i, tgt := range targets {
				want := DesiredConfig(configs[tgt.InstanceID], tgt)
				if want == nil {
					if got[i] != (Desired{}) {
						t.Errorf("%s: %+v for an instance with no configuration", tgt.InstanceID, got[i])
					}
					if m.InstanceByID(tgt.InstanceID) != nil {
						nonAgents++
					}
					continue
				}
				gb, err := snmp.MarshalConfig(got[i].Config)
				if err != nil {
					t.Fatal(err)
				}
				wb, _ := snmp.MarshalConfig(want)
				if !bytes.Equal(gb, wb) {
					t.Errorf("%s (admin %q):\n got %s\nwant %s", tgt.InstanceID, tgt.AdminCommunity, gb, wb)
				}
				if got[i].Digest != want.Digest() || got[i].Digest != got[i].Config.Digest() {
					t.Errorf("%s (admin %q): digest %.12s, want %.12s", tgt.InstanceID, tgt.AdminCommunity, got[i].Digest, want.Digest())
				}
				if p, ok := shared[got[i].Digest]; ok && p != got[i].Config {
					t.Errorf("%s (admin %q): equal desired configurations not shared", tgt.InstanceID, tgt.AdminCommunity)
				}
				shared[got[i].Digest] = got[i].Config
				wire[i] = gb
			}

			// Generate's configurations are the caller's: mangling them
			// leaves the model's desired state as it was.
			for _, cfg := range configs {
				if cfg != nil {
					cfg.Communities = nil
				}
			}
			again := DesiredState(m, targets)
			for i := range targets {
				if again[i] != got[i] {
					t.Fatalf("%s: second call returned %+v, first %+v", targets[i].InstanceID, again[i], got[i])
				}
				if wire[i] != nil {
					if b, _ := snmp.MarshalConfig(again[i].Config); !bytes.Equal(b, wire[i]) {
						t.Fatalf("%s: desired configuration changed to %s", targets[i].InstanceID, b)
					}
				}
			}
			if a := testing.AllocsPerRun(5, func() { DesiredState(m, targets) }); a > 1 {
				t.Errorf("a repeated DesiredState allocates %.0f times; it regenerates", a)
			}
		})
	}
	if nonAgents == 0 {
		t.Error("no model named a non-agent instance")
	}
}
