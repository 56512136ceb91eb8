package reconcile

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// startFleet starts one live agent per generated config, initially
// running cfg (built per instance by initial), and returns the targets
// plus the agents keyed by instance ID.
func startFleet(t *testing.T, m *consistency.Model, initial func(id string) *snmp.Config) ([]configgen.Target, map[string]*snmp.Agent) {
	t.Helper()
	configs := configgen.Generate(m)
	var targets []configgen.Target
	agents := make(map[string]*snmp.Agent, len(configs))
	for id := range configs {
		store := snmp.NewStore()
		snmp.PopulateFromMIB(store, m.Spec.MIB, "mgmt.mib")
		agent := snmp.NewAgent(store, initial(id))
		addr, err := agent.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agent.Close() })
		agents[id] = agent
		targets = append(targets, configgen.Target{InstanceID: id, Addr: addr.String(), AdminCommunity: "adm"})
	}
	return targets, agents
}

func emptyConfig(string) *snmp.Config {
	return &snmp.Config{
		Communities:    map[string]*snmp.CommunityConfig{},
		AdminCommunity: "adm",
	}
}

// collectEvents returns an event sink safe for the sweep goroutine and
// a getter for the events so far.
func collectEvents() (func(Event), func(kind EventKind) int) {
	var mu sync.Mutex
	var events []Event
	sink := func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, e)
	}
	count := func(kind EventKind) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, e := range events {
			if e.Kind == kind {
				n++
			}
		}
		return n
	}
	return sink, count
}

// TestReconcilerHealsDrift: a fleet whose agents run an empty (drifted)
// configuration converges to the model in one sweep and stays in sync.
func TestReconcilerHealsDrift(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startFleet(t, m, emptyConfig)

	sink, count := collectEvents()
	reg := obs.NewRegistry()
	r, err := New(m, targets,
		WithRetries(1),
		WithAttemptTimeout(200*time.Millisecond),
		WithMetrics(reg),
		WithOnEvent(sink),
	)
	if err != nil {
		t.Fatal(err)
	}

	sw, err := r.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("sweep 1: %v", err)
	}
	if sw.Checked != len(targets) || sw.Drifted != len(targets) || sw.Healed != len(targets) {
		t.Fatalf("sweep 1: %s", sw)
	}
	if count(EventDrift) != len(targets) || count(EventHealed) != len(targets) {
		t.Fatalf("events: %d drift, %d healed, want %d each", count(EventDrift), count(EventHealed), len(targets))
	}

	// Every agent now runs exactly the desired configuration, applied
	// exactly once.
	configs := configgen.Generate(m)
	for _, tgt := range targets {
		want := configs[tgt.InstanceID]
		want.AdminCommunity = tgt.AdminCommunity
		if got := agents[tgt.InstanceID].ConfigSnapshot().Digest(); got != want.Digest() {
			t.Errorf("%s: live digest %.12s != desired %.12s", tgt.InstanceID, got, want.Digest())
		}
		if loads := agents[tgt.InstanceID].Stats().ConfigLoads; loads != 1 {
			t.Errorf("%s: %d config loads, want 1", tgt.InstanceID, loads)
		}
	}

	sw2, err := r.RunOnce(context.Background())
	if err != nil {
		t.Fatalf("sweep 2: %v", err)
	}
	if sw2.InSync != len(targets) || sw2.Drifted != 0 {
		t.Fatalf("sweep 2 not converged: %s", sw2)
	}

	s := reg.Snapshot()
	if s.Value(MetricSweeps) != 2 || s.Value(MetricDrift) != int64(len(targets)) || s.Value(MetricHeals) != int64(len(targets)) {
		t.Errorf("metrics: sweeps=%d drift=%d heals=%d", s.Value(MetricSweeps), s.Value(MetricDrift), s.Value(MetricHeals))
	}
}

// TestReconcilerQuarantineAndRestore drives the full breaker lifecycle:
// an unreachable target collects strikes until quarantined, a half-open
// probe after the cooldown re-opens while it stays broken, and once the
// agent is fixed the next half-open probe heals it and closes the
// breaker.
func TestReconcilerQuarantineAndRestore(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The agent honors a different admin community, so the reconciler's
	// probes are silently dropped: the target is "down" without any
	// port juggling, and fixable by applying a config that honors "adm".
	locked := func(string) *snmp.Config {
		return &snmp.Config{
			Communities:    map[string]*snmp.CommunityConfig{},
			AdminCommunity: "locked",
		}
	}
	targets, agents := startFleet(t, m, locked)
	tgt := targets[0]
	agent := agents[tgt.InstanceID]

	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	sink, count := collectEvents()
	r, err := New(m, targets,
		WithRetries(0),
		WithAttemptTimeout(50*time.Millisecond),
		WithBreaker(2, time.Minute),
		WithProbeJitter(0), // exact-boundary probes: this test advances exactly past the cooldown
		WithClock(clock),
		WithMetrics(obs.Disabled),
		WithOnEvent(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := tgt.InstanceID + "|" + tgt.Addr

	// Strikes 1 and 2: the second opens the breaker.
	for i := 0; i < 2; i++ {
		sw, err := r.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sw.CheckFailures != 1 {
			t.Fatalf("sweep %d: %s", i+1, sw)
		}
	}
	if got := r.BreakerStates()[k]; got != BreakerOpen {
		t.Fatalf("breaker %s after 2 strikes, want open", got)
	}
	if count(EventQuarantined) != 1 {
		t.Fatalf("quarantined events %d, want 1", count(EventQuarantined))
	}

	// Within the cooldown the target is skipped entirely.
	sw, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Skipped != 1 || sw.Checked != 0 {
		t.Fatalf("quarantined sweep: %s", sw)
	}

	// Past the cooldown one half-open probe goes out; still broken, so
	// the breaker re-opens on the spot (no threshold in half-open).
	now = now.Add(61 * time.Second)
	sw, err = r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Checked != 1 || sw.CheckFailures != 1 {
		t.Fatalf("half-open probe sweep: %s", sw)
	}
	if got := r.BreakerStates()[k]; got != BreakerOpen {
		t.Fatalf("breaker %s after failed half-open probe, want open", got)
	}
	if count(EventQuarantined) != 2 {
		t.Fatalf("quarantined events %d, want 2", count(EventQuarantined))
	}

	// Fix the agent (it now honors the admin community, but with a
	// drifted config) and let the next half-open probe heal it.
	agent.ApplyConfig(emptyConfig(""))
	now = now.Add(61 * time.Second)
	sw, err = r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Drifted != 1 || sw.Healed != 1 {
		t.Fatalf("restore sweep: %s", sw)
	}
	if got := r.BreakerStates()[k]; got != BreakerClosed {
		t.Fatalf("breaker %s after successful heal, want closed", got)
	}
	if count(EventRestored) != 1 {
		t.Fatalf("restored events %d, want 1", count(EventRestored))
	}

	// And the fleet is genuinely converged now.
	sw, err = r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.InSync != 1 || sw.Open != 0 {
		t.Fatalf("final sweep: %s", sw)
	}
}

// TestReconcilerFlapQuarantine: a target that drifts again immediately
// after every successful heal is flapping and gets quarantined even
// though each individual operation succeeds.
func TestReconcilerFlapQuarantine(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets, agents := startFleet(t, m, emptyConfig)
	agent := agents[targets[0].InstanceID]

	sink, count := collectEvents()
	r, err := New(m, targets,
		WithRetries(1),
		WithAttemptTimeout(200*time.Millisecond),
		WithBreaker(2, time.Minute),
		WithMetrics(obs.Disabled),
		WithOnEvent(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Sweep 1 heals the initial drift; no flap strike (first drift).
	if sw, err := r.RunOnce(ctx); err != nil || sw.Healed != 1 {
		t.Fatalf("sweep 1: sw=%v err=%v", sw, err)
	}
	// An outside actor rewrites the config after every heal: two more
	// drift-heal-drift cycles are two flap strikes, opening the breaker.
	for i := 0; i < 2; i++ {
		agent.ApplyConfig(emptyConfig(""))
		sw, err := r.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Healed != 1 {
			t.Fatalf("flap sweep %d: %s", i+1, sw)
		}
	}
	states := r.BreakerStates()
	if got := states[targets[0].InstanceID+"|"+targets[0].Addr]; got != BreakerOpen {
		t.Fatalf("breaker %s after flapping, want open", got)
	}
	if count(EventQuarantined) != 1 {
		t.Fatalf("quarantined events %d, want 1", count(EventQuarantined))
	}
}

// TestReconcilerRunLoopCancel: Run returns promptly with the context's
// error and sweeps keep streaming until then.
func TestReconcilerRunLoopCancel(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	targets, _ := startFleet(t, m, emptyConfig)
	r, err := New(m, targets,
		WithInterval(5*time.Millisecond),
		WithJitter(0.5),
		WithSeed(42),
		WithRetries(0),
		WithAttemptTimeout(100*time.Millisecond),
		WithMetrics(obs.Disabled),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	sweeps := 0
	done := make(chan error, 1)
	go func() {
		done <- r.Run(ctx, func(*Sweep) {
			mu.Lock()
			sweeps++
			if sweeps >= 3 {
				cancel()
			}
			mu.Unlock()
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	mu.Lock()
	defer mu.Unlock()
	if sweeps < 3 {
		t.Fatalf("only %d sweeps before cancel", sweeps)
	}
}

// TestReconcilerRejectsUnknownInstance: every target must have a
// generated configuration.
func TestReconcilerRejectsUnknownInstance(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(m, []configgen.Target{{InstanceID: "ghost@nowhere#0", Addr: "127.0.0.1:1", AdminCommunity: "adm"}})
	if err == nil {
		t.Fatal("New accepted a target with no generated configuration")
	}
}

// TestReconcilerReadsModelDesiredState: the reconciler's targets hold
// the model's desired state itself — the very values DesiredState hands
// every other consumer, in every shard — not a copy of their own.
func TestReconcilerReadsModelDesiredState(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 3, SystemsPerDomain: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var targets []configgen.Target
	for _, admin := range []string{"adm", "other"} {
		for id := range configgen.Generate(m) {
			targets = append(targets, configgen.Target{InstanceID: id, Addr: "127.0.0.1:1", AdminCommunity: admin})
		}
	}
	r, err := New(m, targets, WithSweepWorkers(3), WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}
	want := configgen.DesiredState(m, targets)
	i := 0
	for _, sd := range r.shards {
		for _, tt := range sd.targets {
			if tt.tgt != targets[i] || tt.want != want[i] {
				t.Fatalf("target %d: reconciler holds %+v for %+v, DesiredState %+v", i, tt.want, tt.tgt, want[i])
			}
			i++
		}
	}
	if i != len(targets) {
		t.Fatalf("%d of %d targets sharded", i, len(targets))
	}
}

// TestHalfOpenProbesJitteredAgainstThunderingHerd: a flap storm
// quarantines a whole wave of targets in the same sweep; without probe
// jitter every breaker would release its half-open probe at the exact
// cooldown boundary — a thundering herd against agents that just came
// back. With jitter the probes spread over [cooldown, 1.5·cooldown).
// Driven entirely by a deterministic clock and seed: no real sleeping,
// reproducible probe times.
func TestHalfOpenProbesJitteredAgainstThunderingHerd(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 4, SystemsPerDomain: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	locked := func(string) *snmp.Config {
		return &snmp.Config{
			Communities:    map[string]*snmp.CommunityConfig{},
			AdminCommunity: "locked",
		}
	}
	targets, _ := startFleet(t, m, locked)
	if len(targets) != 8 {
		t.Fatalf("fleet size %d, want 8", len(targets))
	}

	now := time.Unix(5000, 0)
	r, err := New(m, targets,
		WithRetries(0),
		WithAttemptTimeout(50*time.Millisecond),
		WithBreaker(1, time.Minute), // one strike quarantines: the storm opens all 8 at once
		WithProbeJitter(0.5),
		WithSeed(7),
		WithClock(func() time.Time { return now }),
		WithMetrics(obs.Disabled),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The storm: every target unreachable in the same sweep, every
	// breaker opened at the same instant.
	sw, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sw.CheckFailures != 8 || sw.Open != 8 {
		t.Fatalf("storm sweep: %s, want 8 failures and 8 open breakers", sw)
	}

	// Walk the window [cooldown, 1.5·cooldown] in 5s sweeps, counting
	// how many half-open probes each sweep releases. (A probed target is
	// still broken, so it re-opens with a fresh jitter; its next probe
	// lands beyond the window and cannot double-count.)
	probesPerSweep := []int{}
	total, maxPerSweep, busySweeps := 0, 0, 0
	for offset := 60 * time.Second; offset <= 90*time.Second; offset += 5 * time.Second {
		now = time.Unix(5000, 0).Add(offset)
		sw, err := r.RunOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		probesPerSweep = append(probesPerSweep, sw.Checked)
		total += sw.Checked
		if sw.Checked > maxPerSweep {
			maxPerSweep = sw.Checked
		}
		if sw.Checked > 0 {
			busySweeps++
		}
	}
	t.Logf("probes per 5s sweep across the jitter window: %v", probesPerSweep)
	if total != 8 {
		t.Fatalf("probed %d targets across the window, want all 8", total)
	}
	if maxPerSweep == 8 {
		t.Fatal("all 8 half-open probes fired in one sweep: thundering herd")
	}
	if busySweeps < 2 {
		t.Fatalf("probes concentrated in %d sweep(s), want spread across >= 2", busySweeps)
	}
}

// stubAgent answers every request at a UDP address with blob as the
// configuration object's value, however the agent would have written it.
func stubAgent(t *testing.T, blob []byte) string {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, raddr, err := pc.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := snmp.Unmarshal(buf[:n])
			if err != nil {
				continue
			}
			out, err := (&snmp.Message{Version: req.Version, Community: req.Community, PDU: snmp.PDU{
				Type: snmp.TagGetResponse, RequestID: req.PDU.RequestID,
				Bindings: []snmp.Binding{{OID: snmp.ConfigOID, Value: snmp.Opaque(blob)}},
			}}).Marshal()
			if err == nil {
				_, _ = pc.WriteToUDP(out, raddr)
			}
		}
	}()
	return pc.LocalAddr().String()
}

// TestReconcilerJudgesEqualConfigNotBytes: an agent that writes the
// desired configuration as indented JSON — not the canonical bytes, so
// the fetched blob's digest differs — is in sync, not drifted, and an
// indented blob of another configuration is still drift.
func TestReconcilerJudgesEqualConfigNotBytes(t *testing.T) {
	m, err := netsim.Model(netsim.Params{Domains: 1, SystemsPerDomain: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	configs := configgen.Generate(m)
	if len(configs) == 0 {
		t.Fatal("no configurations generated")
	}
	for id := range configs {
		want := configgen.DesiredState(m, []configgen.Target{{InstanceID: id, AdminCommunity: "adm"}})[0]
		for _, tc := range []struct {
			name    string
			cfg     *snmp.Config
			drifted int
		}{
			{"desired", want.Config, 0},
			{"other", emptyConfig(id), 1},
		} {
			blob, err := json.MarshalIndent(tc.cfg, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if snmp.BlobDigest(blob) == want.Digest {
				t.Fatal("the indented blob digests like the canonical one; the test proves nothing")
			}
			tgt := configgen.Target{InstanceID: id, Addr: stubAgent(t, blob), AdminCommunity: "adm"}
			r, err := New(m, []configgen.Target{tgt}, WithRetries(1), WithAttemptTimeout(200*time.Millisecond), WithMetrics(obs.Disabled))
			if err != nil {
				t.Fatal(err)
			}
			sw, err := r.RunOnce(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if sw.Checked != 1 || sw.CheckFailures != 0 || sw.Drifted != tc.drifted || sw.InSync != 1-tc.drifted {
				t.Fatalf("%s: %s, want %d drifted", tc.name, sw, tc.drifted)
			}
		}
	}
}
