package snmp

import (
	"testing"
	"time"

	"nmsl/internal/mib"
	"nmsl/internal/vclock"
)

// faultAgent starts an agent serving the standard MIB with a single
// "public" community and an optional server-side fault injector.
func faultAgent(t *testing.T, cc *CommunityConfig, inj *FaultInjector) (string, *Agent, *mib.Tree) {
	t.Helper()
	store := NewStore()
	tree := mib.NewStandard()
	PopulateFromMIB(store, tree, "mgmt.mib")
	agent := NewAgent(store, &Config{Communities: map[string]*CommunityConfig{"public": cc}})
	if inj != nil {
		agent.SetFaultInjector(inj)
	}
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agent.Close() })
	return addr.String(), agent, tree
}

func publicAny(tree *mib.Tree) *CommunityConfig {
	return &CommunityConfig{
		Access: mib.AccessAny,
		View:   []View{{Prefix: tree.Lookup("mgmt.mib").OID()}},
	}
}

// TestClientRetriesThroughDroppedResponses: the first two responses are
// lost; the retransmit budget absorbs the loss.
func TestClientRetriesThroughDroppedResponses(t *testing.T) {
	tree := mib.NewStandard()
	addr, _, _ := faultAgent(t, publicAny(tree), nil)
	inj := NewFaultInjector(1)
	inj.In = Faults{DropFirst: 2}
	c, err := DialFaulty(addr, "public", inj)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(80 * time.Millisecond)
	c.SetRetries(3)
	c.SetBackoff(time.Millisecond, 5*time.Millisecond)

	binds, err := c.Get(tree.Lookup("mgmt.mib.system.sysDescr").OID())
	if err != nil {
		t.Fatalf("get through loss: %v", err)
	}
	if len(binds) != 1 {
		t.Fatalf("bindings: %v", binds)
	}
	if got := inj.Stats().Dropped; got != 2 {
		t.Errorf("dropped %d, want 2", got)
	}
}

// TestClientGivesUpWithoutRetries: with a zero retry budget, one lost
// response fails the call.
func TestClientGivesUpWithoutRetries(t *testing.T) {
	tree := mib.NewStandard()
	addr, _, _ := faultAgent(t, publicAny(tree), nil)
	inj := NewFaultInjector(1)
	inj.In = Faults{DropFirst: 1}
	c, err := DialFaulty(addr, "public", inj)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	c.SetRetries(0)

	if _, err := c.Get(tree.Lookup("mgmt.mib.system.sysDescr").OID()); err == nil {
		t.Fatal("lossless result over a lossy link without retries")
	}
}

// TestClientSurvivesDuplicatedResponses: every response arrives twice;
// the stale duplicate (wrong request ID by then) must not satisfy the
// next call.
func TestClientSurvivesDuplicatedResponses(t *testing.T) {
	tree := mib.NewStandard()
	addr, _, _ := faultAgent(t, publicAny(tree), nil)
	inj := NewFaultInjector(1)
	inj.In = Faults{Duplicate: 1}
	c, err := DialFaulty(addr, "public", inj)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	c.SetRetries(1)

	sysDescr := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	ttl := tree.Lookup("mgmt.mib.ip.ipDefaultTTL").OID()
	b1, err := c.Get(sysDescr)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Get(ttl)
	if err != nil {
		t.Fatal(err)
	}
	if b1[0].OID.Compare(sysDescr) != 0 || b2[0].OID.Compare(ttl) != 0 {
		t.Fatalf("answers crossed: %v / %v", b1, b2)
	}
	if got := inj.Stats().Duplicated; got == 0 {
		t.Error("no duplicates injected")
	}
}

// TestClientTreatsTruncationAsLoss: a truncated response cannot parse,
// so the client observes silence and recovers by retransmitting once the
// corruption clears.
func TestClientTreatsTruncationAsLoss(t *testing.T) {
	tree := mib.NewStandard()
	addr, _, _ := faultAgent(t, publicAny(tree), nil)
	inj := NewFaultInjector(1)
	inj.In = Faults{Truncate: 1}
	c, err := DialFaulty(addr, "public", inj)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	c.SetRetries(0)

	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	if _, err := c.Get(oid); err == nil {
		t.Fatal("truncated response accepted")
	}
	if got := inj.Stats().Truncated; got == 0 {
		t.Error("no truncation injected")
	}
	// The client is synchronous, so between calls nobody reads the
	// injector: clearing the schedule is safe, and the retransmitted
	// request now round-trips.
	inj.In = Faults{}
	if _, err := c.Get(oid); err != nil {
		t.Fatalf("recovery after corruption cleared: %v", err)
	}
}

// TestWalkUnderInjectedLoss sweeps the whole subtree across a link
// losing 15% of datagrams each way; retransmits must deliver the same
// variables a clean walk sees.
func TestWalkUnderInjectedLoss(t *testing.T) {
	store := NewStore()
	tree := mib.NewStandard()
	want := PopulateFromMIB(store, tree, "mgmt.mib")
	agent := NewAgent(store, &Config{Communities: map[string]*CommunityConfig{
		"public": publicAny(tree),
	}})
	addr, err := agent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	inj := NewFaultInjector(7)
	inj.In = Faults{Drop: 0.15}
	inj.Out = Faults{Drop: 0.15}
	c, err := DialFaulty(addr.String(), "public", inj)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	c.SetRetries(8)
	c.SetBackoff(time.Millisecond, 10*time.Millisecond)

	got := 0
	if err := c.Walk(tree.Lookup("mgmt.mib").OID(), func(Binding) error {
		got++
		return nil
	}); err != nil {
		t.Fatalf("walk: %v", err)
	}
	if got != want {
		t.Fatalf("walked %d variables, store has %d", got, want)
	}
	st := inj.Stats()
	if st.Dropped == 0 {
		t.Error("walk saw no injected loss; the test is vacuous")
	}
}

// TestRetransmitNotRateLimited pins the starvation fix: with a long
// MinInterval and a lost response, the client's retransmit must be
// served from the agent's cache instead of being metered as a fresh
// request (which would reject it and starve the client forever).
func TestRetransmitNotRateLimited(t *testing.T) {
	tree := mib.NewStandard()
	inj := NewFaultInjector(1)
	inj.Out = Faults{DropFirst: 1} // lose exactly the first response
	cc := &CommunityConfig{
		Access:      mib.AccessReadOnly,
		View:        []View{{Prefix: tree.Lookup("mgmt.mib").OID()}},
		MinInterval: time.Hour,
	}
	addr, agent, _ := faultAgent(t, cc, inj)

	c, err := Dial(addr, "public")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(80 * time.Millisecond)
	c.SetRetries(2)
	c.SetBackoff(time.Millisecond, 5*time.Millisecond)

	if _, err := c.Get(tree.Lookup("mgmt.mib.system.sysDescr").OID()); err != nil {
		t.Fatalf("retransmit starved by the rate limiter: %v", err)
	}
	st := agent.Stats()
	if st.Retransmits == 0 {
		t.Error("retransmit not served from the cache")
	}
	if st.RateLimited != 0 {
		t.Errorf("rate-limited %d requests; retries must not be metered", st.RateLimited)
	}
}

// TestRejectedRequestDoesNotAdvanceRateWindow pins the metering
// decision: the rate budget meters served requests only, so a client
// that polls too early is delayed until the original window expires —
// not pushed further out by each rejection.
func TestRejectedRequestDoesNotAdvanceRateWindow(t *testing.T) {
	store := NewStore()
	tree := mib.NewStandard()
	PopulateFromMIB(store, tree, "mgmt.mib")
	agent := NewAgent(store, &Config{Communities: map[string]*CommunityConfig{
		"public": {
			Access:      mib.AccessReadOnly,
			View:        []View{{Prefix: tree.Lookup("mgmt.mib").OID()}},
			MinInterval: 100 * time.Millisecond,
		},
	}})
	now := time.Unix(1000, 0)
	agent.SetTimeSource(func() time.Time { return now })

	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	req := func(id int32) *Message {
		return &Message{Version: Version0, Community: "public", PDU: PDU{
			Type: TagGetRequest, RequestID: id,
			Bindings: []Binding{{OID: oid, Value: Null()}},
		}}
	}
	if resp := agent.Handle(req(1)); resp.PDU.ErrorStatus != NoError {
		t.Fatalf("first request: %v", resp.PDU.ErrorStatus)
	}
	now = now.Add(30 * time.Millisecond)
	if resp := agent.Handle(req(2)); resp.PDU.ErrorStatus != GenErr {
		t.Fatalf("early request not rejected: %v", resp.PDU.ErrorStatus)
	}
	// 110ms after the served request, 80ms after the rejected one. If
	// rejections advanced the window this would still be rejected.
	now = now.Add(80 * time.Millisecond)
	if resp := agent.Handle(req(3)); resp.PDU.ErrorStatus != NoError {
		t.Fatalf("window advanced by a rejected request: %v", resp.PDU.ErrorStatus)
	}
}

// TestHandleReleasesLockOnPanic: a time source that panics inside
// Handle's locked section must not leave the agent's lock held — the
// next request is answered, not deadlocked.
func TestHandleReleasesLockOnPanic(t *testing.T) {
	store := NewStore()
	tree := mib.NewStandard()
	PopulateFromMIB(store, tree, "mgmt.mib")
	agent := NewAgent(store, &Config{Communities: map[string]*CommunityConfig{
		"public": {
			Access:      mib.AccessReadOnly,
			View:        []View{{Prefix: tree.Lookup("mgmt.mib").OID()}},
			MinInterval: time.Millisecond,
		},
	}})
	failed := false
	agent.SetTimeSource(func() time.Time {
		if !failed {
			failed = true
			panic("clock failure")
		}
		return time.Unix(1000, 0)
	})
	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	req := func(id int32) *Message {
		return &Message{Version: Version0, Community: "public", PDU: PDU{
			Type: TagGetRequest, RequestID: id,
			Bindings: []Binding{{OID: oid, Value: Null()}},
		}}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the time source's panic did not reach Handle's caller")
			}
		}()
		agent.Handle(req(1))
	}()
	answered := make(chan *Message, 1)
	go func() { answered <- agent.Handle(req(2)) }()
	select {
	case resp := <-answered:
		if resp == nil || resp.PDU.ErrorStatus != NoError {
			t.Fatalf("request after the panic: %+v", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Handle blocked after a panic: the agent's lock is still held")
	}
}

// TestRetransmitCacheClearedOnReconfigure: a cached response computed
// under the old policy must not answer a retransmit arriving after a
// configuration change.
func TestRetransmitCacheClearedOnReconfigure(t *testing.T) {
	store := NewStore()
	tree := mib.NewStandard()
	PopulateFromMIB(store, tree, "mgmt.mib")
	mibOID := tree.Lookup("mgmt.mib").OID()
	agent := NewAgent(store, &Config{Communities: map[string]*CommunityConfig{
		"public": {Access: mib.AccessReadOnly, View: []View{{Prefix: mibOID}}},
	}})

	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	req := &Message{Version: Version0, Community: "public", PDU: PDU{
		Type: TagGetRequest, RequestID: 42,
		Bindings: []Binding{{OID: oid, Value: Null()}},
	}}
	if resp := agent.Handle(req); resp.PDU.ErrorStatus != NoError {
		t.Fatalf("first: %v", resp.PDU.ErrorStatus)
	}
	// identical retransmit hits the cache
	if resp := agent.Handle(req); resp.PDU.ErrorStatus != NoError {
		t.Fatalf("retransmit: %v", resp.PDU.ErrorStatus)
	}
	if agent.Stats().Retransmits != 1 {
		t.Fatalf("retransmits %d", agent.Stats().Retransmits)
	}
	// revoke access; the same message must now be denied, not served
	// from the stale cache
	agent.ApplyConfig(&Config{Communities: map[string]*CommunityConfig{}})
	if resp := agent.Handle(req); resp != nil {
		t.Fatalf("revoked community still answered: %+v", resp)
	}
}

// TestFlapScheduleOnVirtualClock: a flapping link drops everything
// during the down phase of its cycle and nothing outside it, evaluated
// purely on the injector's virtual clock — no real time passes.
func TestFlapScheduleOnVirtualClock(t *testing.T) {
	inj := NewFaultInjector(7)
	clk := vclock.NewManual(time.Unix(5000, 0))
	inj.SetClock(clk)
	inj.In = Faults{Flap: &FlapSchedule{Period: 10 * time.Second, Down: 3 * time.Second}}

	// t=0: inside the leading down window.
	if fx := inj.decide(&inj.In); !fx.drop {
		t.Fatal("t=0s: expected drop during down phase")
	}
	clk.Advance(3 * time.Second) // t=3s: link back up
	if fx := inj.decide(&inj.In); fx.drop {
		t.Fatal("t=3s: dropped while link up")
	}
	clk.Advance(7 * time.Second) // t=10s: next cycle's down phase
	if fx := inj.decide(&inj.In); !fx.drop {
		t.Fatal("t=10s: expected drop at next cycle")
	}
	st := inj.Stats()
	if st.FlapDropped != 2 || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want 2 flap drops", st)
	}

	// A phase offset staggers the cycle: the same instant is up for a
	// link whose down window has been shifted away.
	shifted := Faults{Flap: &FlapSchedule{Period: 10 * time.Second, Down: 3 * time.Second, Phase: 5 * time.Second}}
	if fx := inj.decide(&shifted); fx.drop {
		t.Fatal("phase-shifted link should be up at t=10s")
	}
}

// TestBurstLossIsCorrelated: a Gilbert–Elliott channel with lossless
// good state and lossy bad state produces drops only in bursts — runs of
// consecutive losses, not isolated ones.
func TestBurstLossIsCorrelated(t *testing.T) {
	inj := NewFaultInjector(11)
	inj.In = Faults{Burst: &BurstLoss{PEnterBad: 0.02, PExitBad: 0.2, DropGood: 0, DropBad: 1}}

	const n = 5000
	runs, cur, drops := 0, 0, 0
	for i := 0; i < n; i++ {
		if inj.decide(&inj.In).drop {
			drops++
			cur++
		} else if cur > 0 {
			runs++
			cur = 0
		}
	}
	if cur > 0 {
		runs++
	}
	st := inj.Stats()
	if drops == 0 || drops == n {
		t.Fatalf("burst drops = %d of %d, want some but not all", drops, n)
	}
	if st.BurstDropped != int64(drops) || st.Dropped != int64(drops) {
		t.Fatalf("stats = %+v, want all %d drops attributed to burst", st, drops)
	}
	// With PExitBad = 0.2 the expected burst length is 5; demand the
	// average run clears 2 to prove losses are correlated, which
	// independent drops at the same overall rate would fail.
	if avg := float64(drops) / float64(runs); avg < 2 {
		t.Fatalf("average burst length %.2f over %d runs, want >= 2", avg, runs)
	}
}

// TestInjectedDelaysOnAutoClockCostNoWallTime: hours of injected delay
// slept through an auto-advancing clock finish instantly, proving the
// delay path never calls time.Sleep.
func TestInjectedDelaysOnAutoClockCostNoWallTime(t *testing.T) {
	inj := NewFaultInjector(3)
	epoch := time.Unix(9000, 0)
	clk := vclock.NewAuto(epoch)
	inj.SetClock(clk)
	inj.In = Faults{Delay: 1, MaxDelay: time.Hour}

	start := time.Now()
	delays := 0
	for i := 0; i < 200; i++ {
		fx := inj.decide(&inj.In)
		if fx.delay > 0 {
			delays++
		}
		inj.sleep(fx.delay)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("200 injected delays took %v of wall time", elapsed)
	}
	if delays == 0 {
		t.Fatal("no delays injected at probability 1")
	}
	if got := inj.Stats().Delayed; got != int64(delays) {
		t.Fatalf("Delayed = %d, want %d", got, delays)
	}
	if !clk.Now().After(epoch) {
		t.Fatal("virtual clock did not advance through the sleeps")
	}
}

// TestSetFaultsMidRun: swapping the fault schedule while traffic flows
// takes effect immediately and restarts the burst channel clean.
func TestSetFaultsMidRun(t *testing.T) {
	inj := NewFaultInjector(5)
	inj.SetFaults(Faults{Drop: 1}, Faults{})
	if fx := inj.decide(&inj.In); !fx.drop {
		t.Fatal("full-loss direction delivered")
	}
	inj.SetFaults(Faults{}, Faults{})
	if fx := inj.decide(&inj.In); fx.drop {
		t.Fatal("cleared direction still dropping")
	}
	in, out := inj.Snapshot()
	if in.Drop != 0 || out.Drop != 0 {
		t.Fatalf("snapshot = %+v / %+v after clear", in, out)
	}
}
