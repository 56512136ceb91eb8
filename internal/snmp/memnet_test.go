package snmp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"nmsl/internal/mib"
	"nmsl/internal/obs"
	"nmsl/internal/vclock"
)

// memAgent builds an agent with an admin community and a public
// read-only community, ready to host on a MemNet.
func memAgent() *Agent {
	store := NewStore()
	tree := mib.NewStandard()
	PopulateFromMIB(store, tree, "mgmt.mib")
	return NewAgent(store, &Config{
		AdminCommunity: "admin",
		Communities: map[string]*CommunityConfig{
			"public": {Access: mib.AccessReadOnly, View: []View{{Prefix: tree.Lookup("mgmt.mib").OID()}}},
		},
	})
}

func TestMemNetRoundTrip(t *testing.T) {
	n, err := NewMemNet("rt", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.AddHost("h1", memAgent()); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(n.Addr("h1"), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)

	tree := mib.NewStandard()
	binds, err := c.Get(tree.Lookup("mgmt.mib.system.sysDescr").OID())
	if err != nil {
		t.Fatalf("get over mem://: %v", err)
	}
	if len(binds) != 1 {
		t.Fatalf("bindings: %v", binds)
	}

	// Config install + fetch exercise the Set path and the opaque blob
	// round trip through the in-memory wire.
	admin, err := Dial(n.Addr("h1"), "admin")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	admin.SetTimeout(100 * time.Millisecond)
	cfg := &Config{AdminCommunity: "admin", Communities: map[string]*CommunityConfig{
		"ops": {Access: mib.AccessAny, View: []View{{Prefix: tree.Lookup("mgmt.mib").OID()}}},
	}}
	if err := admin.InstallConfig(cfg); err != nil {
		t.Fatalf("install over mem://: %v", err)
	}
	got, err := admin.FetchConfig()
	if err != nil {
		t.Fatalf("fetch over mem://: %v", err)
	}
	if got.Digest() != cfg.Digest() {
		t.Fatal("fetched config digest differs from installed")
	}
}

func TestMemNetDialErrors(t *testing.T) {
	if _, err := Dial("mem://nosuch/h", "public"); err == nil {
		t.Fatal("dial of unregistered memnet succeeded")
	}
	n, err := NewMemNet("errs", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := Dial("mem://errs/ghost", "public"); err == nil {
		t.Fatal("dial of unknown host succeeded")
	}
	if _, err := Dial("mem://errs", "public"); err == nil {
		t.Fatal("malformed mem address accepted")
	}
}

// TestMemNetDownAndRestart: a down host is silence; after Restart the
// same address answers again and the agent's config survived.
func TestMemNetDownAndRestart(t *testing.T) {
	n, err := NewMemNet("dr", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.AddHost("h1", memAgent()); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(n.Addr("h1"), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(40 * time.Millisecond)
	c.SetRetries(0)

	tree := mib.NewStandard()
	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()

	n.SetDown("h1", true)
	if _, err := c.Get(oid); err == nil {
		t.Fatal("get to a down host succeeded")
	}
	n.Restart("h1")
	if _, err := c.Get(oid); err != nil {
		t.Fatalf("get after restart: %v", err)
	}
}

// TestPreparedInstallIdempotentAcrossAckLoss: the agent applies the
// config, the ack is lost, and a later re-send of the *prepared*
// request is absorbed by the retransmit cache — ConfigLoads stays 1.
// This is the property that keeps staged-rollout retries exactly-once.
func TestPreparedInstallIdempotentAcrossAckLoss(t *testing.T) {
	n, err := NewMemNet("prep", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	agent := memAgent()
	inj, err := n.AddHost("h1", agent)
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(n.Addr("h1"), "admin")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(40 * time.Millisecond)
	c.SetRetries(0) // retries happen at the caller, as in a rollout attempt loop
	c.SetBackoff(0, 0)

	tree := mib.NewStandard()
	cfg := &Config{AdminCommunity: "admin", Communities: map[string]*CommunityConfig{
		"ops": {Access: mib.AccessAny, View: []View{{Prefix: tree.Lookup("mgmt.mib").OID()}}},
	}}
	prep, err := c.PrepareInstall(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// First send: request delivered, response eaten by the network.
	inj.SetFaults(Faults{}, Faults{DropFirst: 1})
	if err := prep.Send(context.Background()); err == nil {
		t.Fatal("send with dropped ack should time out")
	}
	if got := agent.Stats().ConfigLoads; got != 1 {
		t.Fatalf("ConfigLoads after lost ack = %d, want 1 (applied once)", got)
	}

	// Caller-level retry of the same prepared request: the agent's
	// retransmit cache answers it without re-applying.
	if err := prep.Send(context.Background()); err != nil {
		t.Fatalf("re-send of prepared install: %v", err)
	}
	if got := agent.Stats().ConfigLoads; got != 1 {
		t.Fatalf("ConfigLoads after re-send = %d, want 1 (duplicate apply)", got)
	}
	if agent.Stats().Retransmits != 1 {
		t.Fatalf("agent retransmit cache hits = %d, want 1", agent.Stats().Retransmits)
	}
}

// TestMemNetClientCancelInterruptsBlockedRead: canceling the context
// mid-attempt must unblock the client promptly, not after the full
// attempt timeout — the regression test for context-prompt cancellation
// in the retry loop.
func TestMemNetClientCancelInterruptsBlockedRead(t *testing.T) {
	n, err := NewMemNet("cancel", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.AddHost("h1", memAgent()); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(n.Addr("h1"), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A long per-attempt timeout and a long backoff: only prompt
	// cancellation can finish this test quickly.
	c.SetTimeout(30 * time.Second)
	c.SetRetries(2)
	c.SetBackoff(10*time.Second, 30*time.Second)
	n.SetDown("h1", true) // no response will ever come

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	var gotErr error
	start := time.Now()
	go func() {
		defer wg.Done()
		tree := mib.NewStandard()
		_, gotErr = c.GetContext(ctx, tree.Lookup("mgmt.mib.system.sysDescr").OID())
	}()
	time.Sleep(50 * time.Millisecond) // let the read block
	cancel()
	wg.Wait()
	if !errors.Is(gotErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", gotErr)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v to unblock the client", elapsed)
	}
}

// TestClientMuxSharesOneSocket: several clients over one mux socket
// against real UDP agents, interleaved, each getting its own responses.
func TestClientMuxSharesOneSocket(t *testing.T) {
	tree := mib.NewStandard()
	mux, err := NewClientMux()
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()

	const agents = 4
	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	var clients []*Client
	for i := 0; i < agents; i++ {
		a := memAgent()
		addr, err := a.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		c, err := mux.Dial(addr.String(), "public")
		if err != nil {
			t.Fatal(err)
		}
		c.SetTimeout(200 * time.Millisecond)
		clients = append(clients, c)
	}

	var wg sync.WaitGroup
	errs := make([]error, agents)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := c.Get(oid); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d over mux: %v", i, err)
		}
	}

	// Closing one client detaches only its route.
	if err := clients[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[1].Get(oid); err != nil {
		t.Fatalf("surviving client after sibling close: %v", err)
	}
}

// queued reports how many datagrams wait in q.
func (q *datagramQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.fifo) - q.head
}

// readAsync starts a Read on q and returns where its result lands.
func readAsync(q *datagramQueue) <-chan error {
	done := make(chan error, 1)
	go func() {
		var b [16]byte
		_, err := q.read(b[:])
		done <- err
	}()
	return done
}

// waitErr waits up to a second for a blocked Read to return.
func waitErr(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("blocked Read was not woken")
		return nil
	}
}

// waitBlocked waits until n readers are blocked on q.
func waitBlocked(t *testing.T, q *datagramQueue, n int) {
	t.Helper()
	for start := time.Now(); time.Since(start) < time.Second; time.Sleep(time.Millisecond) {
		q.mu.Lock()
		w := q.waiting
		q.mu.Unlock()
		if w == n {
			return
		}
	}
	t.Fatalf("%d readers never blocked", n)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestDatagramQueue pins the inbox contract memConn and the UDP mux
// share: net.Conn read-deadline semantics, Close, FIFO order and the
// overflow drop.
func TestDatagramQueue(t *testing.T) {
	t.Run("past deadline trips at once", func(t *testing.T) {
		var q datagramQueue
		q.push([]byte("x"))
		q.setDeadline(time.Unix(1, 0))
		var b [16]byte
		if _, err := q.read(b[:]); !isTimeout(err) {
			t.Fatalf("read past the deadline: %v, want a timeout", err)
		}
		q.setDeadline(time.Time{})
		if n, err := q.read(b[:]); err != nil || string(b[:n]) != "x" {
			t.Fatalf("read after clearing the deadline: %q, %v", b[:n], err)
		}
	})
	t.Run("re-armed deadline wakes a blocked read", func(t *testing.T) {
		var q datagramQueue
		q.setDeadline(time.Now().Add(time.Hour))
		done := readAsync(&q)
		waitBlocked(t, &q, 1)
		start := time.Now()
		q.setDeadline(time.Now().Add(20 * time.Millisecond))
		if err := waitErr(t, done); !isTimeout(err) {
			t.Fatalf("re-armed read: %v, want a timeout", err)
		}
		if d := time.Since(start); d < 20*time.Millisecond {
			t.Fatalf("re-armed read timed out after %v, before its deadline", d)
		}
	})
	t.Run("zero deadline means none", func(t *testing.T) {
		var q datagramQueue
		q.setDeadline(time.Now().Add(10 * time.Millisecond))
		q.setDeadline(time.Time{})
		done := readAsync(&q)
		waitBlocked(t, &q, 1)
		time.Sleep(30 * time.Millisecond) // past the deadline that was cleared
		select {
		case err := <-done:
			t.Fatalf("read with no deadline returned %v", err)
		default:
		}
		q.push([]byte("late"))
		if err := waitErr(t, done); err != nil {
			t.Fatalf("read with no deadline: %v", err)
		}
	})
	t.Run("close wakes every reader", func(t *testing.T) {
		var q datagramQueue
		a, b := readAsync(&q), readAsync(&q)
		waitBlocked(t, &q, 2)
		q.close()
		for _, done := range []<-chan error{a, b} {
			if err := waitErr(t, done); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("read after close: %v, want net.ErrClosed", err)
			}
		}
	})
	t.Run("datagrams left queued wake the next reader", func(t *testing.T) {
		var q datagramQueue
		a, b := readAsync(&q), readAsync(&q)
		waitBlocked(t, &q, 2)
		q.mu.Lock() // both land before either reader runs: one wake, two datagrams
		q.fifo = append(q.fifo, []byte("1"), []byte("2"))
		q.wakeLocked()
		q.mu.Unlock()
		for _, done := range []<-chan error{a, b} {
			if err := waitErr(t, done); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("the 65th datagram is dropped", func(t *testing.T) {
		var q datagramQueue
		for i := 0; i <= inboxDepth; i++ {
			q.push([]byte(fmt.Sprint(i)))
		}
		var b [16]byte
		for i := 0; i < inboxDepth; i++ {
			n, err := q.read(b[:])
			if err != nil || string(b[:n]) != fmt.Sprint(i) {
				t.Fatalf("datagram %d: %q, %v", i, b[:n], err)
			}
		}
		q.setDeadline(time.Unix(1, 0))
		if _, err := q.read(b[:]); !isTimeout(err) {
			t.Fatalf("read past a full inbox: %v, want a timeout (datagram %d dropped)", err, inboxDepth)
		}
	})
}

// TestMemNetInlineDelivery: an undelayed datagram is served on the
// writer's goroutine, so its response waits in the queue when Write
// returns — twice on a duplicating link — while a delayed one is not,
// and no round trip leaves a goroutine behind.
func TestMemNetInlineDelivery(t *testing.T) {
	n, err := NewMemNet("inline", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.AddHost("h1", memAgent()); err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewManual(time.Unix(0, 0))
	n.SetClock(clock)
	inj := n.Injector("h1")
	oid := mib.NewStandard().Lookup("mgmt.mib.system.sysDescr").OID()
	reqID := int32(0)
	dial := func(t *testing.T) (*memConn, []byte) {
		t.Helper()
		conn, _, err := dialMem(n.Addr("h1"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		reqID++ // a fresh request each time, not a retransmit
		req, err := (&Message{Version: Version0, Community: "public", PDU: PDU{
			Type: TagGetRequest, RequestID: reqID, Bindings: []Binding{{OID: oid, Value: Null()}},
		}}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return conn.(*memConn), req
	}

	for _, tc := range []struct {
		name    string
		in, out Faults
		want    int
	}{
		{"clean link", Faults{}, Faults{}, 1},
		{"duplicated response", Faults{}, Faults{Duplicate: 1}, 2},
		{"duplicated request", Faults{Duplicate: 1}, Faults{}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj.SetFaults(tc.in, tc.out)
			defer inj.SetFaults(Faults{}, Faults{})
			mc, req := dial(t)
			if _, err := mc.Write(req); err != nil {
				t.Fatal(err)
			}
			if got := mc.q.queued(); got != tc.want {
				t.Fatalf("%d responses queued when Write returned, want %d", got, tc.want)
			}
		})
	}

	for _, tc := range []struct {
		name    string
		in, out Faults
	}{
		{"delayed request", Faults{Delay: 1, MaxDelay: time.Second}, Faults{}},
		{"delayed response", Faults{}, Faults{Delay: 1, MaxDelay: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj.SetFaults(tc.in, tc.out)
			defer inj.SetFaults(Faults{}, Faults{})
			mc, req := dial(t)
			if _, err := mc.Write(req); err != nil {
				t.Fatal(err)
			}
			if got := mc.q.queued(); got != 0 {
				t.Fatalf("%d responses queued before the delay passed", got)
			}
			for start := time.Now(); clock.Sleepers() == 0; time.Sleep(time.Millisecond) {
				if time.Since(start) > time.Second {
					t.Fatal("the delayed datagram never started its delay")
				}
			}
			clock.Advance(time.Second)
			mc.SetReadDeadline(time.Now().Add(time.Second))
			var b [maxDatagram]byte
			if _, err := mc.Read(b[:]); err != nil {
				t.Fatalf("delayed response: %v", err)
			}
		})
	}

	t.Run("no goroutine per round trip", func(t *testing.T) {
		c, err := Dial(n.Addr("h1"), "public")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetTimeout(time.Second)
		before, most := runtime.NumGoroutine(), 0
		for i := 0; i < 1000; i++ {
			if _, err := c.Get(oid); err != nil {
				t.Fatal(err)
			}
			most = max(most, runtime.NumGoroutine())
		}
		if most > before {
			t.Fatalf("goroutines rose from %d to %d across 1,000 round trips", before, most)
		}
	})
}

// TestAgentPanicContained: an agent with no store panics on a GET of
// an OID in its view. Over mem:// the panic happens on the client's own
// goroutine, over UDP on the agent's serve loop; either way the
// datagram is dropped and counted, the client sees a timeout, and the
// process and the serve loop survive.
func TestAgentPanicContained(t *testing.T) {
	tree := mib.NewStandard()
	oid := tree.Lookup("mgmt.mib.system.sysDescr").OID()
	broken := func() (*Agent, *obs.Registry) {
		a := NewAgent(nil, &Config{Communities: map[string]*CommunityConfig{
			"public": {Access: mib.AccessReadOnly, View: []View{{Prefix: tree.Lookup("mgmt.mib").OID()}}},
		}})
		reg := obs.NewRegistry()
		a.SetMetrics(reg)
		return a, reg
	}
	check := func(t *testing.T, a *Agent, reg *obs.Registry, addr string) {
		t.Helper()
		c, err := Dial(addr, "public")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetTimeout(50 * time.Millisecond)
		c.SetRetries(0)
		if _, err := c.Get(oid); !isTimeout(err) {
			t.Fatalf("get from a panicking agent: %v, want a timeout", err)
		}
		if got := a.Stats().Panics; got != 1 {
			t.Fatalf("Stats().Panics = %d, want 1", got)
		}
		if got := reg.Counter(obs.L(obs.MetricPanics, "site", "agent")).Value(); got != 1 {
			t.Fatalf("%s{site=\"agent\"} = %d, want 1", obs.MetricPanics, got)
		}
		// The serve step survived: a second panicking request is
		// contained the same way.
		if _, err := c.GetNext(tree.Lookup("mgmt.mib").OID()); !isTimeout(err) {
			t.Fatalf("getnext from a panicking agent: %v, want a timeout", err)
		}
		if got := a.Stats().Panics; got != 2 {
			t.Fatalf("Stats().Panics after a second panic = %d, want 2", got)
		}
	}
	t.Run("mem", func(t *testing.T) {
		n, err := NewMemNet("panic", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		a, reg := broken()
		if _, err := n.AddHost("h1", a); err != nil {
			t.Fatal(err)
		}
		check(t, a, reg, n.Addr("h1"))
	})
	t.Run("udp", func(t *testing.T) {
		a, reg := broken()
		addr, err := a.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		check(t, a, reg, addr.String())
	})
}
