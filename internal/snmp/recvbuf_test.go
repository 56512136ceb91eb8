package snmp

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"nmsl/internal/mib"
)

// TestRoundTripAllocBudget is the allocation gate for the datagram path:
// one GET round trip over mem:// — client and agent side both, they
// share the process — allocates under 1.5 KB. A 64 KB receive buffer
// per request would exceed that forty times over, a codec that builds a
// Value tree per message (7.5 KB a round trip) five times, and a
// transport that copies each datagram and allocates a channel and a
// timer per read (1.6 KB a round trip) once.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	n, err := NewMemNet("alloc-budget", 1)
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
	c.SetTimeout(time.Second)
	oid := mib.NewStandard().Lookup("mgmt.mib.system.sysDescr").OID()
	get := func() {
		if _, err := c.Get(oid); err != nil {
			t.Fatal(err)
		}
	}
	get() // warm the pool and the transport

	const trips = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perTrip := (after.TotalAlloc - before.TotalAlloc) / trips
	t.Logf("%d B allocated per GET round trip", perTrip)
	if perTrip >= 1536 {
		t.Errorf("a GET round trip over mem:// allocates %d B, want < 1.5 KB", perTrip)
	}
}

// TestRecvBufPoolKeepsClientsApart runs 8 clients at once over the
// shared buffer pool, each against an agent of its own holding a
// distinct payload of a distinct length. A buffer handed back while a
// decoded message still aliased it, or handed to two readers at once,
// shows as a client decoding another agent's bytes (and as a race under
// -race).
func TestRecvBufPoolKeepsClientsApart(t *testing.T) {
	n, err := NewMemNet("pool-apart", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	oid := mib.NewStandard().Lookup("mgmt.mib.system.sysDescr").OID()

	const clients, trips = 8, 200
	payloads := make([][]byte, clients)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 500*(i+1))
		agent := memAgent()
		agent.store.Set(oid, Octets(payloads[i]))
		if _, err := n.AddHost(fmt.Sprintf("h%d", i), agent); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(n.Addr(fmt.Sprintf("h%d", i)), "public")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.SetTimeout(2 * time.Second)
			var held [][]byte // earlier replies must stay intact too
			for j := 0; j < trips; j++ {
				binds, err := c.Get(oid)
				if err != nil {
					errs <- fmt.Errorf("client %d trip %d: %w", i, j, err)
					return
				}
				if len(binds) != 1 {
					errs <- fmt.Errorf("client %d trip %d: %d bindings", i, j, len(binds))
					return
				}
				held = append(held, binds[0].Value.Bytes)
			}
			for j, got := range held {
				if !bytes.Equal(got, payloads[i]) {
					errs <- fmt.Errorf("client %d trip %d decoded %d bytes of %q, want %d of %q",
						i, j, len(got), got[:1], len(payloads[i]), payloads[i][:1])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
