package snmp

import (
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nmsl/internal/vclock"
)

// MemNet is an in-memory network of agents. Ten thousand concurrent
// agents cannot each own a UDP socket (file-descriptor limits end that
// ambition around a few hundred), so the mega-fleet scenarios host
// agents as plain structs behind mem:// addresses: Dial recognizes
// "mem://<net>/<host>", and the returned client's datagrams travel
// through Marshal → per-host fault injector → Agent.Handle → Marshal,
// preserving full wire fidelity (retransmit caches, truncation,
// duplication) with zero sockets. An undelayed datagram is served on
// the goroutine that wrote it, so a round trip costs its codec calls
// and no scheduler hand-off.
//
// Every host carries its own FaultInjector link, so a chaos driver can
// partition, flap or burst-degrade hosts individually while a rollout
// is running against them.
type MemNet struct {
	name string
	seed int64

	mu    sync.Mutex
	hosts map[string]*memHost
	clock vclock.Clock
}

type memHost struct {
	agent *Agent
	inj   *FaultInjector
	down  atomic.Bool
}

// memNets is the process-global registry Dial consults for mem://
// addresses.
var memNets sync.Map // name -> *MemNet

// NewMemNet creates and registers an in-memory network. The seed
// derives each host's fault-injector seed, so a whole network's fault
// schedule is reproducible from one number. Close unregisters it.
func NewMemNet(name string, seed int64) (*MemNet, error) {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return nil, fmt.Errorf("snmp: invalid memnet name %q", name)
	}
	n := &MemNet{name: name, seed: seed, hosts: map[string]*memHost{}, clock: vclock.Real}
	if _, loaded := memNets.LoadOrStore(name, n); loaded {
		return nil, fmt.Errorf("snmp: memnet %q already registered", name)
	}
	return n, nil
}

// Close unregisters the network; later Dials to its hosts fail.
func (n *MemNet) Close() { memNets.Delete(n.name) }

// SetClock installs a virtual clock on every current and future host's
// fault injector, so injected delays and flap schedules run on
// simulated time.
func (n *MemNet) SetClock(c vclock.Clock) {
	if c == nil {
		c = vclock.Real
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.clock = c
	for _, h := range n.hosts {
		h.inj.SetClock(c)
	}
}

// AddHost registers an agent under the given host name and returns the
// fault injector guarding its link. The injector's seed is derived from
// the network seed and the host name, so schedules are stable across
// runs regardless of registration order.
func (n *MemNet) AddHost(host string, agent *Agent) (*FaultInjector, error) {
	if host == "" || strings.ContainsAny(host, "/ ") {
		return nil, fmt.Errorf("snmp: invalid memnet host %q", host)
	}
	h := fnv.New64a()
	h.Write([]byte(host))
	inj := NewFaultInjector(n.seed ^ int64(h.Sum64()))
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.hosts[host]; dup {
		return nil, fmt.Errorf("snmp: memnet host %q already registered", host)
	}
	inj.SetClock(n.clock)
	n.hosts[host] = &memHost{agent: agent, inj: inj}
	return inj, nil
}

// Addr returns the dialable address of a host on this network.
func (n *MemNet) Addr(host string) string {
	return "mem://" + n.name + "/" + host
}

// Agent returns the agent behind a host name, or nil.
func (n *MemNet) Agent(host string) *Agent {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h := n.hosts[host]; h != nil {
		return h.agent
	}
	return nil
}

// Injector returns the fault injector guarding a host's link, or nil.
func (n *MemNet) Injector(host string) *FaultInjector {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h := n.hosts[host]; h != nil {
		return h.inj
	}
	return nil
}

// Hosts returns the registered host names (unordered).
func (n *MemNet) Hosts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.hosts))
	for host := range n.hosts {
		out = append(out, host)
	}
	return out
}

// SetDown marks a host unreachable (down) or reachable again. Datagrams
// to a down host vanish silently, exactly as UDP to a dead machine.
func (n *MemNet) SetDown(host string, down bool) {
	if h := n.lookup(host); h != nil {
		h.down.Store(down)
	}
}

// Restart models an agent crash-and-restart that persisted its
// configuration: volatile state (retransmit cache, rate-limit windows)
// is cleared and the host marked reachable.
func (n *MemNet) Restart(host string) {
	h := n.lookup(host)
	if h == nil {
		return
	}
	h.agent.Reset()
	h.down.Store(false)
}

// lookup resolves a host under the network lock.
func (n *MemNet) lookup(host string) *memHost {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[host]
}

// dialMem resolves a mem:// address to a connected transport. The bool
// reports whether addr is a mem:// address at all (false means the
// caller should treat it as a real network address).
func dialMem(addr string) (clientConn, bool, error) {
	rest, ok := strings.CutPrefix(addr, "mem://")
	if !ok {
		return nil, false, nil
	}
	netName, host, ok := strings.Cut(rest, "/")
	if !ok || netName == "" || host == "" {
		return nil, true, fmt.Errorf("snmp: malformed mem address %q (want mem://net/host)", addr)
	}
	v, found := memNets.Load(netName)
	if !found {
		return nil, true, fmt.Errorf("snmp: memnet %q not registered", netName)
	}
	h := v.(*MemNet).lookup(host)
	if h == nil {
		return nil, true, fmt.Errorf("snmp: no host %q on memnet %q", host, netName)
	}
	// Hosts are never removed, so the connection holds its host.
	return &memConn{host: h}, true, nil
}

// deliver carries one client datagram to the host and its response
// back, applying the host's fault schedule in both directions. It runs
// on the writer's goroutine, so the down flag and the inbound fault are
// read in the order the writer sent. Only a datagram the injector
// delays, in either direction, moves to a goroutine of its own: the
// delay stalls that datagram and not the sender, and delayed datagrams
// are the only ones that overtake others.
func (h *memHost) deliver(req []byte, back *datagramQueue) {
	if h.down.Load() {
		return
	}
	fx := h.inj.decide(&h.inj.In)
	if fx.drop {
		return
	}
	if fx.truncate {
		req = req[:truncateLen(len(req))]
	}
	copies := 1
	if fx.dup {
		copies = 2
	}
	if fx.delay > 0 {
		req = append([]byte(nil), req...) // the writer owns its buffer again once Write returns
		go func() {
			h.inj.sleep(fx.delay)
			h.serve(req, copies, back)
		}()
		return
	}
	h.serve(req, copies, back)
}

// serve runs each delivered copy of a request through the agent and
// sends the response back through the outbound fault schedule.
func (h *memHost) serve(req []byte, copies int, back *datagramQueue) {
	for i := 0; i < copies; i++ {
		out := h.agent.respond(req)
		if out == nil {
			continue // malformed, denied, rate-limited or panicked: silence
		}
		fx := h.inj.decide(&h.inj.Out)
		if fx.drop {
			continue
		}
		if fx.truncate {
			out = out[:truncateLen(len(out))]
		}
		if fx.delay > 0 {
			go func() {
				h.inj.sleep(fx.delay)
				back.push(out)
				if fx.dup {
					back.push(out)
				}
			}()
			continue
		}
		back.push(out)
		if fx.dup {
			back.push(out)
		}
	}
}

// memConn is the client's end of a mem:// link: a Write is served
// before it returns unless the link delays it, and Reads drain the
// response queue under the client's read deadline.
type memConn struct {
	host *memHost
	q    datagramQueue
}

func (mc *memConn) Write(b []byte) (int, error) {
	if mc.q.isClosed() {
		return 0, net.ErrClosed
	}
	mc.host.deliver(b, &mc.q)
	return len(b), nil
}

func (mc *memConn) Read(b []byte) (int, error)        { return mc.q.read(b) }
func (mc *memConn) SetReadDeadline(t time.Time) error { return mc.q.setDeadline(t) }
func (mc *memConn) Close() error                      { mc.q.close(); return nil }

// datagramQueue is a bounded inbox with net.Conn-style read deadlines,
// shared by memConn and the UDP client mux. Everything a reader waits
// for — a datagram, Close, the deadline — is state under mu; the wake
// channel only tells a blocked reader to look again. A reader arms the
// queue's one timer only when it has to block, so a response already
// queued costs no timer at all. SetReadDeadline from another goroutine
// wakes a blocked Read, as on a net.Conn: the client's context-cancel
// hook interrupts a read by setting a past deadline.
//
// The zero value is an open queue with no deadline.
type datagramQueue struct {
	mu       sync.Mutex
	fifo     [][]byte // queued datagrams, fifo[head:]
	head     int
	closed   bool
	deadline time.Time // zero means none
	timer    *time.Timer
	wake     chan struct{} // one slot; made when a reader first blocks
	waiting  int           // readers blocked on wake
}

// inboxDepth bounds queued responses per connection, standing in for
// the kernel's socket buffer: overflow is silently dropped.
const inboxDepth = 64

// push enqueues one datagram, dropping it if the inbox is full or the
// queue closed. The queue keeps p: the caller must not reuse it.
func (q *datagramQueue) push(p []byte) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.fifo)-q.head >= inboxDepth {
		return
	}
	if q.head > 0 && len(q.fifo) == cap(q.fifo) {
		n := copy(q.fifo, q.fifo[q.head:])
		clear(q.fifo[n:])
		q.fifo, q.head = q.fifo[:n], 0
	}
	q.fifo = append(q.fifo, p)
	q.wakeLocked()
}

func (q *datagramQueue) read(b []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			q.wakeLocked() // every blocked reader sees the close
			return 0, net.ErrClosed
		}
		var wait time.Duration
		if !q.deadline.IsZero() {
			if wait = time.Until(q.deadline); wait <= 0 {
				q.wakeLocked() // and every blocked reader the deadline
				return 0, errReadTimeout
			}
		}
		if q.head < len(q.fifo) {
			p := q.fifo[q.head]
			q.fifo[q.head] = nil
			if q.head++; q.head == len(q.fifo) {
				q.fifo, q.head = q.fifo[:0], 0
			} else {
				q.wakeLocked() // datagrams left for another reader
			}
			return copy(b, p), nil
		}
		if q.wake == nil {
			q.wake = make(chan struct{}, 1)
		}
		if wait > 0 {
			if q.timer == nil {
				q.timer = time.AfterFunc(wait, q.timeUp)
			} else {
				q.timer.Reset(wait)
			}
		}
		q.waiting++
		q.mu.Unlock()
		<-q.wake
		q.mu.Lock()
		q.waiting--
	}
}

// timeUp is the timer's callback: it only wakes the reader, which
// re-checks the deadline itself.
func (q *datagramQueue) timeUp() {
	q.mu.Lock()
	q.wakeLocked()
	q.mu.Unlock()
}

// wakeLocked hands the wake token to a blocked reader, if there is one.
// The slot holds the token until that reader takes it, so a wake-up
// that races the reader's block is never lost.
func (q *datagramQueue) wakeLocked() {
	if q.waiting == 0 {
		return
	}
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *datagramQueue) setDeadline(t time.Time) error {
	q.mu.Lock()
	q.deadline = t
	q.wakeLocked()
	q.mu.Unlock()
	return nil
}

func (q *datagramQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.fifo, q.head = nil, 0
	if q.timer != nil {
		q.timer.Stop()
	}
	q.wakeLocked()
}

func (q *datagramQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// timeoutError mirrors the net package's deadline error: Timeout()
// reports true so callers treating timeouts specially keep working.
type timeoutError struct{}

func (timeoutError) Error() string   { return "snmp: read deadline exceeded" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var errReadTimeout error = timeoutError{}
