package snmp

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// ClientMux multiplexes many management clients over one UDP socket.
// It is the real-network fallback to MemNet: when the fleet is remote
// and mem:// is not an option, a manager process still cannot afford a
// socket per agent, so the mux owns a single socket, stamps outbound
// datagrams with the shared source port, and demultiplexes inbound
// datagrams to per-agent virtual connections by remote address.
type ClientMux struct {
	pc *net.UDPConn

	mu     sync.Mutex
	routes map[string]*muxConn
	closed bool
}

// NewClientMux opens the shared socket and starts its demux loop.
func NewClientMux() (*ClientMux, error) {
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4zero, Port: 0})
	if err != nil {
		return nil, err
	}
	m := &ClientMux{pc: pc, routes: map[string]*muxConn{}}
	go m.readLoop()
	return m, nil
}

// Dial returns a client to the given agent address sharing the mux's
// socket. Closing the client detaches its route; the socket stays open
// for the other clients.
func (m *ClientMux) Dial(addr, community string) (*Client, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	key := udpAddr.String()
	mc := &muxConn{mux: m, raddr: udpAddr, key: key}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, net.ErrClosed
	}
	if _, dup := m.routes[key]; dup {
		return nil, fmt.Errorf("snmp: mux already has a client for %s", key)
	}
	m.routes[key] = mc
	return NewClientOn(mc, community), nil
}

// DialAny routes like the package-level Dial — mem:// addresses go
// over the in-memory network, anything else over UDP — except that the
// UDP leg shares the mux's one socket. It is the dial function a mixed
// fleet hands to the rollout: ten thousand in-memory agents and a rack
// of real ones converge through the same code path without the manager
// opening a socket per remote agent.
func (m *ClientMux) DialAny(addr, community string) (*Client, error) {
	if conn, isMem, err := dialMem(addr); isMem {
		if err != nil {
			return nil, err
		}
		return NewClientOn(conn, community), nil
	}
	return m.Dial(addr, community)
}

// Close shuts the shared socket and every client on it.
func (m *ClientMux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	routes := make([]*muxConn, 0, len(m.routes))
	for _, mc := range m.routes {
		routes = append(routes, mc)
	}
	m.routes = map[string]*muxConn{}
	m.mu.Unlock()
	for _, mc := range routes {
		mc.q.close()
	}
	return m.pc.Close()
}

// readLoop demultiplexes inbound datagrams by source address. Datagrams
// from addresses with no live route are discarded, as a kernel would
// discard datagrams to a closed port.
func (m *ClientMux) readLoop() {
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := m.pc.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		m.mu.Lock()
		mc := m.routes[raddr.String()]
		m.mu.Unlock()
		if mc != nil {
			mc.q.push(append([]byte(nil), buf[:n]...)) // buf is reused; the queue keeps what it is given
		}
	}
}

// drop detaches one route.
func (m *ClientMux) drop(key string) {
	m.mu.Lock()
	delete(m.routes, key)
	m.mu.Unlock()
}

// muxConn is one client's virtual connection over the shared socket.
type muxConn struct {
	mux   *ClientMux
	raddr *net.UDPAddr
	key   string
	q     datagramQueue
}

func (mc *muxConn) Write(b []byte) (int, error) {
	if mc.q.isClosed() {
		return 0, net.ErrClosed
	}
	return mc.mux.pc.WriteToUDP(b, mc.raddr)
}

func (mc *muxConn) Read(b []byte) (int, error)        { return mc.q.read(b) }
func (mc *muxConn) SetReadDeadline(t time.Time) error { return mc.q.setDeadline(t) }

func (mc *muxConn) Close() error {
	mc.mux.drop(mc.key)
	mc.q.close()
	return nil
}
