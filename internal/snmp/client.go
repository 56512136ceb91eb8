package snmp

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nmsl/internal/mib"
	"nmsl/internal/obs"
)

// clientConn is the transport a Client speaks over: the subset of
// *net.UDPConn the client uses, so tests can substitute a FaultyConn (or
// any in-memory pipe) for the real socket.
type clientConn interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// maxDatagram is the largest response a client will read: the UDP
// maximum, so no agent reply is ever truncated by the receive buffer.
const maxDatagram = 64 * 1024

// recvBufs recycles receive buffers across round trips and clients: a
// reply is a few hundred bytes, and a 64 KB buffer allocated and zeroed
// to hold each one would be most of what a fleet rollout allocates.
// Pooling is sound because Unmarshal copies every byte string out of
// the datagram (Decode), so nothing aliases a buffer once it is put
// back.
var recvBufs = sync.Pool{New: func() any { return new([maxDatagram]byte) }}

// clientMetrics holds the client's pre-resolved instruments.
type clientMetrics struct {
	requests    *obs.Counter
	retransmits *obs.Counter
	timeouts    *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		requests:    reg.Counter(MetricClientRequests),
		retransmits: reg.Counter(MetricClientRetransmits),
		timeouts:    reg.Counter(MetricClientTimeouts),
	}
}

// Client is a simple synchronous management client.
type Client struct {
	conn        clientConn
	community   string
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	reqID       atomic.Int32
	om          clientMetrics
}

// NewClientOn returns a client speaking over an already-connected
// transport. The transport must be datagram-oriented (one Write per
// request, one Read per response).
func NewClientOn(conn clientConn, community string) *Client {
	c := &Client{
		conn:        conn,
		community:   community,
		timeout:     500 * time.Millisecond,
		retries:     2,
		backoffBase: 50 * time.Millisecond,
		backoffMax:  2 * time.Second,
		om:          newClientMetrics(obs.Default),
	}
	// Start request IDs at a random point: successive short-lived clients
	// to the same agent must not reuse IDs, or the agent's retransmit
	// cache would answer a new client's request with a stale response.
	c.reqID.Store(rand.Int31n(1 << 30))
	return c
}

// Dial connects a client to an agent address with the given community.
// Addresses of the form "mem://net/host" are routed over the in-memory
// network registered under that name (see MemNet); anything else is
// dialed as UDP. Routing here — at the single dial point — is what lets
// rollouts, reconciliation and audits run unchanged against ten
// thousand in-process agents.
func Dial(addr, community string) (*Client, error) {
	if conn, isMem, err := dialMem(addr); isMem {
		if err != nil {
			return nil, err
		}
		return NewClientOn(conn, community), nil
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, err
	}
	return NewClientOn(conn, community), nil
}

// SetTimeout adjusts the per-attempt timeout.
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// SetMetrics redirects the client's counters to reg (obs.Default is
// the initial destination; obs.Disabled turns them off).
func (c *Client) SetMetrics(reg *obs.Registry) { c.om = newClientMetrics(reg) }

// SetRetries adjusts how many times a request is retransmitted after the
// first attempt times out. Negative counts mean zero.
func (c *Client) SetRetries(n int) {
	if n < 0 {
		n = 0
	}
	c.retries = n
}

// SetBackoff adjusts the delay between retransmits: the k-th retry waits
// base·2^k, jittered ±50%, capped at max. A zero base disables backoff
// (retransmit immediately on timeout).
func (c *Client) SetBackoff(base, max time.Duration) {
	c.backoffBase = base
	c.backoffMax = max
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

// RequestError is a non-zero error-status response.
type RequestError struct {
	Status ErrorStatus
	Index  int
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("snmp: agent returned %s (index %d)", e.Status, e.Index)
}

// MaxBackoff clamps an overflowed exponential delay when no explicit cap
// is configured: without it, base << k wraps negative at large k and the
// delay collapses to an immediate, tight-looping retry.
const MaxBackoff = time.Hour

// Backoff computes the jittered exponential delay before retry attempt k
// (k = 0 for the first retry): base·2^k, clamped to max when max > 0,
// then jittered uniformly in [d/2, 3d/2) by one draw of int63n so a
// fleet of retrying installers does not retransmit in lockstep. The
// client passes the global generator; a rollout passes its own, seeded
// one. A non-positive base means no delay.
func Backoff(base, max time.Duration, k int, int63n func(int64) int64) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(k)
	// Detect shift overflow whether or not a cap is configured: shifting
	// back must recover the base exactly.
	if d <= 0 || d>>uint(k) != base {
		d = MaxBackoff
	}
	if max > 0 && d > max {
		d = max
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int63n(2*half))
}

// roundTrip sends the PDU and waits for the matching response,
// retransmitting with exponential backoff until the retry budget or the
// context runs out.
func (c *Client) roundTrip(ctx context.Context, pduType byte, bindings []Binding) (*Message, error) {
	return c.roundTripID(ctx, c.reqID.Add(1), pduType, bindings)
}

// roundTripID is roundTrip with a caller-chosen request ID. Reusing an
// ID across calls makes the retransmit idempotent end to end: if the
// agent applied the write but the ack was lost, a later resend with the
// same ID and bindings hits the agent's retransmit cache and is answered
// without re-applying.
func (c *Client) roundTripID(ctx context.Context, id int32, pduType byte, bindings []Binding) (*Message, error) {
	req := &Message{
		Version:   Version0,
		Community: c.community,
		PDU:       PDU{Type: pduType, RequestID: id, Bindings: bindings},
	}
	out, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	c.om.requests.Inc()
	// Only build the label (a Sprintf) when a sink will see it.
	var sp obs.Span
	if obs.TracingEnabled() {
		sp = obs.StartSpan("snmp.roundtrip", obs.Label{Key: "type", Value: fmt.Sprintf("0x%02x", pduType)})
	}
	defer sp.End()
	// A canceled context must interrupt a blocked Read immediately: a
	// read deadline only encodes the context's *deadline*, so without
	// this a rollout canceling mid-attempt still waited out the full
	// attempt timeout. Forcing the deadline into the past wakes the
	// reader; the ctx.Err() checks below turn that wake into the
	// context's error.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			_ = c.conn.SetReadDeadline(time.Unix(1, 0))
		})
		defer stop()
	}
	buf := recvBufs.Get().(*[maxDatagram]byte)
	defer recvBufs.Put(buf)
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, Backoff(c.backoffBase, c.backoffMax, attempt-1, rand.Int63n)); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.om.retransmits.Inc()
		}
		if _, err := c.conn.Write(out); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(c.timeout)
		if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
			deadline = ctxDeadline
		}
		for {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			// Close the race where the AfterFunc fired between the
			// SetReadDeadline above and the Read below (which would
			// re-arm the future deadline and block anyway).
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			n, err := c.conn.Read(buf[:])
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, ctxErr
				}
				c.om.timeouts.Inc()
				lastErr = fmt.Errorf("snmp: timeout waiting for response: %w", err)
				break
			}
			resp, err := Unmarshal(buf[:n])
			if err != nil || resp.PDU.Type != TagGetResponse || resp.PDU.RequestID != id {
				continue // stale or malformed; keep waiting
			}
			if resp.PDU.ErrorStatus != NoError {
				return resp, &RequestError{Status: resp.PDU.ErrorStatus, Index: resp.PDU.ErrorIndex}
			}
			return resp, nil
		}
	}
	return nil, lastErr
}

// sleepCtx sleeps for d or until the context is done, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// GetContext fetches the values of the given OIDs, honoring ctx across
// retransmits.
func (c *Client) GetContext(ctx context.Context, oids ...mib.OID) ([]Binding, error) {
	binds := make([]Binding, len(oids))
	for i, o := range oids {
		binds[i] = Binding{OID: o, Value: Null()}
	}
	resp, err := c.roundTrip(ctx, TagGetRequest, binds)
	if err != nil {
		return nil, err
	}
	return resp.PDU.Bindings, nil
}

// Get fetches the values of the given OIDs.
func (c *Client) Get(oids ...mib.OID) ([]Binding, error) {
	return c.GetContext(context.Background(), oids...)
}

// GetNextContext fetches the lexicographic successors of the given OIDs,
// honoring ctx across retransmits.
func (c *Client) GetNextContext(ctx context.Context, oids ...mib.OID) ([]Binding, error) {
	binds := make([]Binding, len(oids))
	for i, o := range oids {
		binds[i] = Binding{OID: o, Value: Null()}
	}
	resp, err := c.roundTrip(ctx, TagGetNextRequest, binds)
	if err != nil {
		return nil, err
	}
	return resp.PDU.Bindings, nil
}

// GetNext fetches the lexicographic successors of the given OIDs.
func (c *Client) GetNext(oids ...mib.OID) ([]Binding, error) {
	return c.GetNextContext(context.Background(), oids...)
}

// SetContext writes the given bindings, honoring ctx across retransmits.
func (c *Client) SetContext(ctx context.Context, bindings ...Binding) error {
	_, err := c.roundTrip(ctx, TagSetRequest, bindings)
	return err
}

// Set writes the given bindings.
func (c *Client) Set(bindings ...Binding) error {
	return c.SetContext(context.Background(), bindings...)
}

// WalkContext performs a GetNext sweep under the prefix, invoking fn per
// variable found, until the sweep leaves the subtree or ctx is done.
func (c *Client) WalkContext(ctx context.Context, prefix mib.OID, fn func(Binding) error) error {
	cur := prefix.Clone()
	for {
		binds, err := c.GetNextContext(ctx, cur)
		if err != nil {
			var re *RequestError
			if asRequestError(err, &re) && re.Status == NoSuchName {
				return nil // end of the database
			}
			return err
		}
		if len(binds) != 1 {
			return fmt.Errorf("snmp: walk got %d bindings", len(binds))
		}
		b := binds[0]
		if !b.OID.HasPrefix(prefix) {
			return nil
		}
		if err := fn(b); err != nil {
			return err
		}
		cur = b.OID
	}
}

// Walk performs a GetNext sweep under the prefix, invoking fn per
// variable found, until the sweep leaves the subtree.
func (c *Client) Walk(prefix mib.OID, fn func(Binding) error) error {
	return c.WalkContext(context.Background(), prefix, fn)
}

// InstallConfigContext ships a configuration to an agent over the wire
// via the admin community's reserved config object — the live transport
// of the paper's prescriptive aspect (section 5).
func (c *Client) InstallConfigContext(ctx context.Context, cfg *Config) error {
	blob, err := MarshalConfig(cfg)
	if err != nil {
		return err
	}
	return c.SetContext(ctx, Binding{OID: ConfigOID, Value: Opaque(blob)})
}

// InstallConfig ships a configuration to an agent over the wire via the
// admin community's reserved config object.
func (c *Client) InstallConfig(cfg *Config) error {
	return c.InstallConfigContext(context.Background(), cfg)
}

// PreparedSet is a SetRequest frozen with a single request ID, so the
// same logical write can be re-sent across attempt boundaries without
// minting a new ID each time. A rollout's retry loop needs this: a fresh
// ID per attempt defeats the agent's retransmit cache, and an attempt
// whose SetRequest was applied but whose ack was lost would be applied a
// second time on retry. Send may be called any number of times; the
// agent treats every send as the same request.
type PreparedSet struct {
	c        *Client
	id       int32
	bindings []Binding
}

// PrepareSet freezes a SetRequest for idempotent resending.
func (c *Client) PrepareSet(bindings ...Binding) *PreparedSet {
	return &PreparedSet{c: c, id: c.reqID.Add(1), bindings: bindings}
}

// PrepareInstall freezes a config install for idempotent resending.
func (c *Client) PrepareInstall(cfg *Config) (*PreparedSet, error) {
	blob, err := MarshalConfig(cfg)
	if err != nil {
		return nil, err
	}
	return c.PrepareSet(Binding{OID: ConfigOID, Value: Opaque(blob)}), nil
}

// Send transmits the prepared request (again), waiting for its response.
func (p *PreparedSet) Send(ctx context.Context) error {
	_, err := p.c.roundTripID(ctx, p.id, TagSetRequest, p.bindings)
	return err
}

// FetchConfigBlobContext retrieves the agent's current configuration
// blob via the admin community's reserved config object, undecoded —
// the read half of the live install path. The drift reconciler digests
// these bytes as fetched (BlobDigest) and decodes them only when the
// digest differs from the model's.
func (c *Client) FetchConfigBlobContext(ctx context.Context) ([]byte, error) {
	binds, err := c.GetContext(ctx, ConfigOID)
	if err != nil {
		return nil, err
	}
	if len(binds) != 1 {
		return nil, fmt.Errorf("snmp: config fetch returned %d bindings, want 1", len(binds))
	}
	v := binds[0].Value
	if v.Tag != TagOpaque && v.Tag != TagOctets {
		return nil, fmt.Errorf("snmp: config fetch returned tag 0x%02x, not an opaque blob", v.Tag)
	}
	return v.Bytes, nil
}

// FetchConfigContext retrieves and decodes the agent's current
// configuration. Transactional rollouts use it to capture a pre-image
// before replacing a configuration.
func (c *Client) FetchConfigContext(ctx context.Context) (*Config, error) {
	blob, err := c.FetchConfigBlobContext(ctx)
	if err != nil {
		return nil, err
	}
	return UnmarshalConfig(blob)
}

// FetchConfig retrieves the agent's current configuration via the admin
// community's reserved config object.
func (c *Client) FetchConfig() (*Config, error) {
	return c.FetchConfigContext(context.Background())
}

// asRequestError unwraps a *RequestError.
func asRequestError(err error, target **RequestError) bool {
	re, ok := err.(*RequestError)
	if ok {
		*target = re
	}
	return ok
}
