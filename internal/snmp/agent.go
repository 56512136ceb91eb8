package snmp

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nmsl/internal/mib"
	"nmsl/internal/obs"
)

// View is one grant in a community's access policy: the subtree at
// Prefix may be referenced at mode Access. AccessUnspecified inherits the
// community-wide Access (Figure 4.2's inheritance rule, applied to
// grants). Keeping the mode per subtree rather than per community is what
// lets a grantee hold ReadOnly on one export and Any on another without
// either widening the first or narrowing the second.
type View struct {
	Prefix mib.OID    `json:"prefix"`
	Access mib.Access `json:"access,omitempty"`
}

// viewJSON is the object wire form of a View.
type viewJSON struct {
	Prefix mib.OID    `json:"prefix"`
	Access mib.Access `json:"access,omitempty"`
}

// UnmarshalJSON accepts both the object form {"prefix":[...],"access":n}
// and the pre-per-view bare OID form [...] (which inherits the community
// access), so configurations serialized by older generators still load.
func (v *View) UnmarshalJSON(data []byte) error {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var oid mib.OID
		if err := json.Unmarshal(data, &oid); err != nil {
			return err
		}
		*v = View{Prefix: oid, Access: mib.AccessUnspecified}
		return nil
	}
	var vj viewJSON
	if err := json.Unmarshal(data, &vj); err != nil {
		return err
	}
	*v = View(vj)
	return nil
}

// CommunityConfig is the per-principal policy an NMSL configuration
// generator installs: what data the community may see (View), with which
// access mode, no more often than MinInterval. These are exactly NMSL's
// exports: the community plays the role of the importing domain, the view
// the exported MIB subtree, and MinInterval the "frequency >=" clause.
type CommunityConfig struct {
	// Access is the community-wide default access mode: views whose own
	// Access is AccessUnspecified inherit it. Generators keep it at the
	// join of the per-view modes so pre-per-view consumers still see a
	// sound (if coarse) summary.
	Access mib.Access `json:"access"`
	// View lists the granted subtrees. Empty means no access at all.
	View []View `json:"view"`
	// MinInterval is the minimum time between requests from this
	// community; zero disables rate enforcement.
	MinInterval time.Duration `json:"min_interval"`
}

// Clone returns a deep copy sharing no mutable state with cc.
func (cc *CommunityConfig) Clone() *CommunityConfig {
	if cc == nil {
		return nil
	}
	cp := *cc
	cp.View = make([]View, len(cc.View))
	for i, v := range cc.View {
		cp.View[i] = View{Prefix: v.Prefix.Clone(), Access: v.Access}
	}
	return &cp
}

// effectiveAccess resolves a view's inherited mode against the community
// default.
func (cc *CommunityConfig) effectiveAccess(v View) mib.Access {
	if v.Access == mib.AccessUnspecified {
		return cc.Access
	}
	return v.Access
}

// InView reports whether oid falls under any granted subtree, at any mode.
func (cc *CommunityConfig) InView(oid mib.OID) bool {
	for _, v := range cc.View {
		if oid.HasPrefix(v.Prefix) {
			return true
		}
	}
	return false
}

// Allows reports whether the community may reference oid at mode need.
// Grants are a union: any covering view whose mode allows the need
// suffices, matching the checker's exists-a-permission rule.
func (cc *CommunityConfig) Allows(oid mib.OID, need mib.Access) bool {
	for _, v := range cc.View {
		if oid.HasPrefix(v.Prefix) && cc.effectiveAccess(v).Allows(need) {
			return true
		}
	}
	return false
}

// AccessFor returns the total mode granted on oid: the join over every
// covering view, AccessNone if none covers it.
func (cc *CommunityConfig) AccessFor(oid mib.OID) mib.Access {
	out := mib.AccessNone
	for _, v := range cc.View {
		if oid.HasPrefix(v.Prefix) {
			out = out.Join(cc.effectiveAccess(v))
		}
	}
	return out
}

// Config is a full agent configuration.
type Config struct {
	// Communities maps community strings to their policies.
	Communities map[string]*CommunityConfig `json:"communities"`
	// AdminCommunity, when non-empty, names a community that may replace
	// the agent's configuration by writing an Opaque JSON blob to
	// ConfigOID (the live install path of NMSL's prescriptive aspect).
	AdminCommunity string `json:"admin_community,omitempty"`
}

// Clone returns a deep copy sharing no mutable state with c: safe to hand
// to concurrent installers that each mutate their own copy.
func (c *Config) Clone() *Config {
	if c == nil {
		return nil
	}
	cp := &Config{
		Communities:    make(map[string]*CommunityConfig, len(c.Communities)),
		AdminCommunity: c.AdminCommunity,
	}
	for name, cc := range c.Communities {
		cp.Communities[name] = cc.Clone()
	}
	return cp
}

// ConfigOID is the reserved objet where a serialized Config can be
// installed by the admin community (an enterprise arc, RFC 1065
// private.enterprises).
var ConfigOID = mib.OID{1, 3, 6, 1, 4, 1, 42424, 1}

// Store is the agent's management database: OID-ordered variables.
//
// A store may be a copy-on-write overlay over a shared base (Fork): reads
// fall through to the base, writes land in the overlay. That is what lets
// a 100k-agent fleet share one populated MIB database — each agent's
// store holds only the variables that agent has actually written.
type Store struct {
	mu   sync.RWMutex
	vals map[string]Value
	oids []mib.OID // sorted overlay keys
	// base is the shared parent of a forked store (nil for a root store).
	// It is read-only by convention: once forked from, the base must not
	// be mutated, or forks would observe the change. Forks never write to
	// the base, so a fork chain only ever locks child-then-parent and
	// cannot deadlock.
	base *Store
	// fresh counts overlay keys absent from the base, so Len stays O(1).
	fresh int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{vals: map[string]Value{}} }

// Fork returns a copy-on-write overlay of s: reads see s's current
// variables, writes stay private to the fork. The receiver must not be
// mutated after forking (the fleet populates a base store once, freezes
// it, and forks it per agent).
func (s *Store) Fork() *Store {
	return &Store{vals: map[string]Value{}, base: s}
}

// Set inserts or replaces a variable.
func (s *Store) Set(oid mib.OID, v Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := oid.String()
	if _, exists := s.vals[key]; !exists {
		i := sort.Search(len(s.oids), func(i int) bool { return s.oids[i].Compare(oid) >= 0 })
		s.oids = append(s.oids, nil)
		copy(s.oids[i+1:], s.oids[i:])
		s.oids[i] = oid.Clone()
		if s.base == nil {
			s.fresh++
		} else if _, shadowed := s.base.Get(oid); !shadowed {
			s.fresh++
		}
	}
	s.vals[key] = v
}

// Get returns the variable's value.
func (s *Store) Get(oid mib.OID) (Value, bool) {
	s.mu.RLock()
	v, ok := s.vals[oid.String()]
	base := s.base
	s.mu.RUnlock()
	if ok || base == nil {
		return v, ok
	}
	return base.Get(oid)
}

// Next returns the first variable strictly after oid in lexicographic
// order (the GetNext traversal). For a forked store this merges the
// overlay walk with the base walk; an overlay entry shadows a base entry
// at the same OID (stores have no deletes, so shadowing is the only
// conflict).
func (s *Store) Next(oid mib.OID) (mib.OID, Value, bool) {
	s.mu.RLock()
	i := sort.Search(len(s.oids), func(i int) bool { return s.oids[i].Compare(oid) > 0 })
	var ooid mib.OID
	var oval Value
	ook := i < len(s.oids)
	if ook {
		ooid = s.oids[i]
		oval = s.vals[ooid.String()]
	}
	base := s.base
	s.mu.RUnlock()
	if base == nil {
		if !ook {
			return nil, Value{}, false
		}
		return ooid.Clone(), oval, true
	}
	boid, bval, bok := base.Next(oid)
	switch {
	case !ook && !bok:
		return nil, Value{}, false
	case !ook:
		return boid, bval, true
	case !bok:
		return ooid.Clone(), oval, true
	}
	if ooid.Compare(boid) <= 0 { // ties: the overlay shadows the base
		return ooid.Clone(), oval, true
	}
	return boid, bval, true
}

// Len returns the number of variables.
func (s *Store) Len() int {
	s.mu.RLock()
	fresh, base := s.fresh, s.base
	s.mu.RUnlock()
	if base == nil {
		return fresh
	}
	return base.Len() + fresh
}

// Agent is a UDP management agent.
type Agent struct {
	store *Store

	mu       sync.Mutex
	cfg      *Config
	lastSeen map[string]time.Time // community -> last accepted request
	lastReq  map[string]*Message  // community -> last answered request
	lastResp map[string]*Message  // community -> response to lastReq
	stats    Stats
	// panics counts contained panics outside mu: a panic may leave mu
	// held, and counting it must not wait on that.
	panics atomic.Int64

	conn   *net.UDPConn
	faults *FaultInjector
	done   chan struct{}
	wg     sync.WaitGroup
	// now is replaceable for tests.
	now func() time.Time
	om  agentMetrics
}

// Stats counts agent activity.
type Stats struct {
	Requests     int64
	Denied       int64
	RateLimited  int64
	Retransmits  int64
	ConfigLoads  int64
	NoSuchName   int64
	SetsAccepted int64
	// Panics counts datagrams dropped because handling them panicked.
	Panics int64
}

// Metric names recorded by the agent, the client and the fault
// injector. The agent counters mirror Stats one for one, so a metrics
// scrape and Stats() never disagree; MetricAgentHandle prices request
// handling in nanoseconds.
const (
	MetricAgentRequests     = "nmsl_snmp_agent_requests_total"
	MetricAgentDenied       = "nmsl_snmp_agent_denied_total"
	MetricAgentRateLimited  = "nmsl_snmp_agent_rate_limited_total"
	MetricAgentRetransmits  = "nmsl_snmp_agent_retransmits_total"
	MetricAgentConfigLoads  = "nmsl_snmp_agent_config_loads_total"
	MetricAgentNoSuchName   = "nmsl_snmp_agent_no_such_name_total"
	MetricAgentSetsAccepted = "nmsl_snmp_agent_sets_accepted_total"
	MetricAgentHandle       = "nmsl_snmp_agent_handle_ns"

	MetricClientRequests    = "nmsl_snmp_client_requests_total"
	MetricClientRetransmits = "nmsl_snmp_client_retransmits_total"
	MetricClientTimeouts    = "nmsl_snmp_client_timeouts_total"

	// MetricFaults carries a kind label: drop, dup, truncate, delay.
	MetricFaults = "nmsl_snmp_faults_total"
)

// agentMetrics holds the agent's pre-resolved instruments so the serve
// loop never takes the registry lock.
type agentMetrics struct {
	on           bool
	requests     *obs.Counter
	denied       *obs.Counter
	rateLimited  *obs.Counter
	retransmits  *obs.Counter
	configLoads  *obs.Counter
	noSuchName   *obs.Counter
	setsAccepted *obs.Counter
	panics       *obs.Counter
	handle       *obs.Histogram
}

func newAgentMetrics(reg *obs.Registry) agentMetrics {
	return agentMetrics{
		on:           reg.Enabled(),
		requests:     reg.Counter(MetricAgentRequests),
		denied:       reg.Counter(MetricAgentDenied),
		rateLimited:  reg.Counter(MetricAgentRateLimited),
		retransmits:  reg.Counter(MetricAgentRetransmits),
		configLoads:  reg.Counter(MetricAgentConfigLoads),
		noSuchName:   reg.Counter(MetricAgentNoSuchName),
		setsAccepted: reg.Counter(MetricAgentSetsAccepted),
		panics:       reg.Counter(obs.L(obs.MetricPanics, "site", "agent")),
		handle:       reg.Histogram(MetricAgentHandle),
	}
}

// NewAgent returns an agent serving the store with the given initial
// configuration.
func NewAgent(store *Store, cfg *Config) *Agent {
	if cfg == nil {
		cfg = &Config{Communities: map[string]*CommunityConfig{}}
	}
	return &Agent{
		store:    store,
		cfg:      cfg,
		lastSeen: map[string]time.Time{},
		lastReq:  map[string]*Message{},
		lastResp: map[string]*Message{},
		done:     make(chan struct{}),
		now:      time.Now,
		om:       newAgentMetrics(obs.Default),
	}
}

// SetMetrics redirects the agent's counters to reg (obs.Default is the
// initial destination; obs.Disabled turns them off). Call before
// serving traffic. Tests that assert on counts give each agent its own
// registry.
func (a *Agent) SetMetrics(reg *obs.Registry) { a.om = newAgentMetrics(reg) }

// SetFaultInjector makes the agent's UDP loop pass traffic through inj
// (inbound faults on received datagrams, outbound faults on responses).
// Call before ListenAndServe; nil disables injection.
func (a *Agent) SetFaultInjector(inj *FaultInjector) { a.faults = inj }

// Store returns the agent's management database.
func (a *Agent) Store() *Store { return a.store }

// SetTimeSource replaces the agent's clock. Rate enforcement reads the
// time through it, which lets simulations (internal/simrun) and tests
// drive the agent on a virtual clock — and the chaos matrix skew an
// agent's clock mid-run, so the replacement is serialized against
// request handling.
func (a *Agent) SetTimeSource(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
}

// Reset models an agent process restart that kept its installed
// configuration (agents persist their config) but lost all volatile
// state: the retransmit cache and the rate-limit bookkeeping. A client
// whose acknowledgment was lost across the restart is no longer
// answered from cache, so its retry re-applies — exactly the window the
// rollout's digest pre-compare has to close.
func (a *Agent) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.lastSeen = map[string]time.Time{}
	a.lastReq = map[string]*Message{}
	a.lastResp = map[string]*Message{}
}

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	s := a.stats
	a.mu.Unlock()
	s.Panics = a.panics.Load()
	return s
}

// ApplyConfig atomically replaces the agent's configuration (the file
// transport of section 5, or the live path via the admin community).
func (a *Agent) ApplyConfig(cfg *Config) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg = cfg
	a.stats.ConfigLoads++
	a.om.configLoads.Inc()
	// Cached responses were computed under the old policy; drop them so a
	// retransmit cannot be answered with pre-reconfiguration data.
	a.lastReq = map[string]*Message{}
	a.lastResp = map[string]*Message{}
}

// ConfigSnapshot returns the current configuration.
func (a *Agent) ConfigSnapshot() *Config {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg
}

// ListenAndServe binds a UDP socket on addr (e.g. "127.0.0.1:0") and
// serves until Close. It returns the bound address.
func (a *Agent) ListenAndServe(addr string) (*net.UDPAddr, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	a.conn = conn
	a.wg.Add(1)
	go a.serve()
	return conn.LocalAddr().(*net.UDPAddr), nil
}

// Close stops the agent.
func (a *Agent) Close() error {
	select {
	case <-a.done:
		return nil
	default:
	}
	close(a.done)
	var err error
	if a.conn != nil {
		err = a.conn.Close()
	}
	a.wg.Wait()
	return err
}

func (a *Agent) serve() {
	defer a.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := a.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-a.done:
				return
			default:
				continue
			}
		}
		if a.faults != nil {
			fx := a.faults.decide(&a.faults.In)
			if fx.drop {
				continue
			}
			if fx.truncate {
				n = truncateLen(n)
			}
			a.faults.sleep(fx.delay)
		}
		if out := a.respond(buf[:n]); out != nil {
			a.send(out, raddr)
		}
	}
}

// respond is one datagram's trip through the agent — decode, Handle,
// encode — and returns the response, or nil when the agent stays
// silent. Both serve loops, UDP and MemNet's, go through it, and it is
// where a panic in handling is contained: the datagram is dropped and
// counted, and the serve loop (or the rollout worker that wrote the
// datagram) carries on. No agent lock is held at this frame.
func (a *Agent) respond(req []byte) (out []byte) {
	defer func() {
		if r := recover(); r != nil {
			a.panics.Add(1)
			a.om.panics.Inc()
			out = nil
		}
	}()
	msg, err := Unmarshal(req)
	if err != nil {
		return nil // silently drop malformed datagrams, as agents do
	}
	resp := a.Handle(msg)
	if resp == nil {
		return nil
	}
	if out, err = resp.Marshal(); err != nil {
		return nil
	}
	return out
}

// send writes a response datagram, applying outbound faults when an
// injector is installed.
func (a *Agent) send(out []byte, raddr *net.UDPAddr) {
	if a.faults == nil {
		_, _ = a.conn.WriteToUDP(out, raddr)
		return
	}
	fx := a.faults.decide(&a.faults.Out)
	if fx.drop {
		return
	}
	if fx.truncate {
		out = out[:truncateLen(len(out))]
	}
	writes := 1
	if fx.dup {
		writes = 2
	}
	if fx.delay > 0 {
		// Deliver late without stalling the serve loop.
		cp := append([]byte(nil), out...)
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.faults.sleep(fx.delay)
			for i := 0; i < writes; i++ {
				_, _ = a.conn.WriteToUDP(cp, raddr)
			}
		}()
		return
	}
	for i := 0; i < writes; i++ {
		_, _ = a.conn.WriteToUDP(out, raddr)
	}
}

// Handle processes one request message and returns the response (nil to
// drop). Exposed for in-process tests and simulations.
func (a *Agent) Handle(req *Message) *Message {
	if req.Version != Version0 {
		return nil
	}
	switch req.PDU.Type {
	case TagGetRequest, TagGetNextRequest, TagSetRequest:
	default:
		return nil
	}
	if a.om.on {
		t0 := time.Now()
		defer func() { a.om.handle.Observe(int64(time.Since(t0))) }()
	}
	// Tracing off (the default) must cost nothing on the datagram path:
	// the Sprintf and the label slice only exist when a sink is installed.
	var sp obs.Span
	if obs.TracingEnabled() {
		sp = obs.StartSpan("snmp.handle", obs.Label{Key: "type", Value: fmt.Sprintf("0x%02x", req.PDU.Type)})
	}
	defer sp.End()
	cc, isAdmin, resp, outcome := a.admit(req)
	if outcome != admitServe {
		if outcome != admitDrop {
			sp.Label("outcome", string(outcome))
		}
		return resp
	}

	switch req.PDU.Type {
	case TagGetRequest:
		resp = a.handleGet(req, cc, isAdmin)
	case TagGetNextRequest:
		resp = a.handleGetNext(req, cc)
	case TagSetRequest:
		resp = a.handleSet(req, cc, isAdmin)
	}
	if resp != nil {
		// Cache only served requests; rate-limit rejections above are not
		// cached, so a client retrying a rejected poll is re-metered.
		a.mu.Lock()
		a.lastReq[req.Community] = req
		a.lastResp[req.Community] = resp
		a.mu.Unlock()
	}
	return resp
}

// admission is what Handle's locked section decided about a request.
type admission string

const (
	admitServe       admission = ""
	admitDrop        admission = "dropped" // unknown community
	admitRetransmit  admission = "retransmit-cache"
	admitRateLimited admission = "rate-limited"
)

// admit is Handle's locked section: it counts the request, looks up its
// community, answers a retransmission from the cache and enforces the
// community's rate. It returns the community and, unless the request is
// admitted, the response to send in place of serving it (nil to drop).
// The lock is released by defer, so a panicking time source or
// comparison cannot leave it held and deadlock every later datagram.
func (a *Agent) admit(req *Message) (cc *CommunityConfig, isAdmin bool, resp *Message, outcome admission) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Requests++
	a.om.requests.Inc()
	cfg := a.cfg
	cc = cfg.Communities[req.Community]
	isAdmin = cfg.AdminCommunity != "" && req.Community == cfg.AdminCommunity
	if cc == nil && !isAdmin {
		a.stats.Denied++
		a.om.denied.Inc()
		return nil, false, nil, admitDrop // unknown community: drop, per SNMPv1 practice
	}
	// Retransmit detection: a client whose response was lost resends the
	// identical request. Answering from the cache keeps the retry from
	// being charged against the community's rate budget (and keeps Sets
	// idempotent), which is what prevents the starvation spiral where
	// MinInterval ~ client timeout turns every recovery attempt into a
	// fresh rate-limit rejection.
	if cached := a.lastReq[req.Community]; cached != nil && messagesEqual(cached, req) {
		a.stats.Retransmits++
		a.om.retransmits.Inc()
		return cc, isAdmin, a.lastResp[req.Community], admitRetransmit
	}
	// Rate enforcement: NMSL's frequency clause. Admin traffic is not
	// rate limited. Rejected requests deliberately do NOT advance
	// lastSeen: the budget meters requests the agent serves, so a too-
	// eager client is delayed, not starved — advancing it on rejects
	// would let a client that always polls early lock itself out forever.
	if cc != nil && cc.MinInterval > 0 && !isAdmin {
		now := a.now()
		if last, ok := a.lastSeen[req.Community]; ok && now.Sub(last) < cc.MinInterval {
			a.stats.RateLimited++
			a.om.rateLimited.Inc()
			return cc, isAdmin, errorResponse(req, GenErr, 0), admitRateLimited
		}
		a.lastSeen[req.Community] = now
	}
	return cc, isAdmin, nil, admitServe
}

// messagesEqual reports whether two messages are byte-for-byte the same
// request: same version, community, PDU type, request ID and bindings.
// Request IDs repeat across client restarts, so the full comparison is
// what keeps the retransmit cache from answering a new request with a
// stale response.
func messagesEqual(a, b *Message) bool {
	if a.Version != b.Version || a.Community != b.Community {
		return false
	}
	if a.PDU.Type != b.PDU.Type || a.PDU.RequestID != b.PDU.RequestID {
		return false
	}
	if len(a.PDU.Bindings) != len(b.PDU.Bindings) {
		return false
	}
	for i := range a.PDU.Bindings {
		ab, bb := a.PDU.Bindings[i], b.PDU.Bindings[i]
		if ab.OID.Compare(bb.OID) != 0 || !ab.Value.Equal(bb.Value) {
			return false
		}
	}
	return true
}

func errorResponse(req *Message, status ErrorStatus, index int) *Message {
	return &Message{
		Version:   req.Version,
		Community: req.Community,
		PDU: PDU{
			Type:        TagGetResponse,
			RequestID:   req.PDU.RequestID,
			ErrorStatus: status,
			ErrorIndex:  index,
			Bindings:    req.PDU.Bindings,
		},
	}
}

func (a *Agent) handleGet(req *Message, cc *CommunityConfig, isAdmin bool) *Message {
	out := errorResponse(req, NoError, 0)
	out.PDU.Bindings = nil
	for i, b := range req.PDU.Bindings {
		// The admin community may read the reserved config object back:
		// the inverse of the live install path, used by transactional
		// rollouts to capture a pre-image before replacing a
		// configuration (and by the drift reconciler to compare digests).
		if isAdmin && b.OID.Compare(ConfigOID) == 0 {
			blob, err := MarshalConfig(a.ConfigSnapshot())
			if err != nil {
				return errorResponse(req, GenErr, i+1)
			}
			out.PDU.Bindings = append(out.PDU.Bindings, Binding{OID: b.OID, Value: Opaque(blob)})
			continue
		}
		if cc == nil {
			a.bumpDenied()
			return errorResponse(req, NoSuchName, i+1)
		}
		if !cc.Allows(b.OID, mib.AccessReadOnly) {
			a.bumpDenied()
			return errorResponse(req, NoSuchName, i+1)
		}
		v, ok := a.store.Get(b.OID)
		if !ok {
			a.bumpNoSuch()
			return errorResponse(req, NoSuchName, i+1)
		}
		out.PDU.Bindings = append(out.PDU.Bindings, Binding{OID: b.OID, Value: v})
	}
	return out
}

func (a *Agent) handleGetNext(req *Message, cc *CommunityConfig) *Message {
	if cc == nil {
		a.bumpDenied()
		return errorResponse(req, NoSuchName, 1)
	}
	out := errorResponse(req, NoError, 0)
	out.PDU.Bindings = nil
	for i, b := range req.PDU.Bindings {
		oid := b.OID
		for {
			next, v, ok := a.store.Next(oid)
			if !ok {
				a.bumpNoSuch()
				return errorResponse(req, NoSuchName, i+1)
			}
			oid = next
			if cc.Allows(next, mib.AccessReadOnly) {
				out.PDU.Bindings = append(out.PDU.Bindings, Binding{OID: next, Value: v})
				break
			}
			// skip variables outside the view, continuing the sweep
		}
	}
	return out
}

func (a *Agent) handleSet(req *Message, cc *CommunityConfig, isAdmin bool) *Message {
	for i, b := range req.PDU.Bindings {
		if isAdmin && b.OID.Compare(ConfigOID) == 0 {
			if b.Value.Tag != TagOpaque && b.Value.Tag != TagOctets {
				return errorResponse(req, BadValue, i+1)
			}
			cfg, err := UnmarshalConfig(b.Value.Bytes)
			if err != nil {
				return errorResponse(req, BadValue, i+1)
			}
			a.ApplyConfig(cfg)
			continue
		}
		if cc == nil {
			a.bumpDenied()
			return errorResponse(req, ReadOnly, i+1)
		}
		if !cc.InView(b.OID) {
			a.bumpDenied()
			return errorResponse(req, NoSuchName, i+1)
		}
		// In view but no covering grant allows writes: the variable is
		// visible yet read-only to this community.
		if !cc.Allows(b.OID, mib.AccessWriteOnly) {
			a.bumpDenied()
			return errorResponse(req, ReadOnly, i+1)
		}
	}
	// first pass validated; second pass commits (RFC 1067 "as if
	// simultaneous" semantics)
	for _, b := range req.PDU.Bindings {
		if isAdmin && b.OID.Compare(ConfigOID) == 0 {
			continue // applied above
		}
		a.store.Set(b.OID, b.Value)
		a.mu.Lock()
		a.stats.SetsAccepted++
		a.om.setsAccepted.Inc()
		a.mu.Unlock()
	}
	return errorResponse(req, NoError, 0)
}

func (a *Agent) bumpDenied() {
	a.mu.Lock()
	a.stats.Denied++
	a.om.denied.Inc()
	a.mu.Unlock()
}

func (a *Agent) bumpNoSuch() {
	a.mu.Lock()
	a.stats.NoSuchName++
	a.om.noSuchName.Inc()
	a.mu.Unlock()
}

// PopulateFromMIB seeds the store with one variable per leaf of the MIB
// subtree at path, using deterministic placeholder values. Simulations
// and examples use it to give agents plausible databases.
func PopulateFromMIB(store *Store, tree *mib.Tree, path string) int {
	n := 0
	tree.Walk(path, func(node *mib.Node) {
		if len(node.Children()) > 0 {
			return
		}
		oid := node.OID()
		var v Value
		switch {
		case strings.Contains(node.Name, "Addr") || strings.Contains(node.Name, "Address"):
			v = Value{Tag: TagIPAddress, Bytes: []byte{10, 0, byte(n >> 8), byte(n)}}
		case strings.HasPrefix(node.Name, "sys"):
			v = Str(fmt.Sprintf("%s-value", node.Name))
		default:
			v = Int64(int64(len(oid) * 7))
		}
		store.Set(oid, v)
		n++
	})
	return n
}
