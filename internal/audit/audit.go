// Package audit verifies that running network managers actually adhere
// to their NMSL specification.
//
// The paper promises two verification methods (abstract, section 1):
// consistency verification of the specifications against each other —
// internal/consistency — and "a method for verifying that these
// specifications are actually being adhered to in the network". This
// package implements the second: it derives the behaviour a consistent
// specification prescribes for an agent instance (its expected
// communities, views, access modes and rate limits) and probes the live
// agent over the management protocol, reporting every observable
// divergence.
//
// Divergences are asymmetric by nature: a remote agent that refuses more
// than the specification requires is over-restrictive (availability
// findings), one that answers what the specification forbids leaks
// (policy findings). Both directions are reported.
package audit

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/mib"
	"nmsl/internal/snmp"
)

// Kind classifies an adherence finding.
type Kind string

// Finding kinds.
const (
	// KindUnreachable: the agent did not answer a query the
	// specification permits.
	KindUnreachable Kind = "unreachable"
	// KindUnserved: an in-view variable the instance is specified to
	// support is not served.
	KindUnserved Kind = "unserved"
	// KindViewLeak: data outside every exported view was readable.
	KindViewLeak Kind = "view-leak"
	// KindWriteLeak: a write succeeded although the specification grants
	// no write access.
	KindWriteLeak Kind = "write-leak"
	// KindRateLeak: queries faster than the specified minimum interval
	// were accepted.
	KindRateLeak Kind = "rate-leak"
	// KindOverRestrictive: an in-spec query was refused for access
	// reasons.
	KindOverRestrictive Kind = "over-restrictive"
	// KindUnknownCommunityLeak: a community the specification never
	// grants got an answer.
	KindUnknownCommunityLeak Kind = "unknown-community-leak"
)

// Finding is one observed divergence between specification and agent.
type Finding struct {
	Kind      Kind
	Community string
	OID       mib.OID
	Message   string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] community %q: %s", f.Kind, f.Community, f.Message)
}

// Report is the result of auditing one agent instance.
type Report struct {
	Instance string
	Addr     string
	Findings []Finding
	// Probes counts the protocol operations performed.
	Probes int
}

// Adheres reports whether no divergence was observed.
func (r *Report) Adheres() bool { return len(r.Findings) == 0 }

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	if r.Adheres() {
		fmt.Fprintf(&b, "agent %s at %s adheres to its specification (%d probes)\n", r.Instance, r.Addr, r.Probes)
		return b.String()
	}
	fmt.Fprintf(&b, "agent %s at %s DIVERGES from its specification (%d findings, %d probes):\n",
		r.Instance, r.Addr, len(r.Findings), r.Probes)
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Options tune the audit.
type Options struct {
	// Timeout is the per-probe response timeout. Zero selects 300ms.
	Timeout time.Duration
	// Retries is how many times an unanswered probe is retransmitted
	// (the rollout layer's retry policy applied to audit traffic). Zero
	// selects the client default (2); negative disables retransmits.
	Retries int
	// Backoff is the base delay between retransmits, growing
	// exponentially with jitter; zero keeps the client default.
	Backoff time.Duration
	// ProbeWrites enables write-leak probing. The probe writes back the
	// value it just read, so a leaking agent's database is left
	// unchanged; set false for strictly passive audits.
	ProbeWrites bool
	// OutsideOID is a variable assumed to exist on the agent but outside
	// every exported view, used to detect view leaks. Leave nil to probe
	// with an experimental-arc OID (leaks are then only detected if the
	// agent serves it).
	OutsideOID mib.OID
}

func (o *Options) fill() {
	if o.Timeout == 0 {
		o.Timeout = 300 * time.Millisecond
	}
}

// configure applies the probe policy to a client.
func (o *Options) configure(client *snmp.Client) {
	client.SetTimeout(o.Timeout)
	switch {
	case o.Retries < 0:
		client.SetRetries(0)
	case o.Retries > 0:
		client.SetRetries(o.Retries)
	}
	if o.Backoff > 0 {
		client.SetBackoff(o.Backoff, 0)
	}
}

// Agent audits the running agent at addr against what the specification
// prescribes for instance instID.
func Agent(m *consistency.Model, instID, addr string, opts Options) (*Report, error) {
	return AgentContext(context.Background(), m, instID, addr, opts)
}

// AgentContext is Agent under a context: probes stop (and the partial
// report is returned along with the context's error) as soon as ctx is
// done.
func AgentContext(ctx context.Context, m *consistency.Model, instID, addr string, opts Options) (*Report, error) {
	opts.fill()
	inst := m.InstanceByID(instID)
	if inst == nil {
		return nil, fmt.Errorf("audit: instance %q: %w", instID, consistency.ErrUnknownInstance)
	}
	expected := configgen.GenerateFor(m, instID)
	if expected == nil {
		return nil, fmt.Errorf("audit: instance %q: %w", instID, consistency.ErrNotAgent)
	}
	rep := &Report{Instance: instID, Addr: addr}

	communities := make([]string, 0, len(expected.Communities))
	for name := range expected.Communities {
		communities = append(communities, name)
	}
	sort.Strings(communities)
	for _, name := range communities {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if err := auditCommunity(ctx, m, rep, addr, name, expected.Communities[name], opts); err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if err := auditUnknownCommunity(ctx, rep, addr, expected, opts); err != nil {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		return nil, err
	}
	return rep, nil
}

// inViewOID picks a leaf variable inside the community's view that the
// instance supports, preferring the system group (always present).
func inViewOID(m *consistency.Model, cc *snmp.CommunityConfig) mib.OID {
	for _, v := range cc.View {
		node := m.Spec.MIB.LookupOID(v.Prefix)
		if node == nil {
			continue
		}
		var leaf mib.OID
		m.Spec.MIB.Walk(node.Path(), func(n *mib.Node) {
			if leaf == nil && len(n.Children()) == 0 {
				leaf = n.OID()
			}
		})
		if leaf != nil {
			return leaf
		}
	}
	return nil
}

func auditCommunity(ctx context.Context, m *consistency.Model, rep *Report, addr, name string, cc *snmp.CommunityConfig, opts Options) error {
	client, err := snmp.Dial(addr, name)
	if err != nil {
		return err
	}
	defer client.Close()
	opts.configure(client)

	oid := inViewOID(m, cc)
	if oid == nil {
		return nil // nothing observable for this community
	}

	// Probe 1: an in-spec read must succeed (when some grant covering the
	// variable allows reads — access is per view subtree, not per
	// community).
	canRead := cc.Allows(oid, mib.AccessReadOnly)
	rep.Probes++
	binds, err := client.GetContext(ctx, oid)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	switch {
	case err == nil && !canRead:
		rep.Findings = append(rep.Findings, Finding{
			Kind: KindViewLeak, Community: name, OID: oid,
			Message: fmt.Sprintf("read of %s succeeded but the specification grants %s", oid, cc.AccessFor(oid)),
		})
	case err != nil && canRead:
		if re, ok := err.(*snmp.RequestError); ok {
			rep.Findings = append(rep.Findings, Finding{
				Kind: KindOverRestrictive, Community: name, OID: oid,
				Message: fmt.Sprintf("in-spec read of %s refused with %s", oid, re.Status),
			})
		} else {
			rep.Findings = append(rep.Findings, Finding{
				Kind: KindUnreachable, Community: name, OID: oid,
				Message: fmt.Sprintf("in-spec read of %s got no answer: %v", oid, err),
			})
		}
	}

	// Probe 2: an immediate second query must be refused when the
	// specification bounds the frequency.
	if canRead && err == nil {
		rep.Probes++
		_, err2 := client.GetContext(ctx, oid)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if cc.MinInterval > 0 && err2 == nil {
			rep.Findings = append(rep.Findings, Finding{
				Kind: KindRateLeak, Community: name, OID: oid,
				Message: fmt.Sprintf("two immediate queries accepted; specification requires >= %s between queries", cc.MinInterval),
			})
		}
		if cc.MinInterval == 0 && err2 != nil {
			if re, ok := err2.(*snmp.RequestError); ok && re.Status == snmp.GenErr {
				rep.Findings = append(rep.Findings, Finding{
					Kind: KindOverRestrictive, Community: name, OID: oid,
					Message: "agent rate-limits although the specification sets no frequency bound",
				})
			}
		}
	}

	// Probe 3: data outside every exported view must not be readable.
	// Rate-limited refusals mask the probe (and also prove nothing
	// leaks), so only definite answers count.
	outside := opts.OutsideOID
	if outside == nil {
		outside = mib.OID{1, 3, 6, 1, 3, 9, 9} // experimental arc
	}
	if !cc.InView(outside) {
		rep.Probes++
		_, err := client.GetContext(ctx, outside)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			rep.Findings = append(rep.Findings, Finding{
				Kind: KindViewLeak, Community: name, OID: outside,
				Message: fmt.Sprintf("read of %s succeeded outside the exported view", outside),
			})
		}
	}

	// Probe 4: writes must be refused unless the specification grants
	// write access. The probe writes back the value read in probe 1.
	if opts.ProbeWrites && len(binds) == 1 && !cc.Allows(oid, mib.AccessWriteOnly) {
		rep.Probes++
		err := client.SetContext(ctx, snmp.Binding{OID: oid, Value: binds[0].Value})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			rep.Findings = append(rep.Findings, Finding{
				Kind: KindWriteLeak, Community: name, OID: oid,
				Message: fmt.Sprintf("write to %s accepted but the specification grants %s", oid, cc.AccessFor(oid)),
			})
		}
	}

	// Probe 5: in-view variables of supported data should be served
	// (availability side). Detected through probe 1's NoSuchName.
	if canRead && err != nil {
		if re, ok := err.(*snmp.RequestError); ok && re.Status == snmp.NoSuchName {
			rep.Findings = append(rep.Findings, Finding{
				Kind: KindUnserved, Community: name, OID: oid,
				Message: fmt.Sprintf("%s is inside the exported view but not served", oid),
			})
		}
	}
	return nil
}

func auditUnknownCommunity(ctx context.Context, rep *Report, addr string, expected *snmp.Config, opts Options) error {
	name := "nmsl-audit-unknown"
	for expected.Communities[name] != nil || expected.AdminCommunity == name {
		name += "-x"
	}
	client, err := snmp.Dial(addr, name)
	if err != nil {
		return err
	}
	defer client.Close()
	opts.configure(client)
	rep.Probes++
	// Unknown communities must be silently dropped (SNMPv1 practice and
	// the only behaviour consistent with "no permission"): any response,
	// even an error status, reveals the agent processed the request.
	_, err = client.GetContext(ctx, mib.OID{1, 3, 6, 1, 2, 1, 1, 1})
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if _, answered := err.(*snmp.RequestError); err == nil || answered {
		rep.Findings = append(rep.Findings, Finding{
			Kind: KindUnknownCommunityLeak, Community: name,
			Message: "a community the specification never grants received an answer",
		})
	}
	return nil
}
