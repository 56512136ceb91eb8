// Package configgen implements NMSL Configuration Generators (paper
// section 5, the prescriptive aspect).
//
// "Once a specification is determined to be consistent, the specification
// can be executed to configure the network management processes." The
// compiler emits configuration output; a Configuration Generator
// "interprets the configuration output of the compiler and performs the
// implementation-specific actions necessary to install the configuration
// in a network management process."
//
// Two output formats demonstrate the multiple-output-action machinery of
// section 6.2 (the paper names a hypothetical "Bart's SNMP daemon"):
//
//   - BartsSnmpd: an snmpd.conf-style text format;
//   - nvp: a JSON name/value format that the snmp.Agent loads directly.
//
// Two transports implement section 5's installation paths: writing files
// ("the data might be copied, in the form of a file, to the affected
// network element") and the live path over the management protocol
// itself (snmp.Client.InstallConfig).
package configgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"nmsl/internal/ast"
	"nmsl/internal/consistency"
	"nmsl/internal/mib"
	"nmsl/internal/sema"
	"nmsl/internal/snmp"
)

// Tags for the compiler's output-specific actions.
const (
	// TagBartsSnmpd selects snmpd.conf-style output.
	TagBartsSnmpd = "BartsSnmpd"
	// TagNVP selects JSON name/value output.
	TagNVP = "nvp"
)

// Generate derives per-agent-instance configurations from the model. The
// mapping realizes NMSL exports as agent policy:
//
//   - the community string is the grantee domain's name (the importing
//     domain identifies itself by it);
//   - the view is the exported MIB subtree, clipped to what the instance
//     actually supports;
//   - the minimum interval is the export's frequency bound.
//
// Domain-level exports of domains containing the instance further
// restrict matching communities (larger minimum interval, narrower
// access), mirroring the checker's restriction rule.
func Generate(m *consistency.Model) map[string]*snmp.Config {
	out := make(map[string]*snmp.Config, len(m.Instances))
	for _, in := range m.Instances {
		if cfg := generateInstance(m, in); cfg != nil {
			out[in.ID] = cfg
		}
	}
	return out
}

// GenerateFor derives the configuration of one agent instance: the
// entry Generate(m)[instID] would hold, at the cost of that instance's
// own permissions rather than the fleet's. It returns nil for an unknown
// instance or one that is not an agent.
func GenerateFor(m *consistency.Model, instID string) *snmp.Config {
	in := m.InstanceByID(instID)
	if in == nil {
		return nil
	}
	return generateInstance(m, in)
}

// generateInstance builds one instance's configuration from the
// permissions it grants, read off the checker's per-grantor index in
// ascending permission order — the order a scan of m.Perms visits them.
func generateInstance(m *consistency.Model, in *consistency.Instance) *snmp.Config {
	if !in.Proc.IsAgent() {
		return nil
	}
	cfg := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}}
	for _, pi := range m.PermsGrantedBy(in.ID) {
		p := &m.Perms[pi]
		cc := cfg.Communities[p.Grantee]
		if cc == nil {
			cc = &snmp.CommunityConfig{Access: mib.AccessNone}
			cfg.Communities[p.Grantee] = cc
		}
		// Each permission becomes its own view entry carrying its own
		// mode. Collapsing the modes into one per-community value (as
		// this used to do) either leaks — a grantee holding ReadWrite
		// on one subtree and ReadOnly on another got the write mode on
		// both — or over-restricts, depending on permission order.
		cc.View = append(cc.View, snmp.View{Prefix: p.Var.OID(), Access: exportAccess(p.Access)})
		iv := time.Duration(p.MinPeriod * float64(time.Second))
		if iv > cc.MinInterval {
			cc.MinInterval = iv
		}
	}
	applyDomainRestrictions(m, in, cfg)
	for _, cc := range cfg.Communities {
		sortViews(cc)
		summarizeAccess(cc)
	}
	return cfg
}

// exportAccess normalizes a permission's mode for storage in a view
// grant: an export that never stated a mode grants nothing by itself
// (AccessUnspecified in a view would instead inherit the community
// default, silently widening the grant).
func exportAccess(a mib.Access) mib.Access {
	if a == mib.AccessUnspecified {
		return mib.AccessNone
	}
	return a
}

// applyDomainRestrictions tightens an agent's communities to honor the
// domain-level exports of every restricting domain containing it: a
// community survives only if each such domain exports to a domain
// covering it, and inherits the strictest interval and the intersected
// view — per view, each surviving subtree's mode is the meet of what the
// instance granted and what the domain grants.
func applyDomainRestrictions(m *consistency.Model, in *consistency.Instance, cfg *snmp.Config) {
	for _, dom := range m.PartyDomains(in.ID) {
		if !m.Restricts(dom) {
			continue
		}
		ds := m.Spec.Domains[dom]
		for name, cc := range cfg.Communities {
			if m.DomainContains(dom, name) {
				continue // requests from inside the domain are not restricted
			}
			var granted bool
			for _, ex := range ds.Exports {
				if !m.DomainContains(ex.To, name) {
					continue
				}
				granted = true
				// raise the minimum interval to the stricter bound
				iv := time.Duration(ex.Freq.MinPeriodSeconds() * float64(time.Second))
				if iv > cc.MinInterval {
					cc.MinInterval = iv
				}
				// clip views to the exported subtrees, narrowing each
				// surviving view to the mode both grants allow
				exAcc := exportAccess(ex.Access)
				var clipped []snmp.View
				for _, v := range cc.View {
					for _, ev := range ex.Vars {
						if n := m.Spec.MIB.LookupSuffix(ev); n != nil {
							eo := n.OID()
							narrowed := v.Access.Meet(exAcc)
							switch {
							case v.Prefix.HasPrefix(eo):
								clipped = append(clipped, snmp.View{Prefix: v.Prefix, Access: narrowed})
							case eo.HasPrefix(v.Prefix):
								clipped = append(clipped, snmp.View{Prefix: eo, Access: narrowed})
							}
						}
					}
				}
				cc.View = clipped
			}
			if !granted {
				delete(cfg.Communities, name)
			}
		}
	}
}

// sortViews orders a community's views, joins duplicate prefixes, and
// drops views already covered by an earlier broader grant.
func sortViews(cc *snmp.CommunityConfig) {
	sort.Slice(cc.View, func(i, j int) bool {
		if c := cc.View[i].Prefix.Compare(cc.View[j].Prefix); c != 0 {
			return c < 0
		}
		return cc.View[i].Access < cc.View[j].Access
	})
	var dedup []snmp.View
	for _, v := range cc.View {
		if n := len(dedup); n > 0 && dedup[n-1].Prefix.Compare(v.Prefix) == 0 {
			dedup[n-1].Access = dedup[n-1].Access.Join(v.Access)
			continue
		}
		covered := false
		for _, d := range dedup {
			// only a grant at least as permissive subsumes a nested one
			if v.Prefix.HasPrefix(d.Prefix) && d.Access.Covers(v.Access) {
				covered = true
				break
			}
		}
		if !covered {
			dedup = append(dedup, v)
		}
	}
	cc.View = dedup
}

// summarizeAccess keeps the community-wide Access field at the join of
// the per-view modes: a sound summary for pre-per-view consumers, and the
// inherited mode for any view left AccessUnspecified.
func summarizeAccess(cc *snmp.CommunityConfig) {
	acc := mib.AccessNone
	for _, v := range cc.View {
		acc = acc.Join(v.Access)
	}
	cc.Access = acc
}

// WriteSnmpdConf renders a configuration in the BartsSnmpd text format:
//
//	# comment
//	community <name> <access> <min-interval-seconds> <view-oid>[:<mode>][,<view-oid>[:<mode>]...]
//	admin <community>
//
// A view without an explicit :<mode> suffix inherits the community
// access; the writer always emits the suffix so per-view modes survive a
// round trip.
func WriteSnmpdConf(w io.Writer, cfg *snmp.Config) error {
	// One small buffer and one Write: a typical config is under 100
	// bytes, and a fleet renders tens of thousands of them.
	b := make([]byte, 0, 256)
	b = append(b, "# generated by nmslgen (BartsSnmpd format)\n"...)
	if cfg.AdminCommunity != "" {
		b = append(b, "admin "...)
		b = append(b, cfg.AdminCommunity...)
		b = append(b, '\n')
	}
	names := make([]string, 0, len(cfg.Communities))
	for name := range cfg.Communities {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cc := cfg.Communities[name]
		b = append(b, "community "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, cc.Access.String()...)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, cc.MinInterval.Seconds(), 'g', -1, 64) // as %g
		b = append(b, ' ')
		for i, v := range cc.View {
			if i > 0 {
				b = append(b, ',')
			}
			for j, arc := range v.Prefix {
				if j > 0 {
					b = append(b, '.')
				}
				b = strconv.AppendInt(b, int64(arc), 10)
			}
			if v.Access != mib.AccessUnspecified {
				b = append(b, ':')
				b = append(b, v.Access.String()...)
			}
		}
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// ParseSnmpdConf parses the BartsSnmpd text format back into a Config,
// so agents whose native format it is can load it.
func ParseSnmpdConf(r io.Reader) (*snmp.Config, error) {
	cfg := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "admin":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: admin takes one community", lineNo)
			}
			cfg.AdminCommunity = fields[1]
		case "community":
			if len(fields) != 5 {
				return nil, fmt.Errorf("line %d: community takes name, access, interval and views", lineNo)
			}
			acc, err := mib.ParseAccess(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %s", lineNo, err)
			}
			secs, err := strconv.ParseFloat(fields[3], 64)
			ns := math.Round(secs * float64(time.Second))
			if err != nil || !(math.Abs(ns) < 1<<62) {
				return nil, fmt.Errorf("line %d: bad interval %q", lineNo, fields[3])
			}
			// The writer's %g carries at most 17 digits, too few for the
			// nanoseconds past 2^51 ns (about 26 days); whole seconds
			// there are what it writes back exactly.
			iv := time.Duration(ns)
			if iv.Abs() >= 1<<51 {
				iv = iv.Round(time.Second)
			}
			cc := &snmp.CommunityConfig{Access: acc, MinInterval: iv}
			for _, vs := range strings.Split(fields[4], ",") {
				spec := vs
				mode := mib.AccessUnspecified
				if oidPart, modePart, found := strings.Cut(vs, ":"); found {
					a, err := mib.ParseAccess(modePart)
					if err != nil {
						return nil, fmt.Errorf("line %d: %s", lineNo, err)
					}
					spec, mode = oidPart, a
				}
				oid, err := parseOID(spec)
				if err != nil {
					return nil, fmt.Errorf("line %d: %s", lineNo, err)
				}
				cc.View = append(cc.View, snmp.View{Prefix: oid, Access: mode})
			}
			cfg.Communities[fields[1]] = cc
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func parseOID(s string) (mib.OID, error) {
	parts := strings.Split(s, ".")
	oid := make(mib.OID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad OID %q", s)
		}
		oid = append(oid, n)
	}
	return oid, nil
}

// WriteNVP renders the JSON name/value format (the snmp.Config wire
// form).
func WriteNVP(w io.Writer, cfg *snmp.Config) error {
	blob, err := snmp.MarshalConfig(cfg)
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}

// RegisterOutput registers the compiler-level configuration output
// actions (section 6.2: "an action tagged BartsSnmpd would be executed
// only if configuration output for Bart's SNMP daemon were being
// generated"). The actions attach to the basic "exports" clause of
// process specifications, so an extension that prepends the same clause
// keyword with the same tag overrides exactly this output (section 6.3).
// The compiler-level output lists each process type's exports; the
// Generator expands them per instance via Generate.
func RegisterOutput(t *sema.Tables) {
	emit := func(render func(e *sema.Emitter, proc string, ex ast.Export, v string)) func(*sema.ClauseContext, *sema.Emitter) error {
		return func(ctx *sema.ClauseContext, e *sema.Emitter) error {
			ex, ok := sema.ParseExport(ctx)
			if !ok {
				return nil
			}
			for _, v := range ex.Vars {
				render(e, ctx.Decl.Name, ex, v)
			}
			return nil
		}
	}
	t.AppendClause(&sema.ClauseEntry{
		DeclType:    "process",
		Keyword:     "exports",
		SubKeywords: []string{"to", "access", "frequency"},
		Outputs: map[string]func(*sema.ClauseContext, *sema.Emitter) error{
			TagBartsSnmpd: emit(func(e *sema.Emitter, proc string, ex ast.Export, v string) {
				e.Printf("# process %s\ncommunity %s %s %g %s\n",
					proc, ex.To, ex.Access, ex.Freq.MinPeriodSeconds(), v)
			}),
			TagNVP: emit(func(e *sema.Emitter, proc string, ex ast.Export, v string) {
				e.Printf("{\"process\":%q,\"community\":%q,\"access\":%q,\"min_interval_s\":%g,\"view\":%q}\n",
					proc, ex.To, ex.Access.String(), ex.Freq.MinPeriodSeconds(), v)
			}),
		},
	})
}
