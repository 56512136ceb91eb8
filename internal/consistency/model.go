// Package consistency implements the NMSL Consistency Checker (paper
// section 4.2).
//
// The checker decides whether a specification is consistent: "for every
// data reference in the specification, there is a corresponding
// permission. Resource and timing requirements are included in the
// specification of references and permissions." It works over the six
// relationships of Figure 4.9 — containment, instantiation, two reference
// relations and two permission relations — reduced by transitivity,
// distribution and reduction rules.
//
// Two equivalent evaluators are provided:
//
//   - EngineLogic proves each reference through the CLP(R)-style engine
//     (internal/logic) against a fact/rule base compiled from the
//     specification, exactly as the paper's front-end-to-CLP(R) design
//     describes;
//   - EngineIndexed (Check) evaluates the same relations with Go-side
//     indexes (permissions indexed by grantor), which is what lets the
//     checker scale to the paper's 10,000-domain goal.
//
// Both run through one check loop (shard.go); tests cross-validate them.
//
// Consistency semantics (documented in DESIGN.md):
//
//  1. Permission: a reference is permitted iff some permission's grantee
//     contains (or is) the referencing party, its grantor contains (or
//     is) the target, its data subtree contains the referenced data, its
//     access mode allows the reference's mode, and the reference's
//     guaranteed period implies the permission's required period.
//  2. Restriction: the paper notes domain exports "can also further
//     restrict how other domains may access the members" — every domain
//     that contains the target but not the source and declares exports
//     must itself grant a covering permission.
//  3. Support: the target instance must actually support the referenced
//     data (the intersection of its process view and, when instantiated
//     on a network element, that element's view).
package consistency

import (
	"fmt"
	"strconv"
	"sync"

	"nmsl/internal/ast"
	"nmsl/internal/mib"
)

// Instance is one instantiation of a process type on a network element or
// in a domain (the paper's instan relation, Figure 4.9: "X instantiates Y
// with unique ID Z").
type Instance struct {
	// ID is the unique instance identifier, e.g.
	// "snmpdReadOnly@romano.cs.wisc.edu#0".
	ID string
	// Proc is the instantiated process type.
	Proc *ast.ProcessSpec
	// System is the hosting network element, or "" when the instance is
	// declared directly in a domain.
	System string
	// Domain is the hosting domain for domain-declared instances.
	Domain string
	// Args are the instantiation arguments ("*" entries are late-bound).
	Args []ast.Arg

	// idx is the instance's dense index into Model.Instances, assigned
	// by addInstance; the columnar tables (columns.go) are keyed by it.
	idx int32
}

// Hosted returns where the instance runs, for diagnostics.
func (in *Instance) Hosted() string {
	if in.System != "" {
		return "system " + in.System
	}
	return "domain " + in.Domain
}

// Perm is one permission (perm_eq/perm_gt of Figure 4.9): the grantee
// party may reference the grantor's data.
type Perm struct {
	// Grantee is the domain the permission is granted to.
	Grantee string
	// GrantorInst is the granting instance's ID (process-level exports),
	// or "".
	GrantorInst string
	// GrantorDomain is the granting domain (domain-level exports), or "".
	GrantorDomain string
	// DeclaredBy describes the declaration for diagnostics.
	DeclaredBy string
	// Var is the exported MIB subtree.
	Var *mib.Node
	// Access is the granted access mode.
	Access mib.Access
	// MinPeriod is the required minimum seconds between queries; Strict
	// marks a ">" (rather than ">=") bound. Zero means unconstrained.
	MinPeriod float64
	Strict    bool
}

// String renders the permission for diagnostics.
func (p Perm) String() string {
	grantor := p.GrantorDomain
	if grantor == "" {
		grantor = p.GrantorInst
	}
	op := ">="
	if p.Strict {
		op = ">"
	}
	return fmt.Sprintf("perm(%s -> %s, %s, %s, period %s %gs)",
		p.Grantee, grantor, p.Var.Path(), p.Access, op, p.MinPeriod)
}

// TargetResolution records how a reference's target was found.
type TargetResolution string

// Target resolution modes.
const (
	// TargetNamed means the query names a process type directly.
	TargetNamed TargetResolution = "named"
	// TargetArg means a Process parameter was bound at instantiation.
	TargetArg TargetResolution = "argument"
	// TargetStar means the parameter is late-bound ("*"): the reference
	// is possible against any capable agent, so every candidate is
	// checked (the paper's ref_eq: "it is possible that X references Y").
	TargetStar TargetResolution = "late-bound"
)

// Ref is one reference (ref_eq/ref_gt of Figure 4.9): a possible
// interaction from a source instance to data on a target instance.
type Ref struct {
	Source *Instance
	Target *Instance
	// Var is the referenced MIB node.
	Var *mib.Node
	// Access is the access mode the reference needs.
	Access mib.Access
	// Freq is the reference's declared frequency: the query's own
	// clause, shared read-only with the specification (the AST is
	// immutable once analysed).
	Freq *ast.Freq
	// Resolution records how Target was chosen.
	Resolution TargetResolution
}

// String renders the reference for diagnostics.
func (r Ref) String() string { return string(r.appendText(nil)) }

// appendText appends the String form to b and returns the extended
// slice; violation messages start with it.
func (r *Ref) appendText(b []byte) []byte {
	b = append(b, "ref("...)
	b = append(b, r.Source.ID...)
	b = append(b, " -> "...)
	b = append(b, r.Target.ID...)
	b = append(b, ", "...)
	b = append(b, r.Var.Path()...)
	b = append(b, ", "...)
	b = append(b, r.Access.String()...)
	b = append(b, ", frequency "...)
	b = r.Freq.AppendTo(b)
	return append(b, ')')
}

// guarantee returns the reference's guaranteed minimum period and
// strictness; infrequent references guarantee "rare" and satisfy any
// permission period.
func (r *Ref) guarantee() (minPeriod float64, strict, infrequent bool) {
	if r.Freq.Infrequent {
		return 0, false, true
	}
	return r.Freq.MinPeriodSeconds(), r.Freq.Op == ">", false
}

// freqImplies reports whether a reference guarantee (period ⊵ t) implies
// a permission requirement (period ⊵ pt).
func freqImplies(t float64, strict bool, infrequent bool, pt float64, pstrict bool) bool {
	if infrequent {
		return true
	}
	if t > pt {
		return true
	}
	if t == pt {
		return strict || !pstrict
	}
	return false
}

// Model is the checkable view of a specification: every instance,
// reference and permission, plus the containment columns.
type Model struct {
	Spec      *ast.Spec
	Instances []*Instance
	Perms     []Perm
	Refs      []Ref
	// Unresolved records query targets that could not be resolved to any
	// instance (e.g. an argument naming nothing, or a late-bound target
	// with no capable agent).
	Unresolved []UnresolvedTarget
	// Proxies are the proxy relationships declared through the proxies
	// extension clause (section 3.1).
	Proxies []Proxy

	byProc   map[string][]*Instance
	bySystem map[string][]*Instance
	byID     map[string]*Instance
	// co holds the dense id tables — containment, grantor indexes and
	// support views (columns.go) — written once by BuildModel.
	co columns

	// fleetOnce/fleet hold configgen's desired fleet state, derived once
	// per model (FleetState); the checker never reads it.
	fleetOnce sync.Once
	fleet     any
	// varCache memoizes MIB name resolution (Tree.LookupSuffix splits the
	// path on every call); the same few view patterns resolve on every
	// reference, so the check's steady state stays allocation-free.
	varCache sync.Map
}

// UnresolvedTarget describes a query whose target resolved to nothing.
type UnresolvedTarget struct {
	Source *Instance
	Query  *ast.Query
	Reason string
}

// BuildModel extracts the consistency model from a linked
// specification, writing the dense id tables as it goes.
func BuildModel(spec *ast.Spec) *Model {
	m := &Model{Spec: spec}
	names := spec.DomainNames()
	sysDoms := m.co.numberDomains(spec, names)
	m.buildInstances(sysDoms)
	m.buildPerms()
	m.buildRefs()
	m.buildProxies()
	return m
}

// hostTables is what every instance of one host shares: its containment
// run and its element view.
type hostTables struct {
	run     span
	sysView []*mib.Node
}

// instanceBuilder carries what buildInstances shares across hosts. A
// first pass looks every host and process up once and counts; the
// second numbers the instances into tables sized by the count.
type instanceBuilder struct {
	m     *Model
	insts []Instance
	// procs holds, per process type instantiated, its instances and its
	// resolved support view; procIdx finds a type's entry.
	procs   []procInstances
	procIdx map[*ast.ProcessSpec]int32
	// views holds the resolved support views back to back.
	views []*mib.Node
}

type procInstances struct {
	proc     *ast.ProcessSpec
	list     []*Instance
	view     []*mib.Node
	resolved bool
}

// add numbers the i-th process instantiated on host as the next
// instance.
func (b *instanceBuilder) add(pi ast.ProcInstance, proc *ast.ProcessSpec, host string, i int, hostRun hostTables) *Instance {
	m := b.m
	in := &b.insts[len(m.Instances)]
	*in = Instance{
		ID:   pi.Name + "@" + host + "#" + strconv.Itoa(i),
		Proc: proc,
		Args: pi.Args,
		idx:  int32(len(m.Instances)),
	}
	m.Instances = append(m.Instances, in)
	m.byID[in.ID] = in
	p := &b.procs[b.procIdx[proc]]
	p.list = append(p.list, in)
	if !p.resolved {
		p.view, p.resolved = b.resolveView(proc.Supports), true
	}
	m.co.instRun = append(m.co.instRun, hostRun.run)
	m.co.procView = append(m.co.procView, p.view)
	m.co.sysView = append(m.co.sysView, hostRun.sysView)
	return in
}

// buildInstances numbers the instances, system-hosted first, and writes
// each host's containment run once.
func (m *Model) buildInstances(sysDoms map[string][]int32) {
	sysNames := m.Spec.SystemNames()
	systems := make([]*ast.SystemSpec, len(sysNames))
	domains := make([]*ast.DomainSpec, len(m.co.domName))
	b := &instanceBuilder{m: m, procIdx: make(map[*ast.ProcessSpec]int32, len(m.Spec.Processes))}
	// declared[k] is the process the k-th instantiation names, in the
	// order the second pass numbers them; nil for an undeclared one,
	// which the linker has already reported.
	var declared []*ast.ProcessSpec
	var counts []int32
	n, patterns := 0, 0
	count := func(procs []ast.ProcInstance) {
		for _, pi := range procs {
			proc := m.Spec.Processes[pi.Name]
			declared = append(declared, proc)
			if proc == nil {
				continue
			}
			k, ok := b.procIdx[proc]
			if !ok {
				k = int32(len(counts))
				b.procIdx[proc] = k
				counts = append(counts, 0)
				patterns += len(proc.Supports)
			}
			counts[k]++
			n++
		}
	}
	for k, sysName := range sysNames {
		ss := m.Spec.Systems[sysName]
		systems[k] = ss
		if len(ss.Processes) > 0 {
			count(ss.Processes)
			patterns += len(ss.Supports)
		}
	}
	for d, domName := range m.co.domName {
		domains[d] = m.Spec.Domains[domName]
		count(domains[d].Processes)
	}
	m.Instances = make([]*Instance, 0, n)
	m.byProc = make(map[string][]*Instance, len(counts))
	m.bySystem = make(map[string][]*Instance, len(sysNames))
	m.byID = make(map[string]*Instance, n)
	m.co.instRun = make([]span, 0, n)
	m.co.procView = make([][]*mib.Node, 0, n)
	m.co.sysView = make([][]*mib.Node, 0, n)
	b.insts = make([]Instance, n)
	b.views = make([]*mib.Node, 0, patterns)
	b.procs = make([]procInstances, len(counts))
	flat := make([]*Instance, n)
	for proc, k := range b.procIdx {
		b.procs[k] = procInstances{proc: proc, list: flat[:0:counts[k]]}
		flat = flat[counts[k]:]
	}

	for k, sysName := range sysNames {
		ss := systems[k]
		if len(ss.Processes) == 0 {
			continue
		}
		host := hostTables{run: m.co.addRun(sysDoms[sysName]...), sysView: b.resolveView(ss.Supports)}
		first := len(m.Instances)
		for i, pi := range ss.Processes {
			if proc := declared[0]; proc != nil {
				b.add(pi, proc, sysName, i, host).System = sysName
			}
			declared = declared[1:]
		}
		// A system's instances are numbered together.
		if last := len(m.Instances); last > first {
			m.bySystem[sysName] = m.Instances[first:last:last]
		}
	}
	for d, domName := range m.co.domName {
		ds := domains[d]
		if len(ds.Processes) == 0 {
			continue
		}
		host := hostTables{run: m.co.addRun(int32(d))}
		for i, pi := range ds.Processes {
			if proc := declared[0]; proc != nil {
				b.add(pi, proc, domName, i, host).Domain = domName
			}
			declared = declared[1:]
		}
	}
	for _, p := range b.procs {
		m.byProc[p.proc.Name] = p.list
	}
}

// resolveView resolves a support view's patterns; unresolvable ones drop
// out, as viewCovers skips them.
func (b *instanceBuilder) resolveView(view []string) []*mib.Node {
	lo := len(b.views)
	for _, v := range view {
		if n := b.m.resolveVar(v); n != nil {
			b.views = append(b.views, n)
		}
	}
	return b.views[lo:len(b.views):len(b.views)]
}

// resolveVar resolves a dotted MIB name, which linking already validated.
// Resolutions are memoized (the MIB is immutable after linking).
func (m *Model) resolveVar(path string) *mib.Node {
	if v, ok := m.varCache.Load(path); ok {
		return v.(*mib.Node)
	}
	n := m.Spec.MIB.LookupSuffix(path)
	m.varCache.Store(path, n)
	return n
}

func permFromExport(ex ast.Export) (minPeriod float64, strict bool) {
	return ex.Freq.MinPeriodSeconds(), ex.Freq.Op == ">"
}

// buildPerms extracts the permissions and writes their id columns and
// grantor indexes alongside. It numbers every process-level permission
// before any domain-level one, and the domain-level ones by ascending
// domain id, so a target's own grants followed by each containing
// domain's (instDoms order) are already in ascending index order: the
// checker and the fingerprint encoder walk them in place in that order.
func (m *Model) buildPerms() {
	co := &m.co
	procNames := m.Spec.ProcessNames()
	// Count the permissions, each instance's and each domain's, so that
	// every table is allocated once at its length and an instance's or a
	// domain's grant list is carved from one.
	resolved := func(exports []ast.Export) int {
		n := 0
		for _, ex := range exports {
			for _, v := range ex.Vars {
				if m.resolveVar(v) != nil {
					n++
				}
			}
		}
		return n
	}
	procGrants := make([]int, len(procNames))
	domGrants := make([]int, len(co.domName))
	total := 0
	for k, procName := range procNames {
		procGrants[k] = resolved(m.Spec.Processes[procName].Exports)
		total += procGrants[k] * len(m.byProc[procName])
	}
	for d, domName := range co.domName {
		domGrants[d] = resolved(m.Spec.Domains[domName].Exports)
		total += domGrants[d]
	}
	m.Perms = make([]Perm, 0, total)
	co.permGrantee = make([]int32, 0, total)
	co.permGrantorInst = make([]int32, 0, total)
	co.permGrantorDom = make([]int32, 0, total)
	grants := make([]int32, total)
	carve := func(n int) []int32 {
		list := grants[:0:n]
		grants = grants[n:]
		return list
	}
	co.permsByInst = make([][]int32, len(m.Instances))
	co.permsByDom = make([][]int32, len(co.domName))
	for k, procName := range procNames {
		if procGrants[k] > 0 {
			for _, in := range m.byProc[procName] {
				co.permsByInst[in.idx] = carve(procGrants[k])
			}
		}
	}
	for d := range co.domName {
		if domGrants[d] > 0 {
			co.permsByDom[d] = carve(domGrants[d])
		}
	}
	add := func(p Perm, grantorInst, grantorDom int32) {
		pi := int32(len(m.Perms))
		m.Perms = append(m.Perms, p)
		co.permGrantee = append(co.permGrantee, co.domID(p.Grantee))
		co.permGrantorInst = append(co.permGrantorInst, grantorInst)
		co.permGrantorDom = append(co.permGrantorDom, grantorDom)
		if grantorInst >= 0 {
			co.permsByInst[grantorInst] = append(co.permsByInst[grantorInst], pi)
		} else {
			co.permsByDom[grantorDom] = append(co.permsByDom[grantorDom], pi)
		}
	}
	// Process-level exports: every instance of the type grants them.
	for k, procName := range procNames {
		if procGrants[k] == 0 {
			continue
		}
		ps := m.Spec.Processes[procName]
		declaredBy := "process " + procName
		for _, ex := range ps.Exports {
			for _, v := range ex.Vars {
				node := m.resolveVar(v)
				if node == nil {
					continue
				}
				minP, strict := permFromExport(ex)
				for _, in := range m.byProc[procName] {
					add(Perm{
						Grantee:     ex.To,
						GrantorInst: in.ID,
						DeclaredBy:  declaredBy,
						Var:         node,
						Access:      ex.Access,
						MinPeriod:   minP,
						Strict:      strict,
					}, in.idx, -1)
				}
			}
		}
	}
	// Domain-level exports.
	for d, domName := range co.domName {
		if domGrants[d] == 0 {
			continue
		}
		ds := m.Spec.Domains[domName]
		declaredBy := "domain " + domName
		for _, ex := range ds.Exports {
			for _, v := range ex.Vars {
				node := m.resolveVar(v)
				if node == nil {
					continue
				}
				minP, strict := permFromExport(ex)
				add(Perm{
					Grantee:       ex.To,
					GrantorDomain: domName,
					DeclaredBy:    declaredBy,
					Var:           node,
					Access:        ex.Access,
					MinPeriod:     minP,
					Strict:        strict,
				}, -1, int32(d))
			}
		}
	}
}

func (m *Model) viewCovers(view []string, node *mib.Node) bool {
	for _, v := range view {
		if vn := m.resolveVar(v); vn != nil && vn.Contains(node) {
			return true
		}
	}
	return false
}

// resolveTargets returns the candidate target instances of a query made
// by instance in.
func (m *Model) resolveTargets(in *Instance, q *ast.Query) ([]*Instance, TargetResolution, string) {
	// Direct process-type name.
	if _, ok := m.Spec.Processes[q.Target]; ok {
		if insts := m.byProc[q.Target]; len(insts) > 0 {
			return insts, TargetNamed, ""
		}
		return nil, TargetNamed, fmt.Sprintf("process %s is never instantiated", q.Target)
	}
	// Formal parameter.
	pidx := -1
	for i := range in.Proc.Params {
		if in.Proc.Params[i].Name == q.Target {
			pidx = i
		}
	}
	if pidx < 0 {
		return nil, TargetNamed, fmt.Sprintf("query target %q is neither a process nor a parameter", q.Target)
	}
	var arg ast.Arg
	if pidx < len(in.Args) {
		arg = in.Args[pidx]
	} else {
		arg = ast.Arg{Kind: ast.ArgStar}
	}
	switch arg.Kind {
	case ast.ArgStar:
		// Late-bound: any agent able to serve every requested variable
		// (none, if one of them names nothing).
		var buf [8]*mib.Node
		var cands []*Instance
		if nodes, ok := m.resolveRequests(buf[:0], q); ok {
			for _, cand := range m.Instances {
				if cand == in || !cand.Proc.IsAgent() {
					continue
				}
				all := true
				for _, node := range nodes {
					if !m.co.supports(cand.idx, node) {
						all = false
						break
					}
				}
				if all {
					cands = append(cands, cand)
				}
			}
		}
		if len(cands) == 0 {
			return nil, TargetStar, "no agent instance supports the requested data"
		}
		return cands, TargetStar, ""
	case ast.ArgString, ast.ArgWord:
		// A system name: agents on that system. A process name: its
		// instances.
		if insts := m.bySystem[arg.Text]; len(insts) > 0 {
			var agents []*Instance
			for _, cand := range insts {
				if cand.Proc.IsAgent() {
					agents = append(agents, cand)
				}
			}
			if len(agents) > 0 {
				return agents, TargetArg, ""
			}
			return nil, TargetArg, fmt.Sprintf("system %s runs no agent process", arg.Text)
		}
		if insts := m.byProc[arg.Text]; len(insts) > 0 {
			return insts, TargetArg, ""
		}
		return nil, TargetArg, fmt.Sprintf("argument %q names no system or process", arg.Text)
	default:
		return nil, TargetArg, fmt.Sprintf("argument %s cannot identify a query target", arg)
	}
}

// resolveRequests appends to nodes the MIB nodes the query's requested
// variables resolve to, dropping those that resolve to nothing, and
// reports whether every one resolved.
func (m *Model) resolveRequests(nodes []*mib.Node, q *ast.Query) ([]*mib.Node, bool) {
	all := true
	for _, rv := range q.Requests {
		if node := m.resolveVar(rv); node != nil {
			nodes = append(nodes, node)
		} else {
			all = false
		}
	}
	return nodes, all
}

// buildRefs resolves every query's targets, then writes the references
// into a table allocated once at its exact length: the late-bound
// queries of a large internet give hundreds of thousands of references,
// and a table grown by appending would copy them over and over.
func (m *Model) buildRefs() {
	type queryTargets struct {
		src     *Instance
		q       *ast.Query
		targets []*Instance
		res     TargetResolution
	}
	nq := 0
	for _, in := range m.Instances {
		nq += len(in.Proc.Queries)
	}
	queries := make([]queryTargets, 0, nq)
	var buf [8]*mib.Node
	n := 0
	for _, in := range m.Instances {
		for qi := range in.Proc.Queries {
			q := &in.Proc.Queries[qi]
			targets, res, failure := m.resolveTargets(in, q)
			if failure != "" {
				m.Unresolved = append(m.Unresolved, UnresolvedTarget{Source: in, Query: q, Reason: failure})
				continue
			}
			nodes, _ := m.resolveRequests(buf[:0], q)
			n += len(targets) * len(nodes)
			queries = append(queries, queryTargets{in, q, targets, res})
		}
	}
	m.Refs = make([]Ref, 0, n)
	for _, r := range queries {
		nodes, _ := m.resolveRequests(buf[:0], r.q)
		for _, tgt := range r.targets {
			for _, node := range nodes {
				m.Refs = append(m.Refs, Ref{
					Source:     r.src,
					Target:     tgt,
					Var:        node,
					Access:     r.q.Access,
					Freq:       &r.q.Freq,
					Resolution: r.res,
				})
			}
		}
	}
}

// InstanceByID returns the instance with the given ID, or nil.
func (m *Model) InstanceByID(id string) *Instance { return m.byID[id] }

// Index returns the instance's position in Model.Instances.
func (in *Instance) Index() int { return int(in.idx) }

// FleetState returns what build derives from the model, calling build on
// the first call only. configgen keeps each model's desired fleet state
// here, beside the model's other once-built tables: the model is
// immutable after BuildModel, so a derivation of it is too.
func (m *Model) FleetState(build func() any) any {
	m.fleetOnce.Do(func() { m.fleet = build() })
	return m.fleet
}

// PermsGrantedBy returns the indexes into Perms of the process-level
// permissions the instance grants, ascending (so in Perms order); nil
// for an unknown instance or one that grants nothing. The slice is
// shared with the checker: callers must not modify it.
func (m *Model) PermsGrantedBy(instID string) []int32 {
	in := m.byID[instID]
	if in == nil {
		return nil
	}
	return m.co.permsByInst[in.idx]
}

// PartyDomains returns the sorted set of domains containing the party
// (instance ID), transitively.
func (m *Model) PartyDomains(instID string) []string {
	in := m.byID[instID]
	if in == nil {
		return []string{}
	}
	run := m.co.instDoms(in.idx)
	out := make([]string, len(run))
	for k, d := range run {
		out[k] = m.co.domName[d]
	}
	return out
}

// PartyInDomain reports whether the party (instance ID) is contained in
// the domain, transitively.
func (m *Model) PartyInDomain(instID, domain string) bool {
	in := m.byID[instID]
	return in != nil && m.co.instHasDom(in.idx, m.co.domID(domain))
}

// GrantedCommunity returns the identity (grantee domain) a reference's
// source should present to its target: a domain containing the source
// whose permission covers the target, data and access mode. It returns ""
// when no permission applies — which the consistency check rules out for
// consistent specifications. When several grantees qualify the
// lexicographically first is returned, so callers are deterministic.
func (m *Model) GrantedCommunity(ref *Ref) string {
	co := &m.co
	best := ""
	consider := func(pis []int32) {
		for _, pi := range pis {
			p := &m.Perms[pi]
			if !co.instHasDom(ref.Source.idx, co.permGrantee[pi]) {
				continue
			}
			if !p.Var.Contains(ref.Var) || !p.Access.Allows(ref.Access) {
				continue
			}
			if best == "" || p.Grantee < best {
				best = p.Grantee
			}
		}
	}
	consider(co.permsByInst[ref.Target.idx])
	for _, d := range co.instDoms(ref.Target.idx) {
		consider(co.permsByDom[d])
	}
	return best
}

// DomainContains reports whether outer contains inner (or equals it).
func (m *Model) DomainContains(outer, inner string) bool {
	if outer == inner {
		return true
	}
	in := m.co.domID(inner)
	return in >= 0 && runHas(m.co.domUp(in), m.co.domID(outer))
}

// Restricts reports whether the domain restricts outside access to its
// members, which it does by declaring exports.
func (m *Model) Restricts(dom string) bool {
	d := m.co.domID(dom)
	return d >= 0 && m.co.restricts(d)
}
