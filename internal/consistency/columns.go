package consistency

import (
	"slices"
	"sort"

	"nmsl/internal/mib"
)

// Columnar interned model (the contention tentpole). The checker's hot
// loop used to resolve every relation through string-keyed maps —
// partyDomains[instanceID][domainName], byGrantorInst[instanceID] — so
// each of the ~100k references on a large internet paid string hashing
// and map-bucket chasing, and every worker dragged the same map buckets
// through its cache. Here the check-relevant relations are re-expressed
// once per model as struct-of-arrays tables over dense integer ids:
// instances are numbered by model position, domains by sorted name, and
// the containment, grantor-index and support-view relations become flat
// int32/pointer slices indexed by those ids. The tables are immutable
// after construction, carry no per-reference pointers for the GC to
// trace, and are shared read-only by every worker — the per-reference
// hot path touches no map, takes no lock, and allocates nothing.
type columns struct {
	// domName maps a dense domain id back to its name (ids are assigned
	// in sorted-name order, so iterating ids is iterating names sorted).
	domName []string
	// domOf is the inverse, for cold-path lookups.
	domOf map[string]int32

	// instDomOff/instDomFlat encode, per instance index, the ascending
	// run of domain ids transitively containing it:
	// instDomFlat[instDomOff[i]:instDomOff[i+1]].
	instDomOff  []int32
	instDomFlat []int32

	// Permission columns, aligned with Model.Perms. -1 marks an absent
	// or undeclared party (an undeclared grantee domain can never cover
	// a source, exactly like the map miss it replaces).
	permGrantee     []int32 // grantee domain id
	permGrantorInst []int32 // granting instance index
	permGrantorDom  []int32 // granting domain id

	// Grantor indexes: ascending permission indexes per instance index /
	// domain id. permsByDom doubles as the restriction rule's export
	// lists (a domain restricts iff it declares exports, and its exports
	// are exactly its domain-level permissions).
	permsByInst [][]int32
	permsByDom  [][]int32

	// Effective support views, resolved once per instance: the process
	// view nodes, and — for system-hosted instances whose system is
	// declared — the element view. sysView[i] == nil means "no element
	// check applies"; a non-nil empty slice is a declared view that
	// covers nothing.
	procView [][]*mib.Node
	sysView  [][]*mib.Node
}

// columns returns the model's columnar tables, building them on first
// use. The result is immutable and safe to share across workers.
func (m *Model) columns() *columns {
	m.colsOnce.Do(func() { m.cols = buildColumnsFrom(m, nil, nil, nil) })
	return m.cols
}

// instPermIndex returns, per instance index, the ascending indexes into
// m.Perms of the permissions that instance grants. It is the columnar
// tables' permsByInst, built under its own once: configgen.Generate
// reads it (through PermsGrantedBy) and may run before the model's
// first check, and going through colsOnce there would make a later
// SeedColumnsFrom a silent no-op.
func (m *Model) instPermIndex() [][]int32 {
	m.instPermsOnce.Do(func() {
		idx := make([][]int32, len(m.Instances))
		for pi := range m.Perms {
			if id := m.Perms[pi].GrantorInst; id != "" {
				if in := m.byID[id]; in != nil {
					idx[in.idx] = append(idx[in.idx], int32(pi))
				}
			}
		}
		m.instPerms = idx
	})
	return m.instPerms
}

// SeedColumnsFrom pre-builds m's columnar tables on the growth path: a
// DiffSpecs edit rebuilt the model, and the parts of the old model's
// tables the delta provably left unchanged are adopted instead of
// re-interned — the sorted domain-name→id table is shared outright when
// the domain name set is identical, and per-instance containment runs
// are copied id-for-id (no map iteration, no sort) for instances whose
// hosting survives the edit when no domain declaration changed. Must be
// called before the model's first check (the tables build lazily on
// first use and are immutable after); a nil old or a delta that forces
// a full re-check (Full, MIBChanged) seeds nothing and the first check
// builds fresh. Equivalence with a fresh build is pinned by
// TestSeedColumnsEquivalence.
func (m *Model) SeedColumnsFrom(old *Model, delta *ModelDelta) {
	if old == nil || old == m || delta == nil || delta.Full || delta.MIBChanged {
		return
	}
	m.colsOnce.Do(func() { m.cols = buildColumnsFrom(m, old, old.columns(), delta) })
}

// buildColumnsFrom builds the tables, adopting from oldCo where the
// delta proves reuse sound (all three of old/oldCo/delta nil means a
// cold build — the m.columns path).
func buildColumnsFrom(m *Model, old *Model, oldCo *columns, delta *ModelDelta) *columns {
	co := &columns{}

	// Domain ids in sorted-name order (DomainNames is sorted), so id
	// order and lexicographic name order coincide and every id-ordered
	// iteration below is deterministic. An unchanged name set means the
	// old table assigns exactly these ids — share it; any difference
	// shifts ids, so every adopted structure below requires this reuse.
	names := m.Spec.DomainNames()
	if oldCo != nil && !slices.Equal(names, oldCo.domName) {
		old, oldCo = nil, nil
	}
	if oldCo != nil {
		co.domName = oldCo.domName
		co.domOf = oldCo.domOf
	} else {
		co.domName = names
		co.domOf = make(map[string]int32, len(names))
		for i, n := range names {
			co.domOf[n] = int32(i)
		}
	}

	// Containment ancestry per instance, as ascending domain-id runs.
	// Containment depends only on the domain declarations (membership
	// lists and subdomain edges), so when the delta names no domain the
	// old run for an identically-hosted instance is already correct —
	// copy the ids straight across instead of iterating and sorting the
	// party-domain set.
	adoptRuns := oldCo != nil && len(delta.Domains) == 0
	co.instDomOff = make([]int32, len(m.Instances)+1)
	for i, in := range m.Instances {
		co.instDomOff[i] = int32(len(co.instDomFlat))
		if adoptRuns {
			if oldIn := old.byID[in.ID]; oldIn != nil && oldIn.System == in.System && oldIn.Domain == in.Domain {
				co.instDomFlat = append(co.instDomFlat, oldCo.instDoms(oldIn.idx)...)
				continue
			}
		}
		start := len(co.instDomFlat)
		for d := range m.partyDomains[in.ID] {
			if id, ok := co.domOf[d]; ok {
				co.instDomFlat = append(co.instDomFlat, id)
			}
		}
		run := co.instDomFlat[start:]
		sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
	}
	co.instDomOff[len(m.Instances)] = int32(len(co.instDomFlat))

	// Permission columns and the grantor indexes. Appending in perm
	// order keeps every index list ascending, which candidatePerms and
	// the fingerprint encoder rely on. The per-instance index is the
	// model's own (instPermIndex); permGrantorInst is its inverse.
	co.permGrantee = make([]int32, len(m.Perms))
	co.permGrantorInst = make([]int32, len(m.Perms))
	co.permGrantorDom = make([]int32, len(m.Perms))
	co.permsByInst = m.instPermIndex()
	co.permsByDom = make([][]int32, len(names))
	for pi := range m.Perms {
		p := &m.Perms[pi]
		co.permGrantee[pi] = -1
		if id, ok := co.domOf[p.Grantee]; ok {
			co.permGrantee[pi] = id
		}
		co.permGrantorInst[pi] = -1
		co.permGrantorDom[pi] = -1
		if p.GrantorDomain != "" {
			if id, ok := co.domOf[p.GrantorDomain]; ok {
				co.permGrantorDom[pi] = id
				co.permsByDom[id] = append(co.permsByDom[id], int32(pi))
			}
		}
	}
	for i, pis := range co.permsByInst {
		for _, pi := range pis {
			co.permGrantorInst[pi] = int32(i)
		}
	}

	// Support views, resolved once. Unresolvable patterns drop out here
	// exactly as viewCovers skipped them per reference.
	co.procView = make([][]*mib.Node, len(m.Instances))
	co.sysView = make([][]*mib.Node, len(m.Instances))
	procNodes := map[string][]*mib.Node{}
	sysNodes := map[string][]*mib.Node{}
	resolveView := func(view []string) []*mib.Node {
		nodes := make([]*mib.Node, 0, len(view))
		for _, v := range view {
			if n := m.resolveVar(v); n != nil {
				nodes = append(nodes, n)
			}
		}
		return nodes
	}
	for i, in := range m.Instances {
		pv, ok := procNodes[in.Proc.Name]
		if !ok {
			pv = resolveView(in.Proc.Supports)
			procNodes[in.Proc.Name] = pv
		}
		co.procView[i] = pv
		if in.System != "" {
			sv, ok := sysNodes[in.System]
			if !ok {
				if ss := m.Spec.Systems[in.System]; ss != nil {
					sv = resolveView(ss.Supports)
				}
				sysNodes[in.System] = sv
			}
			co.sysView[i] = sv
		}
	}
	return co
}

// instDoms returns the ascending domain-id run transitively containing
// the instance.
func (co *columns) instDoms(i int32) []int32 {
	return co.instDomFlat[co.instDomOff[i]:co.instDomOff[i+1]]
}

// instHasDom reports whether domain d transitively contains instance i.
// Ancestry runs are a handful of entries deep, so a linear scan beats a
// binary search's branch misses.
func (co *columns) instHasDom(i, d int32) bool {
	if d < 0 {
		return false
	}
	for _, x := range co.instDoms(i) {
		if x == d {
			return true
		}
		if x > d {
			return false
		}
	}
	return false
}

// nodesCover reports whether any view node contains the referenced node.
func nodesCover(view []*mib.Node, node *mib.Node) bool {
	for _, vn := range view {
		if vn.Contains(node) {
			return true
		}
	}
	return false
}

// supports is effectiveSupports over the columnar tables: the process
// view must cover the node, and a declared hosting element's view must
// cover it too.
func (co *columns) supports(i int32, node *mib.Node) bool {
	if !nodesCover(co.procView[i], node) {
		return false
	}
	if sv := co.sysView[i]; sv != nil && !nodesCover(sv, node) {
		return false
	}
	return true
}
