package consistency

import (
	"slices"

	"nmsl/internal/ast"
	"nmsl/internal/mib"
)

// Columnar model. Every check-relevant relation is held once, as
// struct-of-arrays tables over dense integer ids: instances are numbered
// by model position, domains by sorted name, and containment, the
// grantor indexes and the support views are flat int32/pointer slices
// indexed by those ids. BuildModel writes the tables as it extracts the
// instances and permissions, so no second pass re-interns names; they
// are immutable afterwards, carry no per-reference pointers for the GC
// to trace, and are shared read-only by every worker — the
// per-reference hot path touches no map, takes no lock, and allocates
// nothing. Every containment question (the checker's, the fingerprint
// encoder's, the delta dirty set's, and the exported PartyDomains,
// PartyInDomain, DomainContains and Restricts) is answered here.
type columns struct {
	// domName maps a dense domain id back to its name (ids are assigned
	// in sorted-name order, so iterating ids is iterating names sorted).
	domName []string
	// domOf is the inverse, for name-keyed lookups.
	domOf map[string]int32

	// domUpOff/domUpFlat encode, per domain id, the ascending ids of the
	// domains strictly containing it:
	// domUpFlat[domUpOff[d]:domUpOff[d+1]].
	domUpOff  []int32
	domUpFlat []int32

	// runs holds the ascending domain-id runs of every hosting party,
	// and instRun[i] locates instance i's: the domains transitively
	// containing it. Instances on the same host share one run.
	runs    []int32
	instRun []span

	// Permission columns, aligned with Model.Perms. -1 marks an absent
	// or undeclared party (an undeclared grantee domain can never cover
	// a source).
	permGrantee     []int32 // grantee domain id
	permGrantorInst []int32 // granting instance index
	permGrantorDom  []int32 // granting domain id

	// Grantor indexes: ascending permission indexes per instance index /
	// domain id. permsByDom doubles as the restriction rule's export
	// lists: a domain restricts iff it grants domain-level permissions
	// (restricts).
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

// SeedColumnsFrom does nothing: BuildModel writes every table an edited
// model checks over, so there is nothing to adopt from old. It keeps its
// signature for the callers that still make the call.
func (m *Model) SeedColumnsFrom(old *Model, delta *ModelDelta) {}

// span is a half-open range of columns.runs.
type span struct{ lo, hi int32 }

// numberDomains assigns domain ids in sorted-name order and writes each
// domain's ancestor run. It returns, per system name, the ids of the
// domains listing that system as a member, for the instance runs.
func (co *columns) numberDomains(spec *ast.Spec, names []string) map[string][]int32 {
	co.domName = names
	co.domOf = make(map[string]int32, len(names))
	for i, n := range names {
		co.domOf[n] = int32(i)
	}
	// Each system's list of domains is carved from one table, at the
	// length a first pass counts.
	parents := make([][]int32, len(names))
	listed := make(map[string]int, len(spec.Systems))
	total := 0
	for _, n := range names {
		for _, sys := range spec.Domains[n].Systems {
			listed[sys]++
			total++
		}
	}
	flat := make([]int32, total)
	sysDoms := make(map[string][]int32, len(listed))
	for i, n := range names {
		d := spec.Domains[n]
		for _, sub := range d.Subdomains {
			if s, ok := co.domOf[sub]; ok {
				parents[s] = append(parents[s], int32(i))
			}
		}
		for _, sys := range d.Systems {
			list, ok := sysDoms[sys]
			if !ok {
				list, flat = flat[:0:listed[sys]], flat[listed[sys]:]
			}
			sysDoms[sys] = append(list, int32(i))
		}
	}
	// A depth-first walk up the parent edges per domain; seen[x] == d+1
	// marks x as already collected for d, so shared ancestors (diamond
	// nesting) are taken once and a cycle, which sema rejects, still
	// terminates.
	co.domUpOff = make([]int32, len(names)+1)
	seen := make([]int32, len(names))
	var stack []int32
	for d := range names {
		start := len(co.domUpFlat)
		co.domUpOff[d] = int32(start)
		stack = append(stack[:0], parents[d]...)
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[p] == int32(d)+1 {
				continue
			}
			seen[p] = int32(d) + 1
			co.domUpFlat = append(co.domUpFlat, p)
			stack = append(stack, parents[p]...)
		}
		slices.Sort(co.domUpFlat[start:])
	}
	co.domUpOff[len(names)] = int32(len(co.domUpFlat))
	return sysDoms
}

// domUp returns the ascending ids of the domains strictly containing d.
func (co *columns) domUp(d int32) []int32 {
	return co.domUpFlat[co.domUpOff[d]:co.domUpOff[d+1]]
}

// addRun appends the ascending union of the given domains and all their
// ancestors to runs and returns where it lies.
func (co *columns) addRun(doms ...int32) span {
	lo := len(co.runs)
	for _, d := range doms {
		co.runs = append(co.runs, d)
		co.runs = append(co.runs, co.domUp(d)...)
	}
	run := co.runs[lo:]
	slices.Sort(run)
	co.runs = co.runs[:lo+len(slices.Compact(run))]
	return span{int32(lo), int32(len(co.runs))}
}

// domID returns the domain's id, or -1 for an undeclared name.
func (co *columns) domID(name string) int32 {
	if d, ok := co.domOf[name]; ok {
		return d
	}
	return -1
}

// instDoms returns the ascending domain-id run transitively containing
// the instance.
func (co *columns) instDoms(i int32) []int32 {
	s := co.instRun[i]
	return co.runs[s.lo:s.hi]
}

// instHasDom reports whether domain d transitively contains instance i.
func (co *columns) instHasDom(i, d int32) bool { return runHas(co.instDoms(i), d) }

// runHas reports whether the ascending run holds d. Runs are a handful
// of entries deep, so a linear scan beats a binary search's branch
// misses.
func runHas(run []int32, d int32) bool {
	if d < 0 {
		return false
	}
	for _, x := range run {
		if x >= d {
			return x == d
		}
	}
	return false
}

// restricts reports whether domain d restricts outside access to its
// members: it does iff it grants domain-level permissions (its exports).
func (co *columns) restricts(d int32) bool { return len(co.permsByDom[d]) > 0 }

// nodesCover reports whether any view node contains the referenced node.
func nodesCover(view []*mib.Node, node *mib.Node) bool {
	for _, vn := range view {
		if vn.Contains(node) {
			return true
		}
	}
	return false
}

// supports reports whether instance i supports data at node: the
// process view must cover it, and for system-hosted instances the
// element's view must cover it too (section 4.1.4: the element lists
// the MIB portion its hardware and OS support).
func (co *columns) supports(i int32, node *mib.Node) bool {
	if !nodesCover(co.procView[i], node) {
		return false
	}
	if sv := co.sysView[i]; sv != nil && !nodesCover(sv, node) {
		return false
	}
	return true
}
