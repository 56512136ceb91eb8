package consistency

import "sort"

// Materialized closures (the incremental-checking tentpole, layer 2).
// The paper's Consistency Checker reduces the Figure 4.9 relations with
// recursive transitivity rules; evaluating those rules top-down re-derives
// the same containment chains for every reference. Here the two closures
// the rules range over — administrative containment (contains_tr/covers)
// and MIB data covering (data_covers) — are materialized once per model by
// semi-naive bottom-up iteration, in O(edges + closure) time, and asserted
// into the logic DB as indexed fact tables. The tables are immutable after
// construction, so the sharded checker's workers share them read-only.
// BuildDBRecursive keeps the original recursive rule base as a parity
// oracle (Engine EngineLogicRecursive, property tests in closures_test.go).

// transitiveClosure computes the reachability closure of a directed edge
// relation by semi-naive iteration: each round joins the base edges with
// only the pairs discovered in the previous round, so every derivable
// pair is produced exactly once. Cycles (including self-edges) are safe:
// the fixpoint simply stops growing.
func transitiveClosure(edges map[string][]string) map[string]map[string]bool {
	reach := map[string]map[string]bool{}
	delta := map[string]map[string]bool{}
	add := func(m map[string]map[string]bool, x, y string) bool {
		s := m[x]
		if s == nil {
			s = map[string]bool{}
			m[x] = s
		}
		if s[y] {
			return false
		}
		s[y] = true
		return true
	}
	for x, ys := range edges {
		for _, y := range ys {
			if add(reach, x, y) {
				add(delta, x, y)
			}
		}
	}
	for len(delta) > 0 {
		next := map[string]map[string]bool{}
		// contains_tr(X, Z) :- contains(X, Y), Δcontains_tr(Y, Z).
		for x, ys := range edges {
			for _, y := range ys {
				for z := range delta[y] {
					if add(reach, x, z) {
						add(next, x, z)
					}
				}
			}
		}
		delta = next
	}
	return reach
}

// closures is the per-model materialized containment state the logic DB
// compiler asserts as facts, built once and shared read-only.
type closures struct {
	// down is the contains_tr relation: down[x] holds every party
	// transitively contained in x.
	down map[string]map[string]bool
	// order is the sorted key set of down, and downSorted the sorted
	// members, for deterministic fact assertion.
	order      []string
	downSorted map[string][]string
	// universe is every constant that may appear as an argument of the
	// covers relation: domains, systems, instance ids, grantees and
	// grantors. covers is reflexive over it.
	universe []string
}

// containmentEdges collects the direct contains/2 edges of the model:
// domain→subdomain, domain→system, host→instance — exactly the facts
// BuildDB asserts.
func (m *Model) containmentEdges() map[string][]string {
	edges := map[string][]string{}
	for _, name := range m.co.domName {
		d := m.Spec.Domains[name]
		edges[name] = append(edges[name], d.Subdomains...)
		edges[name] = append(edges[name], d.Systems...)
	}
	for _, in := range m.Instances {
		host := in.System
		if host == "" {
			host = in.Domain
		}
		edges[host] = append(edges[host], in.ID)
	}
	return edges
}

// closures returns the materialized containment closure for the model,
// computing it on first use. The result is immutable.
func (m *Model) closures() *closures {
	m.closOnce.Do(func() {
		cl := &closures{downSorted: map[string][]string{}}
		edges := m.containmentEdges()
		cl.down = transitiveClosure(edges)
		for x, ys := range cl.down {
			cl.order = append(cl.order, x)
			members := make([]string, 0, len(ys))
			for y := range ys {
				members = append(members, y)
			}
			sort.Strings(members)
			cl.downSorted[x] = members
		}
		sort.Strings(cl.order)

		// The covers universe: every edge endpoint plus every party a
		// permission can name.
		uni := map[string]bool{}
		for x, ys := range edges {
			uni[x] = true
			for _, y := range ys {
				uni[y] = true
			}
		}
		for i := range m.Perms {
			p := &m.Perms[i]
			uni[p.Grantee] = true
			if p.GrantorInst != "" {
				uni[p.GrantorInst] = true
			}
			if p.GrantorDomain != "" {
				uni[p.GrantorDomain] = true
			}
		}
		cl.universe = make([]string, 0, len(uni))
		for x := range uni {
			cl.universe = append(cl.universe, x)
		}
		sort.Strings(cl.universe)
		m.clos = cl
	})
	return m.clos
}
