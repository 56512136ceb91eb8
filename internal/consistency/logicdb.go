package consistency

import (
	"fmt"
	"slices"

	"nmsl/internal/logic"
	"nmsl/internal/mib"
)

// accessAtom maps access modes to logic atoms.
func accessAtom(a mib.Access) logic.Term {
	switch a {
	case mib.AccessAny:
		return logic.Atom("any")
	case mib.AccessReadOnly:
		return logic.Atom("readonly")
	case mib.AccessWriteOnly:
		return logic.Atom("writeonly")
	case mib.AccessNone:
		return logic.Atom("none")
	}
	return logic.Atom("unspecified")
}

// freqTerms encodes a reference guarantee as (T, ROp) terms.
func freqTerms(minPeriod float64, strict, infrequent bool) (logic.Term, logic.Term) {
	if infrequent {
		return logic.Atom("infrequent"), logic.Atom("ge")
	}
	op := logic.Atom("ge")
	if strict {
		op = logic.Atom("gt")
	}
	return logic.Float(minPeriod), op
}

// BuildDBRecursive compiles the model into the one logic program the
// paper's Consistency Checker hands to CLP(R): the Figure 4.9 relations
// as facts, the transitivity, distribution and reduction rules of
// section 4.2, and inconsistent/6, the proof of inconsistency the
// checker runs. nmslcheck -program prints it (logic.DB.Write).
func BuildDBRecursive(m *Model) *logic.DB { return buildDB(m, false) }

// BuildDB is BuildDBRecursive with the recursive transitivity rules
// pre-evaluated: contains_tr and covers are ground fact tables read
// from the model's containment columns, and data_covers one read from
// the MIB tree, so those goals resolve by hash lookup instead of
// recursive search. EngineLogic and AdmissiblePeriods solve it; it
// proves exactly what the program proves.
func BuildDB(m *Model) *logic.DB { return buildDB(m, true) }

func buildDB(m *Model, materialize bool) *logic.DB {
	db := logic.NewDB()

	// contains/2 facts: administrative containment.
	for _, name := range m.co.domName {
		d := m.Spec.Domains[name]
		for _, sub := range d.Subdomains {
			db.Assert(logic.Comp("contains", logic.Atom(name), logic.Atom(sub)))
		}
		for _, sys := range d.Systems {
			db.Assert(logic.Comp("contains", logic.Atom(name), logic.Atom(sys)))
		}
	}
	for _, in := range m.Instances {
		host := in.System
		if host == "" {
			host = in.Domain
		}
		db.Assert(logic.Comp("contains", logic.Atom(host), logic.Atom(in.ID)))
		// instan(Host, ProcType, InstanceID) — Figure 4.9.
		db.Assert(logic.Comp("instan", logic.Atom(host), logic.Atom(in.Proc.Name), logic.Atom(in.ID)))
	}

	// contains_tr and covers: the transitive (and, for covers, reflexive)
	// containment closure.
	if materialize {
		m.assertContainment(db)
	} else {
		X, Y := logic.NewVar("X"), logic.NewVar("Y")
		db.Assert(logic.Comp("contains_tr", X, Y), logic.Call(logic.Comp("contains", X, Y)))
		X2, Y2, Z2 := logic.NewVar("X"), logic.NewVar("Y"), logic.NewVar("Z")
		db.Assert(logic.Comp("contains_tr", X2, Z2),
			logic.Call(logic.Comp("contains", X2, Y2)),
			logic.Call(logic.Comp("contains_tr", Y2, Z2)))
		// covers: reflexive containment, used by the distribution rules
		// (a permission to a domain distributes to everything it
		// contains).
		A := logic.NewVar("A")
		db.Assert(logic.Comp("covers", A, A))
		B, C := logic.NewVar("B"), logic.NewVar("C")
		db.Assert(logic.Comp("covers", B, C), logic.Call(logic.Comp("contains_tr", B, C)))
	}

	// MIB tree edges and the data-covering closure. A MIB path names its
	// whole ancestor chain, so the closure of the tree is every
	// (ancestor-or-self, node) pair — O(nodes × depth) facts.
	for _, root := range m.Spec.MIB.Roots() {
		var walk func(n *mib.Node)
		walk = func(n *mib.Node) {
			for _, c := range n.Children() {
				db.Assert(logic.Comp("mib_contains", logic.Atom(n.Path()), logic.Atom(c.Path())))
				walk(c)
			}
		}
		walk(root)
	}
	if materialize {
		for _, root := range m.Spec.MIB.Roots() {
			var walk func(n *mib.Node, anc []logic.Term)
			walk = func(n *mib.Node, anc []logic.Term) {
				self := logic.Atom(n.Path())
				anc = append(anc, self)
				for _, a := range anc {
					db.Assert(logic.Comp("data_covers", a, self))
				}
				for _, c := range n.Children() {
					walk(c, anc)
				}
			}
			walk(root, nil)
		}
	} else {
		V := logic.NewVar("V")
		db.Assert(logic.Comp("data_covers", V, V))
		X, Y, Z := logic.NewVar("X"), logic.NewVar("Y"), logic.NewVar("Z")
		db.Assert(logic.Comp("data_covers", X, Y),
			logic.Call(logic.Comp("mib_contains", X, Z)),
			logic.Call(logic.Comp("data_covers", Z, Y)))
	}

	// Access lattice.
	for _, pair := range [][2]string{
		{"any", "any"}, {"any", "readonly"}, {"any", "writeonly"}, {"any", "none"},
		{"readonly", "readonly"}, {"readonly", "none"},
		{"writeonly", "writeonly"}, {"writeonly", "none"},
		{"none", "none"},
	} {
		db.Assert(logic.Comp("allows", logic.Atom(pair[0]), logic.Atom(pair[1])))
	}

	// Frequency implication rules: a reference guaranteeing period ⊵ T
	// satisfies a permission requiring period ⊵ PT.
	{
		a1, a2, a3 := logic.NewVar("A"), logic.NewVar("B"), logic.NewVar("C")
		db.Assert(logic.Comp("freq_ok", logic.Atom("infrequent"), a1, a2, a3))
		T, PT, POp := logic.NewVar("T"), logic.NewVar("PT"), logic.NewVar("POp")
		db.Assert(logic.Comp("freq_ok", T, logic.Atom("gt"), PT, POp), logic.Con(T, ">=", PT))
		T2, PT2 := logic.NewVar("T"), logic.NewVar("PT")
		db.Assert(logic.Comp("freq_ok", T2, logic.Atom("ge"), PT2, logic.Atom("ge")), logic.Con(T2, ">=", PT2))
		T3, PT3 := logic.NewVar("T"), logic.NewVar("PT")
		db.Assert(logic.Comp("freq_ok", T3, logic.Atom("ge"), PT3, logic.Atom("gt")), logic.Con(T3, ">", PT3))
	}

	// perm/6 and dom_perm/6 facts.
	for i := range m.Perms {
		p := &m.Perms[i]
		grantor := p.GrantorInst
		if grantor == "" {
			grantor = p.GrantorDomain
		}
		pop := logic.Atom("ge")
		if p.Strict {
			pop = logic.Atom("gt")
		}
		args := []logic.Term{
			logic.Atom(p.Grantee), logic.Atom(grantor), logic.Atom(p.Var.Path()),
			accessAtom(p.Access), logic.Float(p.MinPeriod), pop,
		}
		db.Assert(logic.Comp("perm", args...))
		if p.GrantorDomain != "" {
			// dom_perm is keyed by the declaring domain so restriction
			// checks index on it: dom_perm(D, Grantee, Var, Acc, PT, POp).
			db.Assert(logic.Comp("dom_perm",
				logic.Atom(p.GrantorDomain), logic.Atom(p.Grantee), logic.Atom(p.Var.Path()),
				accessAtom(p.Access), logic.Float(p.MinPeriod), pop))
			db.Assert(logic.Comp("restricts", logic.Atom(p.GrantorDomain)))
		}
	}

	// ref/6 facts: the references inconsistent/6 ranges over (the Go
	// driver proves m.Refs one at a time instead).
	for i := range m.Refs {
		r := &m.Refs[i]
		t, rop := freqTerms(r.guarantee())
		db.Assert(logic.Comp("ref",
			logic.Atom(r.Source.ID), logic.Atom(r.Target.ID), logic.Atom(r.Var.Path()),
			accessAtom(r.Access), t, rop))
	}

	// Support facts.
	for _, in := range m.Instances {
		for _, v := range in.Proc.Supports {
			if n := m.resolveVar(v); n != nil {
				db.Assert(logic.Comp("inst_supports", logic.Atom(in.ID), logic.Atom(n.Path())))
			}
		}
		if in.System != "" {
			db.Assert(logic.Comp("inst_system", logic.Atom(in.ID), logic.Atom(in.System)))
		} else {
			db.Assert(logic.Comp("inst_in_domain", logic.Atom(in.ID)))
		}
	}
	for _, name := range m.Spec.SystemNames() {
		ss := m.Spec.Systems[name]
		for _, v := range ss.Supports {
			if n := m.resolveVar(v); n != nil {
				db.Assert(logic.Comp("sys_supports", logic.Atom(name), logic.Atom(n.Path())))
			}
		}
	}
	{
		Tgt, Var, V1, V2, S := logic.NewVar("Tgt"), logic.NewVar("Var"), logic.NewVar("V1"), logic.NewVar("V2"), logic.NewVar("S")
		db.Assert(logic.Comp("support_ok", Tgt, Var),
			logic.Call(logic.Comp("inst_supports", Tgt, V1)),
			logic.Call(logic.Comp("data_covers", V1, Var)),
			logic.Call(logic.Comp("inst_system", Tgt, S)),
			logic.Call(logic.Comp("sys_supports", S, V2)),
			logic.Call(logic.Comp("data_covers", V2, Var)))
		Tgt2, Var2, V12 := logic.NewVar("Tgt"), logic.NewVar("Var"), logic.NewVar("V1")
		db.Assert(logic.Comp("support_ok", Tgt2, Var2),
			logic.Call(logic.Comp("inst_supports", Tgt2, V12)),
			logic.Call(logic.Comp("data_covers", V12, Var2)),
			logic.Call(logic.Comp("inst_in_domain", Tgt2)))
	}

	// The reduction rules: permitted at three levels (full; ignoring
	// frequency; ignoring access and frequency) so the checker can report
	// the immediate cause of a failure.
	assertPermitted := func(name string, withAccess, withFreq bool) {
		Src, Tgt, Var, Acc := logic.NewVar("Src"), logic.NewVar("Tgt"), logic.NewVar("Var"), logic.NewVar("Acc")
		T, ROp := logic.NewVar("T"), logic.NewVar("ROp")
		G, Gr, PVar, PAcc, PT, POp := logic.NewVar("G"), logic.NewVar("Gr"), logic.NewVar("PVar"), logic.NewVar("PAcc"), logic.NewVar("PT"), logic.NewVar("POp")
		body := []logic.Goal{
			logic.Call(logic.Comp("perm", G, Gr, PVar, PAcc, PT, POp)),
			logic.Call(logic.Comp("covers", Gr, Tgt)),
			logic.Call(logic.Comp("covers", G, Src)),
			logic.Call(logic.Comp("data_covers", PVar, Var)),
		}
		if withAccess {
			body = append(body, logic.Call(logic.Comp("allows", PAcc, Acc)))
		}
		if withFreq {
			body = append(body, logic.Call(logic.Comp("freq_ok", T, ROp, PT, POp)))
		}
		db.Assert(logic.Comp(name, Src, Tgt, Var, Acc, T, ROp), body...)
	}
	assertPermitted("permitted", true, true)
	assertPermitted("permitted_nofreq", true, false)
	assertPermitted("permitted_parties", false, false)

	// Restriction rule: a domain that declares exports and contains the
	// target but not the source must grant a covering export.
	{
		Src, Tgt, Var, Acc := logic.NewVar("Src"), logic.NewVar("Tgt"), logic.NewVar("Var"), logic.NewVar("Acc")
		T, ROp, D := logic.NewVar("T"), logic.NewVar("ROp"), logic.NewVar("D")
		G, PVar, PAcc, PT, POp := logic.NewVar("G"), logic.NewVar("PVar"), logic.NewVar("PAcc"), logic.NewVar("PT"), logic.NewVar("POp")
		db.Assert(logic.Comp("violates_restriction", Src, Tgt, Var, Acc, T, ROp),
			logic.Call(logic.Comp("restricts", D)),
			logic.Call(logic.Comp("contains_tr", D, Tgt)),
			logic.Not(logic.Call(logic.Comp("covers", D, Src))),
			logic.Not(
				logic.Call(logic.Comp("dom_perm", D, G, PVar, PAcc, PT, POp)),
				logic.Call(logic.Comp("covers", G, Src)),
				logic.Call(logic.Comp("data_covers", PVar, Var)),
				logic.Call(logic.Comp("allows", PAcc, Acc)),
				logic.Call(logic.Comp("freq_ok", T, ROp, PT, POp)),
			))
	}

	// The proof performed is a proof of inconsistency (closed world): a
	// reference no permission covers, or one a restricting domain does
	// not export to.
	{
		Src, Tgt, Var, Acc, T, ROp := logic.NewVar("Src"), logic.NewVar("Tgt"), logic.NewVar("Var"), logic.NewVar("Acc"), logic.NewVar("T"), logic.NewVar("ROp")
		args := []logic.Term{Src, Tgt, Var, Acc, T, ROp}
		db.Assert(logic.Comp("inconsistent", args...),
			logic.Call(logic.Comp("ref", args...)),
			logic.Not(logic.Call(logic.Comp("permitted", args...))))
		db.Assert(logic.Comp("inconsistent", args...),
			logic.Call(logic.Comp("ref", args...)),
			logic.Call(logic.Comp("violates_restriction", args...)))
	}

	// Everything the solvers will intern is now in the table; publish
	// the read-only snapshot so checking never touches the alloc mutex.
	logic.FreezeAtoms()
	return db
}

// assertContainment asserts contains_tr and covers as ground fact
// tables read from the containment columns: each domain's ancestor run,
// each system's domains, and each instance's run and host. covers is
// also reflexive over every party a contains fact or a permission can
// name: the recursive covers(A, A) clause restricted to the constants
// that can reach it.
func (m *Model) assertContainment(db *logic.DB) {
	co := &m.co
	seen := map[string]bool{}
	self := func(x logic.Term) {
		if !seen[x.Str] {
			seen[x.Str] = true
			db.Assert(logic.Comp("covers", x, x))
		}
	}
	below := func(x logic.Term, up []int32) {
		self(x)
		for _, d := range up {
			a := logic.Atom(co.domName[d])
			db.Assert(logic.Comp("contains_tr", a, x))
			db.Assert(logic.Comp("covers", a, x))
		}
	}
	sysDoms := map[string][]int32{}
	for d, name := range co.domName {
		below(logic.Atom(name), co.domUp(int32(d)))
		for _, sys := range m.Spec.Domains[name].Systems {
			sysDoms[sys] = append(append(sysDoms[sys], int32(d)), co.domUp(int32(d))...)
		}
	}
	for _, sys := range m.Spec.SystemNames() {
		run := sysDoms[sys]
		slices.Sort(run)
		below(logic.Atom(sys), slices.Compact(run))
	}
	for i, in := range m.Instances {
		x := logic.Atom(in.ID)
		below(x, co.instDoms(int32(i)))
		if in.System != "" {
			db.Assert(logic.Comp("contains_tr", logic.Atom(in.System), x))
			db.Assert(logic.Comp("covers", logic.Atom(in.System), x))
		}
	}
	for i := range m.Perms {
		self(logic.Atom(m.Perms[i].Grantee))
	}
}

// logicCheckRef proves one reference against the compiled rule base
// through solver s, appending violations in rule order (support,
// permission, restriction). The DB behind s is read-only during
// solving, so concurrent workers may share it, each with a private
// solver.
func logicCheckRef(m *Model, s *logic.Solver, r *Ref, out *[]Violation) {
	src, tgt := logic.Atom(r.Source.ID), logic.Atom(r.Target.ID)
	v := logic.Atom(r.Var.Path())
	acc := accessAtom(r.Access)
	t, rop := freqTerms(r.guarantee())
	args := []logic.Term{src, tgt, v, acc, t, rop}

	if !s.Prove(logic.Call(logic.Comp("support_ok", tgt, v))) {
		*out = append(*out, Violation{
			Kind: KindNoSupport, Ref: r,
			Message: fmt.Sprintf("%s: target %s (%s) does not support %s",
				r, r.Target.ID, r.Target.Hosted(), r.Var.Path()),
		})
	}
	switch {
	case s.Prove(logic.Call(logic.Comp("permitted", args...))):
		// permitted
	case s.Prove(logic.Call(logic.Comp("permitted_nofreq", args...))):
		*out = append(*out, Violation{
			Kind: KindFrequencyViolation, Ref: r,
			Message: fmt.Sprintf("%s: a permission covers the parties and data but not this frequency", r),
		})
	case s.Prove(logic.Call(logic.Comp("permitted_parties", args...))):
		*out = append(*out, Violation{
			Kind: KindAccessViolation, Ref: r,
			Message: fmt.Sprintf("%s: a permission covers the parties and data but not this access mode", r),
		})
	default:
		*out = append(*out, Violation{
			Kind: KindNoPermission, Ref: r,
			Message: fmt.Sprintf("%s: no permission covers this reference", r),
		})
	}
	if s.Prove(logic.Call(logic.Comp("violates_restriction", args...))) {
		*out = append(*out, Violation{
			Kind: KindDomainRestriction, Ref: r,
			Message: fmt.Sprintf("%s: a domain containing the target restricts access and grants no covering export", r),
		})
	}
}

// AdmissiblePeriods solves the consistency check in reverse (the paper's
// speculative use of CLP(R), section 4.2): given a prospective reference
// from srcID to data var on tgtID at the given access mode, it returns
// the admissible query-period intervals — the values of T for which the
// combined specification would be consistent. An empty result means no
// period makes the reference consistent.
func AdmissiblePeriods(m *Model, srcID, tgtID string, varNode *mib.Node, access mib.Access) []logic.Interval {
	db := BuildDB(m)
	s := logic.NewSolver(db)
	src, tgt := logic.Atom(srcID), logic.Atom(tgtID)
	v := logic.Atom(varNode.Path())
	acc := accessAtom(access)

	collect := func(pred string, extra ...logic.Term) []logic.Interval {
		T := logic.NewVar("T")
		args := append([]logic.Term{}, extra...)
		args = append(args, v, acc, T, logic.Atom("ge"))
		var ivs []logic.Interval
		s.Solve([]logic.Goal{logic.Call(logic.Comp(pred, args...))}, func(sol *logic.Solution) bool {
			iv := sol.Interval(T)
			if !iv.Empty {
				ivs = append(ivs, iv)
			}
			return true
		})
		return ivs
	}

	// Base permission intervals.
	result := unionIntervals(collect("permitted", src, tgt))
	if len(result) == 0 {
		return nil
	}
	// Intersect with each restricting domain's own grants.
	for _, dom := range m.PartyDomains(tgtID) {
		if !m.Restricts(dom) || m.PartyInDomain(srcID, dom) {
			continue
		}
		T := logic.NewVar("T")
		G, PVar, PAcc, PT, POp := logic.NewVar("G"), logic.NewVar("PVar"), logic.NewVar("PAcc"), logic.NewVar("PT"), logic.NewVar("POp")
		var ivs []logic.Interval
		s.Solve([]logic.Goal{
			logic.Call(logic.Comp("dom_perm", logic.Atom(dom), G, PVar, PAcc, PT, POp)),
			logic.Call(logic.Comp("covers", G, src)),
			logic.Call(logic.Comp("data_covers", PVar, v)),
			logic.Call(logic.Comp("allows", PAcc, acc)),
			logic.Call(logic.Comp("freq_ok", T, logic.Atom("ge"), PT, POp)),
		}, func(sol *logic.Solution) bool {
			iv := sol.Interval(T)
			if !iv.Empty {
				ivs = append(ivs, iv)
			}
			return true
		})
		result = intersectSets(result, unionIntervals(ivs))
		if len(result) == 0 {
			return nil
		}
	}
	return result
}
