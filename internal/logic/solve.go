package logic

import (
	"fmt"
	"io"
	"math/big"
)

// GoalKind discriminates goal variants.
type GoalKind uint8

const (
	// GCall resolves a predicate against the database.
	GCall GoalKind = iota
	// GCon adds a linear arithmetic constraint to the store.
	GCon
	// GNeg is negation as failure over a conjunction (closed world).
	GNeg
)

// Goal is one element of a clause body or query.
type Goal struct {
	Kind GoalKind
	// Term is the called predicate (GCall).
	Term Term
	// Lhs Op Rhs is the constraint (GCon); Op is one of < <= > >= =.
	Lhs, Rhs Term
	Op       string
	// Neg is the negated conjunction (GNeg).
	Neg []Goal
}

// Call returns a predicate-call goal.
func Call(t Term) Goal { return Goal{Kind: GCall, Term: t} }

// Con returns an arithmetic constraint goal lhs op rhs.
func Con(lhs Term, op string, rhs Term) Goal {
	return Goal{Kind: GCon, Lhs: lhs, Op: op, Rhs: rhs}
}

// Not returns a negation-as-failure goal over the conjunction.
func Not(goals ...Goal) Goal { return Goal{Kind: GNeg, Neg: goals} }

// String renders the goal in Prolog-like syntax.
func (g Goal) String() string {
	switch g.Kind {
	case GCall:
		return g.Term.String()
	case GCon:
		return fmt.Sprintf("%s %s %s", g.Lhs, g.Op, g.Rhs)
	case GNeg:
		s := "\\+ ("
		for i, sub := range g.Neg {
			if i > 0 {
				s += ", "
			}
			s += sub.String()
		}
		return s + ")"
	}
	return "?"
}

func renameGoal(g Goal, ren map[int]Term) Goal {
	switch g.Kind {
	case GCall:
		return Goal{Kind: GCall, Term: rename(g.Term, ren)}
	case GCon:
		return Goal{Kind: GCon, Lhs: rename(g.Lhs, ren), Op: g.Op, Rhs: rename(g.Rhs, ren)}
	case GNeg:
		sub := make([]Goal, len(g.Neg))
		for i, n := range g.Neg {
			sub[i] = renameGoal(n, ren)
		}
		return Goal{Kind: GNeg, Neg: sub}
	}
	return g
}

// Clause is a Horn clause: Head :- Body. Facts have an empty body.
type Clause struct {
	Head Term
	Body []Goal
}

// String renders the clause.
func (c *Clause) String() string {
	if len(c.Body) == 0 {
		return c.Head.String() + "."
	}
	s := c.Head.String() + " :- "
	for i, g := range c.Body {
		if i > 0 {
			s += ", "
		}
		s += g.String()
	}
	return s + "."
}

// bucket holds the clauses of one predicate with first-argument indexing:
// facts and rules whose head's first argument is a ground atom are also
// reachable through byAtom, so calls with a known first argument skip the
// rest of the database. This is what keeps consistency checking of large
// specifications near-linear.
type bucket struct {
	all []*Clause
	// byAtom is keyed by the intern id of the head's first argument, so
	// lookups hash one machine word instead of the atom's bytes.
	byAtom map[int][]*Clause
	// mixed are clauses whose first argument is not a ground atom (or
	// arity is 0); they apply to every call.
	mixed []*Clause
	// ground indexes fact clauses with fully ground heads by structural
	// hash. When the predicate consists only of such facts (factsOnly), a
	// ground call is answered straight from this index — the O(1) lookup
	// that makes the materialized closure tables (contains_tr/2, covers/2,
	// data_covers/2) cheap to consult.
	ground    map[uint64][]*Clause
	factsOnly bool
}

// DB is a clause database.
type DB struct {
	preds map[string]*bucket
	// order holds every clause in assertion order, for Write.
	order []*Clause
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{preds: map[string]*bucket{}} }

// Len returns the number of asserted clauses.
func (db *DB) Len() int { return len(db.order) }

// Write renders the database as a Prolog program: one clause per line
// in assertion order, each variable numbered by its first appearance
// in its clause, so the text does not depend on what else the process
// has solved. A predicate that some body calls but no clause defines is
// declared dynamic first, so that the call fails instead of raising an
// existence error.
func (db *DB) Write(w io.Writer) error {
	var undefined []string
	seen := map[string]bool{}
	var walk func(goals []Goal)
	walk = func(goals []Goal) {
		for _, g := range goals {
			walk(g.Neg)
			if ind := g.Term.Indicator(); g.Kind == GCall && db.preds[ind] == nil && !seen[ind] {
				seen[ind] = true
				undefined = append(undefined, ind)
			}
		}
	}
	for _, c := range db.order {
		walk(c.Body)
	}
	for _, ind := range undefined {
		if _, err := fmt.Fprintf(w, ":- dynamic %s.\n", ind); err != nil {
			return err
		}
	}
	for _, c := range db.order {
		ren := map[int]Term{}
		numberVars(c.Head, ren)
		body := make([]Goal, len(c.Body))
		for i, g := range c.Body {
			numberGoalVars(g, ren)
			body[i] = renameGoal(g, ren)
		}
		numbered := Clause{Head: rename(c.Head, ren), Body: body}
		if _, err := io.WriteString(w, numbered.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// numberVars maps every variable of t not yet in ren to the next
// number, keeping its display name.
func numberVars(t Term, ren map[int]Term) {
	switch t.Kind {
	case KVar:
		if _, ok := ren[t.Ref]; !ok {
			ren[t.Ref] = Term{Kind: KVar, Str: t.Str, Ref: len(ren) + 1}
		}
	case KComp:
		for _, a := range t.Args {
			numberVars(a, ren)
		}
	}
}

func numberGoalVars(g Goal, ren map[int]Term) {
	numberVars(g.Term, ren)
	numberVars(g.Lhs, ren)
	numberVars(g.Rhs, ren)
	for _, n := range g.Neg {
		numberGoalVars(n, ren)
	}
}

// Assert adds a clause Head :- Body at the end of its predicate.
func (db *DB) Assert(head Term, body ...Goal) {
	ind := head.Indicator()
	if ind == "" {
		panic("logic: clause head must be an atom or compound")
	}
	bk, ok := db.preds[ind]
	if !ok {
		bk = &bucket{byAtom: map[int][]*Clause{}, ground: map[uint64][]*Clause{}, factsOnly: true}
		db.preds[ind] = bk
	}
	c := &Clause{Head: head, Body: body}
	db.order = append(db.order, c)
	bk.all = append(bk.all, c)
	if head.Kind == KComp && len(head.Args) > 0 && head.Args[0].Kind == KAtom {
		id := atomID(head.Args[0])
		bk.byAtom[id] = append(bk.byAtom[id], c)
	} else {
		bk.mixed = append(bk.mixed, c)
	}
	if len(body) == 0 {
		if h, grnd := hashWalk(head, nil); grnd {
			bk.ground[h] = append(bk.ground[h], c)
		} else {
			bk.factsOnly = false
		}
	} else {
		bk.factsOnly = false
	}
}

// candidates returns the clauses a call could match, using first-argument
// indexing when the call's first argument is a ground atom.
func (db *DB) candidates(goal Term, b *Bindings) []*Clause {
	bk, ok := db.preds[goal.Indicator()]
	if !ok {
		return nil
	}
	if goal.Kind == KComp && len(goal.Args) > 0 {
		first := b.Walk(goal.Args[0])
		if first.Kind == KAtom {
			indexed := bk.byAtom[atomID(first)]
			if len(bk.mixed) == 0 {
				return indexed
			}
			// merge preserving assert order is not required for
			// soundness; indexed-first keeps facts ahead of rules, which
			// is how the consistency rule base is organized.
			out := make([]*Clause, 0, len(indexed)+len(bk.mixed))
			out = append(out, indexed...)
			out = append(out, bk.mixed...)
			return out
		}
	}
	return bk.all
}

// store is the backtrackable linear-constraint store.
type store struct {
	cons []Constraint
	vars map[int]int // ref -> number of constraints mentioning it
}

func newStore() *store { return &store{vars: map[int]int{}} }

func (s *store) mark() int { return len(s.cons) }

func (s *store) push(c Constraint) {
	s.cons = append(s.cons, c)
	for ref := range c.Expr.Coeffs {
		s.vars[ref]++
	}
}

func (s *store) undo(m int) {
	for i := len(s.cons) - 1; i >= m; i-- {
		for ref := range s.cons[i].Expr.Coeffs {
			s.vars[ref]--
			if s.vars[ref] == 0 {
				delete(s.vars, ref)
			}
		}
	}
	s.cons = s.cons[:m]
}

func (s *store) has(ref int) bool { return s.vars[ref] > 0 }

// Solution is the view of one answer passed to the Solve callback. It is
// only valid during the callback.
type Solution struct {
	b  *Bindings
	st *store
}

// Resolve substitutes the solution's bindings into t.
func (s *Solution) Resolve(t Term) Term { return s.b.Resolve(t) }

// Interval projects the constraint store onto variable v (which may be
// bound to a number, yielding a point interval).
func (s *Solution) Interval(v Term) Interval {
	w := s.b.Walk(v)
	switch w.Kind {
	case KNum:
		r := new(big.Rat).Set(w.Rat)
		return Interval{Lo: r, Hi: new(big.Rat).Set(r)}
	case KVar:
		return Project(s.st.cons, w.Ref)
	}
	return Interval{Empty: true}
}

// Constraints returns a snapshot of the active constraint store.
func (s *Solution) Constraints() []Constraint {
	out := make([]Constraint, len(s.st.cons))
	for i, c := range s.st.cons {
		out[i] = Constraint{Expr: c.Expr.Clone(), Op: c.Op}
	}
	return out
}

// Solver executes queries against a DB.
type Solver struct {
	db *DB
	// MaxDepth bounds the conjunctive call depth; exceeding it fails the
	// branch and records DepthExceeded.
	MaxDepth int

	b             *Bindings
	st            *store
	depthExceeded bool
}

// NewSolver returns a Solver over db with a generous default depth limit.
func NewSolver(db *DB) *Solver {
	return &Solver{db: db, MaxDepth: 4096}
}

// DepthExceeded reports whether any branch of the last Solve hit the
// depth limit (a sign of unbounded recursion in the rule base).
func (s *Solver) DepthExceeded() bool { return s.depthExceeded }

// Solve enumerates solutions to the conjunction, invoking yield for each.
// The search stops when yield returns false or the space is exhausted.
func (s *Solver) Solve(goals []Goal, yield func(*Solution) bool) {
	s.b = NewBindings()
	s.st = newStore()
	s.depthExceeded = false
	s.solve(goals, 0, func() bool {
		return yield(&Solution{b: s.b, st: s.st})
	})
}

// Once returns the first solution, or nil.
func (s *Solver) Once(goals ...Goal) *Solution {
	var out *Solution
	s.Solve(goals, func(sol *Solution) bool {
		// snapshot enough state: Solution is live-only, so materialize a
		// private copy of bindings and store for the caller.
		b2 := NewBindings()
		for ref, t := range sol.b.m {
			b2.bind(ref, t)
		}
		st2 := newStore()
		for _, c := range sol.st.cons {
			st2.push(Constraint{Expr: c.Expr.Clone(), Op: c.Op})
		}
		out = &Solution{b: b2, st: st2}
		return false
	})
	return out
}

// Prove reports whether the conjunction has at least one solution.
func (s *Solver) Prove(goals ...Goal) bool {
	found := false
	s.Solve(goals, func(*Solution) bool {
		found = true
		return false
	})
	return found
}

// solve runs the conjunction depth-first; k is the success continuation.
// A false return aborts the entire search (user requested stop).
func (s *Solver) solve(goals []Goal, depth int, k func() bool) bool {
	if len(goals) == 0 {
		return k()
	}
	if depth > s.MaxDepth {
		s.depthExceeded = true
		return true
	}
	g := goals[0]
	rest := goals[1:]
	switch g.Kind {
	case GCall:
		return s.solveCall(g.Term, rest, depth, k)
	case GCon:
		mark := s.st.mark()
		if s.pushConstraint(g.Lhs, g.Op, g.Rhs) {
			if !s.solve(rest, depth, k) {
				return false
			}
		}
		s.st.undo(mark)
		return true
	case GNeg:
		if s.exists(g.Neg, depth+1) {
			return true // negated goal provable -> this branch fails
		}
		return s.solve(rest, depth, k)
	}
	return true
}

// exists checks provability of a conjunction without leaking bindings or
// constraints.
func (s *Solver) exists(goals []Goal, depth int) bool {
	mark := s.b.Mark()
	smark := s.st.mark()
	found := false
	s.solve(goals, depth, func() bool {
		found = true
		return false
	})
	s.b.Undo(mark)
	s.st.undo(smark)
	return found
}

func isComparison(op string) bool {
	switch op {
	case "<", "<=", ">", ">=", "=:=":
		return true
	}
	return false
}

func (s *Solver) solveCall(t Term, rest []Goal, depth int, k func() bool) bool {
	t = s.b.Walk(t)
	// Built-ins: unification and arithmetic comparisons written as
	// ordinary compounds.
	if t.Kind == KComp && len(t.Args) == 2 {
		switch {
		case t.Str == "=":
			mark := s.b.Mark()
			smark := s.st.mark()
			if s.unifyCLP(t.Args[0], t.Args[1]) {
				if !s.solve(rest, depth, k) {
					return false
				}
			}
			s.b.Undo(mark)
			s.st.undo(smark)
			return true
		case isComparison(t.Str):
			return s.solve(append([]Goal{Con(t.Args[0], t.Str, t.Args[1])}, rest...), depth, k)
		}
	}
	if t.Kind != KAtom && t.Kind != KComp {
		return true // unbound or numeric call: no clauses can match
	}
	// Fact-table fast path: a ground call against a predicate that is
	// nothing but ground facts is a hash lookup. The matching clauses are
	// exactly the facts equal to the call (verified by unification below,
	// so hash collisions stay sound), in assert order — identical
	// solutions, identical order, no scan.
	if bk := s.db.preds[t.Indicator()]; bk != nil && bk.factsOnly {
		if h, grnd := hashWalk(t, s.b); grnd {
			for _, c := range bk.ground[h] {
				mark := s.b.Mark()
				smark := s.st.mark()
				if s.unifyCLP(t, c.Head) {
					if !s.solve(rest, depth+1, k) {
						return false
					}
				}
				s.b.Undo(mark)
				s.st.undo(smark)
			}
			return true
		}
	}
	for _, c := range s.db.candidates(t, s.b) {
		mark := s.b.Mark()
		smark := s.st.mark()
		ren := map[int]Term{}
		head := rename(c.Head, ren)
		if s.unifyCLP(t, head) {
			var body []Goal
			if len(c.Body) > 0 {
				body = make([]Goal, 0, len(c.Body)+len(rest))
				for _, bg := range c.Body {
					body = append(body, renameGoal(bg, ren))
				}
				body = append(body, rest...)
			} else {
				body = rest
			}
			if !s.solve(body, depth+1, k) {
				return false
			}
		}
		s.b.Undo(mark)
		s.st.undo(smark)
	}
	return true
}

// unifyCLP unifies x and y and keeps the constraint store consistent with
// any numeric bindings the unification created: binding a store variable
// to a number (or aliasing it to another variable) adds the matching
// equality constraint; binding it to a symbolic term fails.
func (s *Solver) unifyCLP(x, y Term) bool {
	mark := s.b.Mark()
	if !s.b.Unify(x, y) {
		return false
	}
	added := s.st.mark()
	for _, ref := range s.b.trail[mark:] {
		if !s.st.has(ref) {
			continue
		}
		bound := s.b.Walk(Term{Kind: KVar, Ref: ref})
		var con Constraint
		switch bound.Kind {
		case KNum:
			con = Constraint{Expr: NewVarExpr(ref).Sub(NewConst(bound.Rat)), Op: OpEQ}
		case KVar:
			con = Constraint{Expr: NewVarExpr(ref).Sub(NewVarExpr(bound.Ref)), Op: OpEQ}
		default:
			s.st.undo(added)
			return false
		}
		s.st.push(con)
	}
	if s.st.mark() != added && !Satisfiable(s.st.cons) {
		s.st.undo(added)
		return false
	}
	return true
}

// pushConstraint converts both sides to linear expressions under the
// current bindings, pushes the constraint, and checks satisfiability.
// The store entry remains for the caller to undo on backtrack.
func (s *Solver) pushConstraint(lhs Term, op string, rhs Term) bool {
	if op == "=:=" {
		op = "="
	}
	le, ok := s.toLin(lhs)
	if !ok {
		return false
	}
	re, ok := s.toLin(rhs)
	if !ok {
		return false
	}
	c, err := NewConstraint(le, op, re)
	if err != nil {
		return false
	}
	s.st.push(c)
	return Satisfiable(s.st.cons)
}

// toLin converts a term to a linear expression: numbers, variables, and
// the arithmetic compounds +, - (unary and binary), * and / with a
// constant factor.
func (s *Solver) toLin(t Term) (LinExpr, bool) {
	t = s.b.Walk(t)
	switch t.Kind {
	case KNum:
		return NewConst(t.Rat), true
	case KVar:
		return NewVarExpr(t.Ref), true
	case KComp:
		switch {
		case t.Str == "+" && len(t.Args) == 2:
			a, ok := s.toLin(t.Args[0])
			if !ok {
				return LinExpr{}, false
			}
			b, ok := s.toLin(t.Args[1])
			if !ok {
				return LinExpr{}, false
			}
			return a.AddScaled(b, big.NewRat(1, 1)), true
		case t.Str == "-" && len(t.Args) == 2:
			a, ok := s.toLin(t.Args[0])
			if !ok {
				return LinExpr{}, false
			}
			b, ok := s.toLin(t.Args[1])
			if !ok {
				return LinExpr{}, false
			}
			return a.Sub(b), true
		case t.Str == "-" && len(t.Args) == 1:
			a, ok := s.toLin(t.Args[0])
			if !ok {
				return LinExpr{}, false
			}
			return NewConst(new(big.Rat)).Sub(a), true
		case t.Str == "*" && len(t.Args) == 2:
			a, ok := s.toLin(t.Args[0])
			if !ok {
				return LinExpr{}, false
			}
			b, ok := s.toLin(t.Args[1])
			if !ok {
				return LinExpr{}, false
			}
			switch {
			case a.IsConst():
				return b.AddScaled(b, new(big.Rat).Sub(a.Const, big.NewRat(1, 1))), true
			case b.IsConst():
				return a.AddScaled(a, new(big.Rat).Sub(b.Const, big.NewRat(1, 1))), true
			}
			return LinExpr{}, false // nonlinear
		case t.Str == "/" && len(t.Args) == 2:
			a, ok := s.toLin(t.Args[0])
			if !ok {
				return LinExpr{}, false
			}
			b, ok := s.toLin(t.Args[1])
			if !ok || !b.IsConst() || b.Const.Sign() == 0 {
				return LinExpr{}, false
			}
			inv := new(big.Rat).Inv(b.Const)
			return NewConst(new(big.Rat)).AddScaled(a, inv), true
		}
	}
	return LinExpr{}, false
}
