package logic

import (
	"fmt"
	"math/big"
	"strings"
	"testing"
)

// family returns a small ancestry database for resolution tests.
func family() *DB {
	db := NewDB()
	parent := func(a, b string) { db.Assert(Comp("parent", Atom(a), Atom(b))) }
	parent("tom", "bob")
	parent("tom", "liz")
	parent("bob", "ann")
	parent("bob", "pat")
	parent("pat", "jim")
	X, Y, Z := NewVar("X"), NewVar("Y"), NewVar("Z")
	// ancestor(X,Y) :- parent(X,Y).
	db.Assert(Comp("ancestor", X, Y), Call(Comp("parent", X, Y)))
	// ancestor(X,Y) :- parent(X,Z), ancestor(Z,Y).
	X2, Y2, Z2 := NewVar("X"), NewVar("Y"), NewVar("Z")
	db.Assert(Comp("ancestor", X2, Y2), Call(Comp("parent", X2, Z2)), Call(Comp("ancestor", Z2, Y2)))
	_ = Z
	return db
}

func solutionsOf(db *DB, goal Term, v Term) []string {
	s := NewSolver(db)
	var out []string
	s.Solve([]Goal{Call(goal)}, func(sol *Solution) bool {
		out = append(out, sol.Resolve(v).String())
		return true
	})
	return out
}

func TestFactQuery(t *testing.T) {
	db := family()
	X := NewVar("X")
	got := solutionsOf(db, Comp("parent", Atom("tom"), X), X)
	if len(got) != 2 || got[0] != "bob" || got[1] != "liz" {
		t.Fatalf("got %v", got)
	}
}

func TestGroundQuery(t *testing.T) {
	s := NewSolver(family())
	if !s.Prove(Call(Comp("parent", Atom("bob"), Atom("ann")))) {
		t.Error("parent(bob,ann) should hold")
	}
	if s.Prove(Call(Comp("parent", Atom("ann"), Atom("bob")))) {
		t.Error("parent(ann,bob) should not hold")
	}
	if s.Prove(Call(Comp("parent", Atom("nobody"), Atom("ann")))) {
		t.Error("unknown atom should not prove")
	}
}

func TestRecursiveRule(t *testing.T) {
	db := family()
	X := NewVar("X")
	got := solutionsOf(db, Comp("ancestor", Atom("tom"), X), X)
	want := map[string]bool{"bob": true, "liz": true, "ann": true, "pat": true, "jim": true}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Errorf("unexpected ancestor %s", g)
		}
	}
}

func TestUnificationBuiltin(t *testing.T) {
	db := NewDB()
	s := NewSolver(db)
	X := NewVar("X")
	if !s.Prove(Call(Comp("=", X, Atom("hello")))) {
		t.Error("X = hello should prove")
	}
	if s.Prove(Call(Comp("=", Atom("a"), Atom("b")))) {
		t.Error("a = b should fail")
	}
	// compound unification
	if !s.Prove(Call(Comp("=", Comp("f", X, Atom("b")), Comp("f", Atom("a"), Atom("b"))))) {
		t.Error("f(X,b) = f(a,b) should prove")
	}
}

func TestOccursCheck(t *testing.T) {
	s := NewSolver(NewDB())
	X := NewVar("X")
	if s.Prove(Call(Comp("=", X, Comp("f", X)))) {
		t.Error("X = f(X) must fail under the occurs check")
	}
}

func TestNegationAsFailure(t *testing.T) {
	db := family()
	s := NewSolver(db)
	// jim has no children: \+ parent(jim, _)
	Y := NewVar("Y")
	if !s.Prove(Not(Call(Comp("parent", Atom("jim"), Y)))) {
		t.Error("\\+ parent(jim,_) should prove (closed world)")
	}
	Y2 := NewVar("Y")
	if s.Prove(Not(Call(Comp("parent", Atom("tom"), Y2)))) {
		t.Error("\\+ parent(tom,_) should fail")
	}
}

func TestNegationDoesNotLeakBindings(t *testing.T) {
	db := family()
	s := NewSolver(db)
	X := NewVar("X")
	// after a failed negation attempt, X must still bind freely
	found := ""
	s.Solve([]Goal{
		Not(Call(Comp("parent", Atom("jim"), X))),
		Call(Comp("=", X, Atom("free"))),
	}, func(sol *Solution) bool {
		found = sol.Resolve(X).String()
		return false
	})
	if found != "free" {
		t.Fatalf("X = %q", found)
	}
}

func TestConstraintGoal(t *testing.T) {
	db := NewDB()
	// cheap(X) :- X < 10.
	X := NewVar("X")
	db.Assert(Comp("cheap", X), Con(X, "<", Int(10)))
	s := NewSolver(db)
	if !s.Prove(Call(Comp("cheap", Int(5)))) {
		t.Error("cheap(5) should prove")
	}
	if s.Prove(Call(Comp("cheap", Int(15)))) {
		t.Error("cheap(15) should fail")
	}
	// Unbound: constraint retained, satisfiable.
	Y := NewVar("Y")
	sol := s.Once(Call(Comp("cheap", Y)))
	if sol == nil {
		t.Fatal("cheap(Y) should prove with residual constraint")
	}
	iv := sol.Interval(Y)
	if iv.Hi == nil || iv.Hi.Cmp(big.NewRat(10, 1)) != 0 || !iv.HiStrict {
		t.Errorf("interval %v", iv)
	}
}

func TestConstraintThenBindingConflict(t *testing.T) {
	// X >= 5 recorded, then unification binds X to 3: must fail.
	db := NewDB()
	X := NewVar("X")
	db.Assert(Comp("big", X), Con(X, ">=", Int(5)))
	s := NewSolver(db)
	Y := NewVar("Y")
	if s.Prove(Call(Comp("big", Y)), Call(Comp("=", Y, Int(3)))) {
		t.Error("big(Y), Y=3 should fail")
	}
	if !s.Prove(Call(Comp("big", Y)), Call(Comp("=", Y, Int(7)))) {
		t.Error("big(Y), Y=7 should prove")
	}
}

func TestConstraintVarAliasing(t *testing.T) {
	// X >= 5, X = Y, Y <= 4 must fail; Y <= 5 must prove.
	s := NewSolver(NewDB())
	X, Y := NewVar("X"), NewVar("Y")
	if s.Prove(Con(X, ">=", Int(5)), Call(Comp("=", X, Y)), Con(Y, "<=", Int(4))) {
		t.Error("aliased conflicting constraints should fail")
	}
	X2, Y2 := NewVar("X"), NewVar("Y")
	if !s.Prove(Con(X2, ">=", Int(5)), Call(Comp("=", X2, Y2)), Con(Y2, "<=", Int(5))) {
		t.Error("aliased compatible constraints should prove")
	}
}

func TestConstraintBindingToAtomFails(t *testing.T) {
	s := NewSolver(NewDB())
	X := NewVar("X")
	if s.Prove(Con(X, ">=", Int(5)), Call(Comp("=", X, Atom("a")))) {
		t.Error("binding a numeric store variable to an atom must fail")
	}
}

func TestComparisonAsCall(t *testing.T) {
	s := NewSolver(NewDB())
	if !s.Prove(Call(Comp("<", Int(1), Int(2)))) {
		t.Error("1 < 2 as a call should prove")
	}
	if s.Prove(Call(Comp(">=", Int(1), Int(2)))) {
		t.Error("1 >= 2 should fail")
	}
}

func TestArithmeticExpressions(t *testing.T) {
	s := NewSolver(NewDB())
	X := NewVar("X")
	// X = 2*3 + 4  via constraint  X =:= 2*3+4
	expr := Comp("+", Comp("*", Int(2), Int(3)), Int(4))
	sol := s.Once(Con(X, "=:=", expr))
	if sol == nil {
		t.Fatal("no solution")
	}
	iv := sol.Interval(X)
	if iv.Lo == nil || iv.Lo.Cmp(big.NewRat(10, 1)) != 0 || iv.Hi.Cmp(big.NewRat(10, 1)) != 0 {
		t.Errorf("interval %v", iv)
	}
	// division
	Y := NewVar("Y")
	sol = s.Once(Con(Y, "=", Comp("/", Int(7), Int(2))))
	if sol == nil {
		t.Fatal("no solution for division")
	}
	if iv := sol.Interval(Y); iv.Lo.Cmp(big.NewRat(7, 2)) != 0 {
		t.Errorf("interval %v", iv)
	}
	// nonlinear multiplication fails
	A, B := NewVar("A"), NewVar("B")
	if s.Prove(Con(Comp("*", A, B), "=", Int(6))) {
		t.Error("nonlinear constraint should fail conversion")
	}
	// division by zero fails
	if s.Prove(Con(X, "=", Comp("/", Int(1), Int(0)))) {
		t.Error("division by zero should fail")
	}
}

func TestUnaryMinus(t *testing.T) {
	s := NewSolver(NewDB())
	X := NewVar("X")
	sol := s.Once(Con(X, "=", Comp("-", Int(4))))
	if sol == nil {
		t.Fatal("no solution")
	}
	if iv := sol.Interval(X); iv.Lo.Cmp(big.NewRat(-4, 1)) != 0 {
		t.Errorf("interval %v", iv)
	}
}

func TestSolveStopEarly(t *testing.T) {
	db := family()
	s := NewSolver(db)
	X := NewVar("X")
	count := 0
	s.Solve([]Goal{Call(Comp("parent", Atom("tom"), X))}, func(sol *Solution) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("yield called %d times", count)
	}
}

func TestDepthLimit(t *testing.T) {
	db := NewDB()
	// loop :- loop.
	db.Assert(Atom("loop"), Call(Atom("loop")))
	s := NewSolver(db)
	s.MaxDepth = 100
	if s.Prove(Call(Atom("loop"))) {
		t.Error("loop should not prove")
	}
	if !s.DepthExceeded() {
		t.Error("depth limit should have been hit")
	}
	// a normal query resets the flag
	if s.Prove(Call(Atom("nothing"))) {
		t.Error("unknown atom proves?")
	}
	if s.DepthExceeded() {
		t.Error("flag should reset per Solve")
	}
}

// TestFirstArgIndexingEquivalence holds the first-argument index to a
// brute-force scan: for every call, the indexed candidates are exactly
// the clauses of the predicate whose head unifies with it, facts first.
func TestFirstArgIndexingEquivalence(t *testing.T) {
	db := NewDB()
	for i := 0; i < 50; i++ {
		db.Assert(Comp("edge", Atom(fmt.Sprintf("n%d", i)), Atom(fmt.Sprintf("n%d", i+1))))
	}
	X, Y := NewVar("X"), NewVar("Y")
	db.Assert(Comp("edge", X, Y), Call(Comp("link", X, Y)))
	for _, goal := range []Term{
		Comp("edge", Atom("n25"), NewVar("Z")),
		Comp("edge", NewVar("A"), Atom("n7")),
		Comp("edge", Atom("nowhere"), NewVar("Z")),
	} {
		var want []*Clause
		for _, c := range db.order {
			b := NewBindings()
			if c.Head.Indicator() == goal.Indicator() && b.Unify(goal, rename(c.Head, map[int]Term{})) {
				want = append(want, c)
			}
		}
		var got []*Clause
		b := NewBindings()
		for _, c := range db.candidates(goal, b) {
			if b.Unify(goal, rename(c.Head, map[int]Term{})) {
				got = append(got, c)
			}
			b.Undo(0)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d indexed matches, scan finds %d", goal, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: match %d is %s, scan has %s", goal, i, got[i], want[i])
			}
		}
	}
	got := solutionsOf(db, Comp("edge", Atom("n25"), X), X)
	if len(got) != 1 || got[0] != "n26" {
		t.Fatalf("edge(n25, X) = %v", got)
	}
}

func TestIndexingWithVarFirstArgRule(t *testing.T) {
	db := NewDB()
	db.Assert(Comp("p", Atom("a"), Int(1)))
	X, Y := NewVar("X"), NewVar("Y")
	// p(X, Y) :- q(X, Y).  (mixed clause must be reachable for atom calls)
	db.Assert(Comp("p", X, Y), Call(Comp("q", X, Y)))
	db.Assert(Comp("q", Atom("a"), Int(2)))
	V := NewVar("V")
	got := solutionsOf(db, Comp("p", Atom("a"), V), V)
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("got %v", got)
	}
}

func TestOnceSnapshot(t *testing.T) {
	db := family()
	s := NewSolver(db)
	X := NewVar("X")
	sol := s.Once(Call(Comp("parent", Atom("tom"), X)))
	if sol == nil {
		t.Fatal("no solution")
	}
	// run another query; the snapshot must remain valid
	s.Prove(Call(Comp("parent", Atom("bob"), NewVar("Y"))))
	if got := sol.Resolve(X).String(); got != "bob" {
		t.Fatalf("snapshot resolved to %q", got)
	}
}

func TestClauseAndGoalString(t *testing.T) {
	X := NewVar("X")
	c := &Clause{Head: Comp("p", X), Body: []Goal{Call(Comp("q", X)), Con(X, "<", Int(5))}}
	s := c.String()
	if s == "" || s[len(s)-1] != '.' {
		t.Errorf("clause string %q", s)
	}
	n := Not(Call(Atom("a")), Call(Atom("b")))
	if n.String() != "\\+ (a, b)" {
		t.Errorf("neg string %q", n.String())
	}
}

// TestDBWrite: the program text lists the clauses in assertion order,
// numbers each clause's variables from 1 whatever the process-wide
// counter stands at, and declares a called but undefined predicate.
func TestDBWrite(t *testing.T) {
	db := NewDB()
	X, Y, Z := NewVar("X"), NewVar("Y"), NewVar("Z")
	db.Assert(Comp("anc", X, Y), Call(Comp("parent", X, Y)))
	db.Assert(Comp("parent", Atom("tom"), Atom("bob")))
	db.Assert(Comp("anc", X, Z), Call(Comp("parent", X, Y)), Call(Comp("anc", Y, Z)),
		Not(Call(Comp("adopted", Z))), Con(Z, ">", Int(0)))
	var b strings.Builder
	if err := db.Write(&b); err != nil {
		t.Fatal(err)
	}
	want := `:- dynamic adopted/1.
anc(_X1,_Y2) :- parent(_X1,_Y2).
parent(tom,bob).
anc(_X1,_Z2) :- parent(_X1,_Y3), anc(_Y3,_Z2), \+ (adopted(_Z2)), _Z2 > 0.
`
	if b.String() != want {
		t.Fatalf("program:\n%s\nwant:\n%s", b.String(), want)
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3", db.Len())
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		t    Term
		want string
	}{
		{Atom("abc"), "abc"},
		{Atom("wisc-cs"), "'wisc-cs'"},
		{Atom(""), "''"},
		{Int(42), "42"},
		{Rat(big.NewRat(1, 3)), "1/3"},
		{Comp("f", Atom("a"), Int(1)), "f(a,1)"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.t.Kind, got, c.want)
		}
	}
}

func TestVars(t *testing.T) {
	X, Y := NewVar("X"), NewVar("Y")
	vs := Vars(Comp("f", X, Comp("g", Y, X)))
	if len(vs) != 2 {
		t.Fatalf("vars %v", vs)
	}
}

func TestFloatTermExact(t *testing.T) {
	// Float(300) must equal Int(300) under unification.
	s := NewSolver(NewDB())
	if !s.Prove(Call(Comp("=", Float(300), Int(300)))) {
		t.Error("Float(300) != Int(300)")
	}
}

func TestNestedNegation(t *testing.T) {
	db := NewDB()
	db.Assert(Comp("bird", Atom("tweety")))
	db.Assert(Comp("bird", Atom("pingu")))
	db.Assert(Comp("penguin", Atom("pingu")))
	// flies(X) :- bird(X), \+ penguin(X).
	X := NewVar("X")
	db.Assert(Comp("flies", X),
		Call(Comp("bird", X)), Not(Call(Comp("penguin", X))))
	// grounded(X) :- \+ flies(X).  (double negation through rules)
	Y := NewVar("Y")
	db.Assert(Comp("grounded", Y), Call(Comp("bird", Y)), Not(Call(Comp("flies", Y))))
	s := NewSolver(db)
	if !s.Prove(Call(Comp("flies", Atom("tweety")))) {
		t.Error("tweety should fly")
	}
	if s.Prove(Call(Comp("flies", Atom("pingu")))) {
		t.Error("pingu should not fly")
	}
	if !s.Prove(Call(Comp("grounded", Atom("pingu")))) {
		t.Error("pingu should be grounded")
	}
	if s.Prove(Call(Comp("grounded", Atom("tweety")))) {
		t.Error("tweety should not be grounded")
	}
}

func TestNegationWithConstraintsInside(t *testing.T) {
	// ok(T, PT) :- \+ (P >= T, P < PT): the frequency-implication idiom
	// the consistency rules use — satisfiable inner constraints mean the
	// implication FAILS.
	s := NewSolver(NewDB())
	P := NewVar("P")
	// T=300, PT=300: no P with P>=300 and P<300 -> implication holds
	if !s.Prove(Not(Con(P, ">=", Int(300)), Con(P, "<", Int(300)))) {
		t.Error("300 >= 300 implication should hold")
	}
	P2 := NewVar("P")
	// T=60, PT=300: P=100 violates -> implication fails
	if s.Prove(Not(Con(P2, ">=", Int(60)), Con(P2, "<", Int(300)))) {
		t.Error("60 vs 300 implication should fail")
	}
}

func TestNegationConstraintsDoNotLeak(t *testing.T) {
	s := NewSolver(NewDB())
	X := NewVar("X")
	// after a failed negation, the store must be clean so X can still be
	// bound below the inner bound
	sol := s.Once(
		Not(Con(X, ">=", Int(100))), // fails (X unconstrained: satisfiable inside)
	)
	if sol != nil {
		t.Fatal("negation over satisfiable constraint should fail")
	}
	// and a successful negation leaves no residue
	Y := NewVar("Y")
	sol = s.Once(
		Con(Y, "<", Int(10)),
		Not(Con(Y, ">=", Int(10))),
		Call(Comp("=", Y, Int(5))),
	)
	if sol == nil {
		t.Fatal("should prove with Y=5")
	}
}

func TestMultipleSolutionsWithDistinctConstraints(t *testing.T) {
	db := NewDB()
	T := NewVar("T")
	db.Assert(Comp("limit", T), Con(T, ">=", Int(100)))
	T2 := NewVar("T")
	db.Assert(Comp("limit", T2), Con(T2, ">=", Int(300)))
	s := NewSolver(db)
	Q := NewVar("Q")
	var lows []string
	s.Solve([]Goal{Call(Comp("limit", Q))}, func(sol *Solution) bool {
		iv := sol.Interval(Q)
		lows = append(lows, iv.Lo.RatString())
		return true
	})
	if len(lows) != 2 || lows[0] != "100" || lows[1] != "300" {
		t.Fatalf("lows: %v", lows)
	}
}

func TestDBLen(t *testing.T) {
	db := NewDB()
	if db.Len() != 0 {
		t.Fatal("fresh DB non-empty")
	}
	db.Assert(Atom("a"))
	db.Assert(Comp("b", Atom("x")))
	if db.Len() != 2 {
		t.Fatalf("len %d", db.Len())
	}
}

func TestSolutionIntervalOfAtomIsEmpty(t *testing.T) {
	s := NewSolver(NewDB())
	X := NewVar("X")
	sol := s.Once(Call(Comp("=", X, Atom("notanumber"))))
	if sol == nil {
		t.Fatal("no solution")
	}
	if iv := sol.Interval(X); !iv.Empty {
		t.Fatalf("interval %v", iv)
	}
}

func TestConstraintsSnapshot(t *testing.T) {
	s := NewSolver(NewDB())
	X := NewVar("X")
	sol := s.Once(Con(X, ">=", Int(5)))
	if sol == nil {
		t.Fatal("no solution")
	}
	cons := sol.Constraints()
	if len(cons) != 1 {
		t.Fatalf("constraints: %v", cons)
	}
}
