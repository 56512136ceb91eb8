package consistency

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nmsl/internal/logic"
	"nmsl/internal/mib"
)

// randomNestedSpec draws a random containment hierarchy over n
// domains: subdomain edges only point from lower to higher numbers
// (sema rejects cycles), so nesting is a random DAG with diamonds; each
// system is listed by zero to two domains, runs an agent, and some
// domains host a poller of their own.
func randomNestedSpec(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(`process agent ::= supports mgmt.mib; end process agent.
process poller ::= queries agent requests mgmt.mib.system frequency >= 1 minutes; end process poller.
`)
	members := make([][]string, n)
	for s := range 1 + rng.Intn(n) {
		fmt.Fprintf(&b, "system \"h%d\" ::= cpu sparc; interface ie0 net lab type ethernet-csmacd speed 10000000 bps; supports mgmt.mib; process agent; end system \"h%d\".\n", s, s)
		for k := rng.Intn(3); k > 0; k-- {
			d := rng.Intn(n)
			if m := fmt.Sprintf("system h%d;", s); !slices.Contains(members[d], m) {
				members[d] = append(members[d], m)
			}
		}
	}
	for d := n - 1; d >= 0; d-- {
		for e := d + 1; e < n; e++ {
			if rng.Intn(3) == 0 {
				members[d] = append(members[d], fmt.Sprintf("domain d%d;", e))
			}
		}
		if rng.Intn(3) == 0 {
			members[d] = append(members[d], "process poller;")
		}
		fmt.Fprintf(&b, "domain d%d ::= %s end domain d%d.\n", d, strings.Join(members[d], " "), d)
	}
	return b.String()
}

// containedBy returns, sorted and once each, every X for which
// pred(X, party) is provable in db (the recursive rules prove a
// container once per path to it).
func containedBy(db *logic.DB, pred, party string) []string {
	X := logic.NewVar("X")
	var out []string
	logic.NewSolver(db).Solve([]logic.Goal{logic.Call(logic.Comp(pred, X, logic.Atom(party)))},
		func(sol *logic.Solution) bool {
			out = append(out, sol.Resolve(X).Str)
			return true
		})
	slices.Sort(out)
	return slices.Compact(out)
}

// modelParties lists every party a containment question can name: the
// domains, the systems and the instances.
func modelParties(m *Model) []string {
	parties := append(slices.Clone(m.Spec.DomainNames()), m.Spec.SystemNames()...)
	for _, in := range m.Instances {
		parties = append(parties, in.ID)
	}
	return parties
}

// TestTransitiveClosureRandom holds the model's one containment
// relation, the transitive closure the containment columns hold, to a
// plain depth-first walk up the subdomain and membership edges, on
// random nested hierarchies.
func TestTransitiveClosureRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := buildModel(t, randomNestedSpec(rng, 2+rng.Intn(12)))
		parents := map[string][]string{}
		for name, d := range m.Spec.Domains {
			for _, sub := range d.Subdomains {
				parents[sub] = append(parents[sub], name)
			}
			for _, sys := range d.Systems {
				parents[sys] = append(parents[sys], name)
			}
		}
		above := func(x string) map[string]bool {
			seen := map[string]bool{}
			stack := slices.Clone(parents[x])
			for len(stack) > 0 {
				y := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !seen[y] {
					seen[y] = true
					stack = append(stack, parents[y]...)
				}
			}
			return seen
		}
		for _, inner := range m.Spec.DomainNames() {
			up := above(inner)
			for _, outer := range m.Spec.DomainNames() {
				if got := m.DomainContains(outer, inner); got != (up[outer] || outer == inner) {
					t.Fatalf("trial %d: DomainContains(%s, %s) = %v", trial, outer, inner, got)
				}
			}
		}
		for _, in := range m.Instances {
			up := above(in.System)
			if in.Domain != "" {
				up = above(in.Domain)
				up[in.Domain] = true
			}
			var want []string
			for d := range up {
				want = append(want, d)
			}
			slices.Sort(want)
			if got := m.PartyDomains(in.ID); !slices.Equal(got, want) {
				t.Fatalf("trial %d: PartyDomains(%s) = %v, want %v", trial, in.ID, got, want)
			}
		}
	}
}

// TestMaterializedContainmentMatchesRecursiveEngine is the property test
// of the materialized containment tables: on random nested hierarchies
// (diamonds, systems in several domains or none, domain-hosted
// instances), the contains_tr/covers facts BuildDB reads from the
// containment columns prove, for every party, exactly the containers
// the recursive rules of BuildDBRecursive prove.
func TestMaterializedContainmentMatchesRecursiveEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		m := buildModel(t, randomNestedSpec(rng, 2+rng.Intn(8)))
		mat, rec := BuildDB(m), BuildDBRecursive(m)
		for _, p := range modelParties(m) {
			for _, pred := range []string{"contains_tr", "covers"} {
				got, want := containedBy(mat, pred, p), containedBy(rec, pred, p)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: %s(X, %s): materialized %v, recursive %v", trial, pred, p, got, want)
				}
			}
		}
	}
}

// TestMaterializedDataCoversMatchesRecursiveEngine checks the MIB
// covering closure on random trees: the materialized (ancestor-or-self,
// node) facts prove exactly what the recursive mib_contains walk proves.
func TestMaterializedDataCoversMatchesRecursiveEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		tree := mib.NewEmpty()
		root, err := tree.RegisterRoot("root", mib.OID{1})
		if err != nil {
			t.Fatal(err)
		}
		nodes := []*mib.Node{root}
		for i := 0; i < 5+rng.Intn(20); i++ {
			parent := nodes[rng.Intn(len(nodes))]
			n, err := tree.Register(fmt.Sprintf("%s.v%d", parent.Path(), i))
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}

		rec := logic.NewDB()
		mat := logic.NewDB()
		for _, db := range []*logic.DB{rec, mat} {
			for _, r := range tree.Roots() {
				var walk func(n *mib.Node)
				walk = func(n *mib.Node) {
					for _, c := range n.Children() {
						db.Assert(logic.Comp("mib_contains", logic.Atom(n.Path()), logic.Atom(c.Path())))
						walk(c)
					}
				}
				walk(r)
			}
		}
		V := logic.NewVar("V")
		rec.Assert(logic.Comp("data_covers", V, V))
		X, Y, Z := logic.NewVar("X"), logic.NewVar("Y"), logic.NewVar("Z")
		rec.Assert(logic.Comp("data_covers", X, Y),
			logic.Call(logic.Comp("mib_contains", X, Z)),
			logic.Call(logic.Comp("data_covers", Z, Y)))
		for _, r := range tree.Roots() {
			var walk func(n *mib.Node, anc []logic.Term)
			walk = func(n *mib.Node, anc []logic.Term) {
				self := logic.Atom(n.Path())
				anc = append(anc, self)
				for _, a := range anc {
					mat.Assert(logic.Comp("data_covers", a, self))
				}
				for _, c := range n.Children() {
					walk(c, anc)
				}
			}
			walk(r, nil)
		}

		rs, ms := logic.NewSolver(rec), logic.NewSolver(mat)
		for _, a := range nodes {
			for _, b := range nodes {
				g := logic.Call(logic.Comp("data_covers", logic.Atom(a.Path()), logic.Atom(b.Path())))
				rg, mg := rs.Prove(g), ms.Prove(g)
				if rg != mg {
					t.Fatalf("trial %d: data_covers(%s, %s): recursive %v, materialized %v",
						trial, a.Path(), b.Path(), rg, mg)
				}
				if rg != a.Contains(b) {
					t.Fatalf("trial %d: data_covers(%s, %s) = %v disagrees with Node.Contains",
						trial, a.Path(), b.Path(), rg)
				}
			}
		}
	}
}
