package nmsl

// The generated change-suite corpus (EXPERIMENTS.md E-RELA): every edit
// changeSuite (below) produces over a netsim internet is compiled,
// diffed against the base revision, and evaluated against the committed
// reference contract testdata/contracts/suite-guard.ncs. Each edit's
// violated-clause set must match its label exactly — edits labelled
// clean must pass, and edits labelled with clauses must violate exactly
// those clauses.

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nmsl/internal/changespec"
	"nmsl/internal/netsim"
)

// suiteParams sizes the suite's internet: 8 ring domains, 2 systems
// each, no injected inconsistencies (uniform poller frequencies).
var suiteParams = netsim.Params{Domains: 8, SystemsPerDomain: 2, Seed: 42}

func compileSource(t testing.TB, name, src string) *Specification {
	t.Helper()
	c := NewCompiler()
	if err := c.CompileSource(name, src); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	spec, err := c.Finish()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return spec
}

func TestChangeSuiteAgainstReferenceContract(t *testing.T) {
	data, err := os.ReadFile("testdata/contracts/suite-guard.ncs")
	if err != nil {
		t.Fatal(err)
	}
	contracts, err := ParseChangeContracts("suite-guard.ncs", string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(contracts) != 1 {
		t.Fatalf("got %d contracts, want 1", len(contracts))
	}
	guard := contracts[0]

	base, edits, err := changeSuite(suiteParams)
	if err != nil {
		t.Fatal(err)
	}
	baseSpec := compileSource(t, "base.nmsl", base)

	var pass, violate int
	for _, e := range edits {
		t.Run(e.Name, func(t *testing.T) {
			edited := compileSource(t, e.Name+".nmsl", e.Source)
			_, results := edited.VerifyChange(baseSpec, guard)
			if len(results) != 1 {
				t.Fatalf("got %d results", len(results))
			}
			r := results[0]

			// Collapse the violations to the set of distinct clauses.
			set := map[string]bool{}
			for _, v := range r.Violations {
				if v.Contract != guard.Name {
					t.Errorf("violation attributed to %q", v.Contract)
				}
				set[v.Clause] = true
			}
			var got []string
			for cl := range set {
				got = append(got, cl)
			}
			sort.Strings(got)
			want := append([]string(nil), e.MustViolate...)
			sort.Strings(want)
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("violated clauses %v, want %v\nviolations: %v", got, want, r.Violations)
			}
		})
		if len(e.MustViolate) == 0 {
			pass++
		} else {
			violate++
		}
	}
	t.Logf("suite: %d edits, %d must-pass, %d must-violate", len(edits), pass, violate)
	if pass == 0 || violate == 0 {
		t.Errorf("degenerate suite: pass=%d violate=%d", pass, violate)
	}
}

// The suite's base revision must itself be consistent — otherwise the
// must-pass edits would be rehearsing rollouts of a broken internet.
func TestChangeSuiteBaseConsistent(t *testing.T) {
	base, _, err := changeSuite(suiteParams)
	if err != nil {
		t.Fatal(err)
	}
	spec := compileSource(t, "base.nmsl", base)
	if rep := spec.Check(); !rep.Consistent() {
		t.Fatalf("base internet inconsistent: %v", rep.Violations[:min(len(rep.Violations), 3)])
	}
}

// Generated change suite: a corpus of specification edits over a
// netsim internet, each labelled with the contract clauses it must
// violate (empty = must pass) under the reference contract in
// testdata/contracts/suite-guard.ncs:
//
//	scope dom0, dom1; forbid widen-access; forbid relax-frequency;
//	max added instances 2;   max removed instances 0;
//	max added permissions 2; max removed permissions 0;
//
// The edits are produced by string surgery on the generator's exact
// output, and every substitution insists on a unique match — if the
// netsim templates drift, the suite fails loudly instead of silently
// testing nothing (see EXPERIMENTS.md E-RELA).

// suiteEdit is one suite entry: a full post-edit source and the clause
// slugs the reference contract must flag it with.
type suiteEdit struct {
	// Name identifies the edit in test output.
	Name string
	// Source is the complete post-edit specification text.
	Source string
	// MustViolate lists the clause slugs (Clause* constants) the
	// reference contract must report, sorted; empty means the edit must
	// satisfy the contract.
	MustViolate []string
}

// replace1 substitutes old with new, erroring unless old occurs
// exactly once — the drift tripwire for the whole suite.
func replace1(src, old, new string) (string, error) {
	switch n := strings.Count(src, old); n {
	case 1:
		return strings.Replace(src, old, new, 1), nil
	default:
		return "", fmt.Errorf("changespec: suite anchor occurs %d times (netsim templates drifted?): %q", n, old)
	}
}

// agentExport is the agent process block's head through its export
// clause — unique per domain because it embeds the process name.
func agentExport(d int) string {
	return fmt.Sprintf(`process agentT%d ::=
    supports mgmt.mib.system, mgmt.mib.ip;
    exports mgmt.mib.system to "public"
        access ReadOnly
        frequency >= 5 minutes;`, d)
}

// pollerQuery is the poller's query clause, unique per peer (every
// domain's poller targets a distinct agent type on the ring).
func pollerQuery(peer int) string {
	return fmt.Sprintf(`queries agentT%d
        requests mgmt.mib.system.sysDescr
        frequency >= 5 minutes;`, peer)
}

// systemBlock is one member system's declaration, with the surrounding
// blank line the generator emits.
func systemBlock(d, s int) string {
	return fmt.Sprintf(`
system "sys-%d-%d" ::=
    cpu sparc;
    interface ie0 net lan-%d type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib.system, mgmt.mib.ip;
    process agentT%d;
end system "sys-%d-%d".
`, d, s, d, d, d, s)
}

// addSystem declares a new system in domain d and adds it to the
// domain's membership.
func addSystem(src string, d, s int) (string, error) {
	src, err := replace1(src, fmt.Sprintf("\ndomain dom%d ::=\n", d),
		systemBlock(d, s)+fmt.Sprintf("\ndomain dom%d ::=\n    system \"sys-%d-%d\";\n", d, d, s))
	if err != nil {
		return "", err
	}
	return src, nil
}

// removeSystem deletes system s of domain d and its membership line.
func removeSystem(src string, d, s int) (string, error) {
	src, err := replace1(src, systemBlock(d, s), "\n")
	if err != nil {
		return "", err
	}
	return replace1(src, fmt.Sprintf("    system \"sys-%d-%d\";\n", d, s), "")
}

// changeSuite generates the change corpus over the internet sized by p
// (p.InconsistencyRate should be zero so poller frequencies are
// uniform). It returns the unedited base source and the labelled
// edits. p.Domains must be at least 3 so the out-of-scope edits have
// somewhere to land.
func changeSuite(p netsim.Params) (string, []suiteEdit, error) {
	if p.Domains < 3 {
		return "", nil, fmt.Errorf("changespec: suite needs at least 3 domains, got %d", p.Domains)
	}
	base := netsim.Source(p)

	var edits []suiteEdit
	add := func(name string, mustViolate []string, build func(string) (string, error)) error {
		src, err := build(base)
		if err != nil {
			return fmt.Errorf("edit %s: %w", name, err)
		}
		edits = append(edits, suiteEdit{Name: name, Source: src, MustViolate: mustViolate})
		return nil
	}

	steps := []struct {
		name        string
		mustViolate []string
		build       func(string) (string, error)
	}{
		// A formatting-only change produces an empty delta: nothing to
		// gate.
		{"noop-comment", nil, func(s string) (string, error) {
			return s + "\n-- suite: formatting-only change\n", nil
		}},
		// Slowing a poller inside the scoped domains is the intended
		// kind of edit.
		{"retune-poller-in-scope", nil, func(s string) (string, error) {
			return replace1(s, pollerQuery(1),
				strings.Replace(pollerQuery(1), ">= 5 minutes", ">= 10 minutes", 1))
		}},
		// The same retune in the last ring domain escapes the scope.
		{"retune-poller-out-of-scope", []string{changespec.ClauseScope}, func(s string) (string, error) {
			peer := 0 // the last domain's poller targets agentT0
			return replace1(s, pollerQuery(peer),
				strings.Replace(pollerQuery(peer), ">= 5 minutes", ">= 10 minutes", 1))
		}},
		// ReadOnly -> Any on a matched grant slot is widening.
		{"widen-access", []string{changespec.ClauseWidenAccess}, func(s string) (string, error) {
			return replace1(s, agentExport(0),
				strings.Replace(agentExport(0), "access ReadOnly", "access Any", 1))
		}},
		// Lowering an export's minimum period relaxes its bound.
		{"relax-export-frequency", []string{changespec.ClauseRelaxFrequency}, func(s string) (string, error) {
			return replace1(s, agentExport(0),
				strings.Replace(agentExport(0), "frequency >= 5 minutes", "frequency >= 1 minutes", 1))
		}},
		// Raising the period tightens the grant: contract-clean even
		// though it makes the internet inconsistent (peers still poll at
		// 5 minutes) — contracts bound the edit, the checker judges the
		// result.
		{"tighten-export-frequency", nil, func(s string) (string, error) {
			return replace1(s, agentExport(1),
				strings.Replace(agentExport(1), "frequency >= 5 minutes", "frequency >= 10 minutes", 1))
		}},
		// One new system: one new agent instance, one replicated export
		// — inside every bound, and replication is not widening.
		{"add-system", nil, func(s string) (string, error) {
			return addSystem(s, 0, 9)
		}},
		// Three new systems blow both added-* budgets.
		{"add-many-systems", []string{changespec.ClauseMaxAddedInstances, changespec.ClauseMaxAddedPerms}, func(s string) (string, error) {
			var err error
			for _, n := range []int{9, 10, 11} {
				if s, err = addSystem(s, 0, n); err != nil {
					return "", err
				}
			}
			return s, nil
		}},
		// Removing a system destroys an instance and its grant; the
		// contract allows removing neither.
		{"remove-system", []string{changespec.ClauseMaxRemovedInsts, changespec.ClauseMaxRemovedPerms}, func(s string) (string, error) {
			return removeSystem(s, 0, 1)
		}},
		// A new domain-level export has no covering pre-edit grant from
		// that declaration site: widening, even though it is in scope and
		// within the added-permissions budget.
		{"widen-domain-export", []string{changespec.ClauseWidenAccess}, func(s string) (string, error) {
			return replace1(s, "\ndomain dom1 ::=\n",
				"\ndomain dom1 ::=\n    exports mgmt.mib.ip to \"public\" access ReadOnly frequency >= 5 minutes;\n")
		}},
		// A type declaration extends the MIB name tree: the delta goes
		// full, and no finite scope covers a whole-model edit.
		{"add-mib-type", []string{changespec.ClauseScope}, func(s string) (string, error) {
			return s + `
type suiteExtra ::=
    OCTET STRING;
    access ReadOnly;
end type suiteExtra.
`, nil
		}},
		// A new poller application in a scoped domain: one instance, no
		// new grants. Appended after the existing poller — instance IDs
		// are positional within a domain's process list, so prepending
		// would rename pollerT0's instance (a remove + add).
		{"add-poller-app", nil, func(s string) (string, error) {
			s += `
process suitePoller ::=
    queries agentT1
        requests mgmt.mib.system.sysDescr
        frequency >= 5 minutes;
end process suitePoller.
`
			return replace1(s, "end domain dom0.\n", "    process suitePoller;\nend domain dom0.\n")
		}},
	}
	for _, st := range steps {
		if err := add(st.name, st.mustViolate, st.build); err != nil {
			return "", nil, err
		}
	}
	return base, edits, nil
}
