package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nmsl/internal/changespec"
)

// editKind is one kind of single-declaration edit an operator makes to
// a resident specification.
type editKind int

const (
	// editSlow retunes a consistent poller from 5 to 10 minutes: the
	// common, harmless edit.
	editSlow editKind = iota
	// editSpeed makes a poller query every minute, faster than its peer
	// agents permit: the edit adds violations.
	editSpeed
	// editRestore puts an every-minute poller back to 5 minutes: the
	// edit removes violations.
	editRestore
	// editAddSystem declares a new system in a domain: the model grows
	// by one agent instance and one permission.
	editAddSystem
)

func (k editKind) String() string {
	return [...]string{"slow", "speed", "restore", "add-system"}[k]
}

// edit is one step of the edit stream.
type edit struct {
	kind   editKind
	domain int
}

// editStream draws the seeded edit stream for a specification with the
// given poller periods. It keeps the number of inconsistent pollers
// between 0 and twice the starting number, so the checker's work per
// edit stays level over a long stream.
func editStream(minutes []int, n int, rng *rand.Rand) []edit {
	state := append([]int(nil), minutes...)
	bad := 0
	for _, m := range state {
		if m < 5 {
			bad++
		}
	}
	ceiling := 2 * bad
	if ceiling < 2 {
		ceiling = 2
	}
	// pick returns a seeded domain whose poller period satisfies ok.
	pick := func(ok func(int) bool) (int, bool) {
		start := rng.Intn(len(state))
		for i := range state {
			if d := (start + i) % len(state); ok(state[d]) {
				return d, true
			}
		}
		return 0, false
	}
	out := make([]edit, 0, n)
	for len(out) < n {
		var e edit
		var ok bool
		switch x := rng.Intn(10); {
		case x < 3:
			e.kind = editSlow
			if e.domain, ok = pick(func(m int) bool { return m == 5 }); ok {
				state[e.domain] = 10
			}
		case x < 8:
			if bad > 0 && (bad >= ceiling || rng.Intn(2) == 0) {
				e.kind = editRestore
				if e.domain, ok = pick(func(m int) bool { return m < 5 }); ok {
					state[e.domain] = 5
					bad--
				}
			} else {
				e.kind = editSpeed
				if e.domain, ok = pick(func(m int) bool { return m >= 5 }); ok {
					state[e.domain] = 1
					bad++
				}
			}
		default:
			e.kind, e.domain, ok = editAddSystem, rng.Intn(len(state)), true
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// editStreamSHA256 identifies an edit stream for the input-drift guard.
func editStreamSHA256(edits []edit) string {
	h := sha256.New()
	for _, e := range edits {
		fmt.Fprintf(h, "%s %d\n", e.kind, e.domain)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// apply makes the edit in the text and in the benchmark's model of it.
func (s *specText) apply(e edit) error {
	switch e.kind {
	case editSlow:
		return s.setPollerMinutes(e.domain, 10)
	case editSpeed:
		return s.setPollerMinutes(e.domain, 1)
	case editRestore:
		return s.setPollerMinutes(e.domain, 5)
	default:
		return s.addSystem(e.domain)
	}
}

// editContract is the one change contract every edit is judged by. Its
// scope is the first half of the internet (whole super-domains of ten
// leaf domains each), and it allows no edit to add an instance or a
// permission.
func editContract(domains int) string {
	var scope []string
	for i := 0; i < domains/20; i++ {
		scope = append(scope, fmt.Sprintf("super0-%d", i))
	}
	return fmt.Sprintf(`contract bench-guard ::=
    scope %s;
    forbid widen-access;
    forbid relax-frequency;
    max added instances 0;
    max removed instances 0;
    max added permissions 0;
    max removed permissions 0;
end contract bench-guard.
`, strings.Join(scope, ", "))
}

// expectedClauses is the hand-written verdict table: the contract
// clauses an edit must violate under editContract, sorted. Retuning a
// poller changes no grant and no instance, whichever way it goes; a new
// system adds one agent instance and replicates one export. Any edit in
// the second half of the internet is out of scope.
func expectedClauses(e edit, domains int) []string {
	var want []string
	if e.kind == editAddSystem {
		want = append(want, changespec.ClauseMaxAddedInstances, changespec.ClauseMaxAddedPerms)
	}
	if e.domain >= domains/20*10 {
		want = append(want, changespec.ClauseScope)
	}
	sort.Strings(want)
	return want
}

// violatedClauses lists the distinct clauses a contract result reports,
// sorted, for comparison with expectedClauses.
func violatedClauses(r *changespec.Result) []string {
	seen := map[string]bool{}
	var got []string
	for _, v := range r.Violations {
		if !seen[v.Clause] {
			seen[v.Clause] = true
			got = append(got, v.Clause)
		}
	}
	sort.Strings(got)
	return got
}
