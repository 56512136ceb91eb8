package main

import (
	"math/rand"
	"reflect"
	"testing"

	"nmsl"
	"nmsl/internal/netsim"
)

func mustCompile(t *testing.T, text []byte) *nmsl.Specification {
	t.Helper()
	c := nmsl.NewCompiler()
	if err := c.CompileSource("edit.nmsl", string(text)); err != nil {
		t.Fatal(err)
	}
	spec, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEditStreamAgainstColdCheck walks 200 seeded edits over a
// 50-domain internet and holds the benchmark's shadow model and its
// hand-written contract table against a fresh cold check and a fresh
// contract evaluation of every revision.
func TestEditStreamAgainstColdCheck(t *testing.T) {
	const domains = 50
	rng := rand.New(rand.NewSource(7))
	st, err := newSpecText(netsim.Params{Domains: domains, SystemsPerDomain: 2, NestingDepth: 1, Seed: 7}, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	contracts, err := nmsl.ParseChangeContracts("bench.ncs", editContract(domains))
	if err != nil {
		t.Fatal(err)
	}
	prev := mustCompile(t, st.text)
	if got, want := len(prev.Check().Violations), st.violations(); got != want || want != 6 {
		t.Fatalf("base: checker reports %d violations, shadow model %d, want 6", got, want)
	}
	kinds := map[editKind]int{}
	for i, e := range editStream(st.minutes, 200, rng) {
		if err := st.apply(e); err != nil {
			t.Fatalf("edit %d (%v dom%d): %v", i, e.kind, e.domain, err)
		}
		kinds[e.kind]++
		spec := mustCompile(t, st.text)
		if got, want := len(spec.Check().Violations), st.violations(); got != want {
			t.Fatalf("edit %d (%v dom%d): checker reports %d violations, shadow model %d", i, e.kind, e.domain, got, want)
		}
		_, results := spec.VerifyChange(prev, contracts...)
		if got, want := violatedClauses(results[0]), expectedClauses(e, domains); !reflect.DeepEqual(got, want) {
			t.Fatalf("edit %d (%v dom%d): contract violates %v, table says %v", i, e.kind, e.domain, got, want)
		}
		prev = spec
	}
	for k := editSlow; k <= editAddSystem; k++ {
		if kinds[k] == 0 {
			t.Errorf("edit stream never drew a %v edit", k)
		}
	}
}
