package nmsl

import (
	"context"
	"testing"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
)

// Engine parity at the facade: WithEngine(EngineLogic) renders the same
// report at one and at four workers, and reaches the indexed checker's
// verdict. The logic engine is held to the printed program itself in
// internal/consistency (TestEngineLogicMatchesProgram).

// TestEngineParityCorpus compares the engines across the testdata
// corpus, consistent and inconsistent specifications alike.
func TestEngineParityCorpus(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.file, func(t *testing.T) {
			spec := compileCorpus(t, tc)
			m := spec.Model()
			indexed := consistency.Check(m)
			logic := checkEngine(t, m, consistency.EngineLogic)
			// Messages differ across engine families (the logic engine
			// renders generic causes), so cross-family parity is on the
			// kind summary; the logic path also omits the proxy tail.
			if len(m.Proxies) == 0 && logic.Summary() != indexed.Summary() {
				t.Errorf("logic and indexed verdicts diverge:\n%s\nvs\n%s", logic.Summary(), indexed.Summary())
			}
			rep, err := spec.CheckContext(context.Background(),
				WithWorkers(4), WithEngine(EngineLogic))
			if err != nil {
				t.Fatal(err)
			}
			if rep.String() != logic.String() {
				t.Errorf("sharded logic engine diverges:\n%s\nvs\n%s", rep, logic)
			}
		})
	}
}

// TestEngineParityNetsim compares the engines on generated internets:
// nested domains, injected frequency violations, late-bound star
// targets and recursive chains.
func TestEngineParityNetsim(t *testing.T) {
	cases := []netsim.Params{
		{Domains: 12, SystemsPerDomain: 2, NestingDepth: 0, Seed: 1},
		{Domains: 10, SystemsPerDomain: 2, NestingDepth: 2, Seed: 2},
		{Domains: 10, SystemsPerDomain: 1, InconsistencyRate: 0.5, Seed: 3},
		{Domains: 6, SystemsPerDomain: 1, StarTargets: true, Seed: 4},
		{Domains: 8, SystemsPerDomain: 1, RecursiveChains: true, Seed: 5},
	}
	for i, p := range cases {
		m, err := netsim.Model(p)
		if err != nil {
			t.Fatal(err)
		}
		indexed := consistency.Check(m)
		logic := checkEngine(t, m, consistency.EngineLogic)
		if logic.Summary() != indexed.Summary() {
			t.Errorf("case %d: logic vs indexed verdicts diverge:\n%s\nvs\n%s", i, logic.Summary(), indexed.Summary())
		}
	}
}

// TestWarmCacheParityNetsim runs the full incremental pipeline on a
// generated internet with injected violations: warm-cache re-checks and
// CheckDelta replays must render identically to a cold check.
func TestWarmCacheParityNetsim(t *testing.T) {
	m, err := netsim.Model(netsim.Params{
		Domains: 200, SystemsPerDomain: 2, NestingDepth: 1,
		InconsistencyRate: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := consistency.Check(m)
	if cold.Consistent() {
		t.Fatal("expected injected violations")
	}

	cache := consistency.NewResultCache()
	chk := consistency.NewChecker(m)
	chk.Cache = cache
	if got := chk.Check().String(); got != cold.String() {
		t.Fatalf("cache-filling run diverges from cold check")
	}
	warm := consistency.NewChecker(m)
	warm.Cache = cache
	if got := warm.Check().String(); got != cold.String() {
		t.Fatalf("warm-cache run diverges from cold check")
	}
	if st := cache.Stats(); st.Hits != int64(len(m.Refs)) || st.Invalidations != 0 {
		t.Fatalf("warm stats %+v, want %d hits", st, len(m.Refs))
	}

	delta := &consistency.ModelDelta{Instances: []string{m.Refs[0].Source.ID}}
	if got := warm.CheckDelta(cold, delta).String(); got != cold.String() {
		t.Fatalf("CheckDelta diverges from cold check")
	}

	// The sharded checker shares the cache across workers.
	rep, err := consistency.CheckContext(context.Background(), m,
		consistency.Options{Workers: 8, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != cold.String() {
		t.Fatalf("sharded warm-cache run diverges from cold check")
	}
}
