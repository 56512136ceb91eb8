package consistency_test

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
)

// programModels is the logic program's parity corpus: every testdata
// specification, the paper's, and five generated internets with flat
// and nested domains, injected frequency violations, late-bound star
// targets and recursive chains.
func programModels(t *testing.T) map[string]*consistency.Model {
	t.Helper()
	models := map[string]*consistency.Model{
		"paper": consistency.BuildModel(compile(t, "", paperspec.Combined)),
	}
	ext, err := os.ReadFile("../../testdata/proxy.nmslext")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("../../testdata/*.nmsl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		models[filepath.Base(path)] = consistency.BuildModel(compile(t, string(ext), string(src)))
	}
	for name, p := range map[string]netsim.Params{
		"flat":       {Domains: 12, SystemsPerDomain: 2, NestingDepth: 0, Seed: 1},
		"nested":     {Domains: 10, SystemsPerDomain: 2, NestingDepth: 2, Seed: 2},
		"violations": {Domains: 10, SystemsPerDomain: 1, InconsistencyRate: 0.5, Seed: 3},
		"star":       {Domains: 6, SystemsPerDomain: 1, StarTargets: true, Seed: 4},
		"chains":     {Domains: 8, SystemsPerDomain: 1, RecursiveChains: true, Seed: 5},
	} {
		m, err := netsim.Model(p)
		if err != nil {
			t.Fatal(err)
		}
		models["netsim-"+name] = m
	}
	return models
}

// TestContainmentTablesMatchProgram: for every party of every model in
// the corpus, the contains_tr/covers tables BuildDB reads from the
// model's containment columns prove exactly the containers the
// program's recursive rules prove.
func TestContainmentTablesMatchProgram(t *testing.T) {
	for name, m := range programModels(t) {
		t.Run(name, func(t *testing.T) {
			mat, rec := consistency.BuildDB(m), consistency.BuildDBRecursive(m)
			for _, p := range consistency.ModelParties(m) {
				for _, pred := range []string{"contains_tr", "covers"} {
					got, want := consistency.ContainedBy(mat, pred, p), consistency.ContainedBy(rec, pred, p)
					if !slices.Equal(got, want) {
						t.Fatalf("%s(X, %s): tables %v, program %v", pred, p, got, want)
					}
				}
			}
		})
	}
}

// TestEngineLogicMatchesProgram holds the logic engine to the printed
// program: EngineLogic at one and at four workers renders the report
// of the program solved serially, byte for byte; and, where no proxy
// tail applies, its kind summary is the indexed checker's (the two
// engine families word their causes differently).
func TestEngineLogicMatchesProgram(t *testing.T) {
	for name, m := range programModels(t) {
		t.Run(name, func(t *testing.T) {
			want := consistency.SerialLogicCheck(m, consistency.BuildDBRecursive(m))
			for _, w := range []int{1, 4} {
				rep, err := consistency.CheckContext(context.Background(), m,
					consistency.Options{Workers: w, Engine: consistency.EngineLogic})
				if err != nil {
					t.Fatal(err)
				}
				if rep.String() != want.String() {
					t.Errorf("workers=%d: EngineLogic diverges from the program:\n%s\nvs\n%s", w, rep, want)
				}
			}
			if indexed := consistency.Check(m); len(m.Proxies) == 0 && want.Summary() != indexed.Summary() {
				t.Errorf("program and indexed verdicts diverge:\n%s\nvs\n%s", want.Summary(), indexed.Summary())
			}
		})
	}
}
