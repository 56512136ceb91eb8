package parser_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
)

// TestStreamingParseMatchesMaterialized holds the streaming parser to
// the parser it replaced, over everything the repository parses: the
// testdata corpus with its extension and contract sources, the paper's
// figures, one generated internet per netsim scenario, and FuzzParse's
// seeds. It lives outside package parser because netsim imports it.
func TestStreamingParseMatchesMaterialized(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.nmsl", "*.nmslext", "contracts/*.ncs"} {
		m, err := filepath.Glob(filepath.Join("../../testdata", pattern))
		if err != nil || len(m) == 0 {
			t.Fatalf("no testdata matches %s: %v", pattern, err)
		}
		files = append(files, m...)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		parser.SameAsMaterialized(t, path, string(data))
	}

	parser.SameAsMaterialized(t, "paperspec", paperspec.Combined)
	for i, src := range parser.FuzzSeeds {
		parser.SameAsMaterialized(t, fmt.Sprintf("fuzz seed %d", i), src)
	}

	scenarios := netsim.Scenarios()
	if len(scenarios) < 5 {
		t.Fatalf("netsim has %d scenarios, want at least 5", len(scenarios))
	}
	for _, name := range scenarios {
		params, err := netsim.ScenarioParams(netsim.Scenario(name), 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		parser.SameAsMaterialized(t, "netsim-"+name, netsim.Source(params))
	}
}

// materializedParseBytes is what the materializing parser allocated for
// the 1,000-domain netsim text below (855,948 bytes, 5,001
// declarations): the token slice grown by doubling, an Item on the heap
// per item and a clause's items grown by doubling. The streaming parser
// measured 8,215,984 when it replaced it.
const materializedParseBytes = 55_752_224

// TestParseAllocBudget holds Parse to 40% of that: an Items slice
// allocated once per clause and group, and nothing per token.
func TestParseAllocBudget(t *testing.T) {
	src := netsim.Source(netsim.Params{Domains: 1000, SystemsPerDomain: 2, Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := parser.Parse("budget.nmsl", src)
	runtime.ReadMemStats(&after)
	if err != nil || len(f.Decls) != 5001 {
		t.Fatalf("parsed %d declarations, want 5001: %v", len(f.Decls), err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Parse allocated %d bytes for %d of source (%.1f%% of the materializing parser's %d)",
		got, len(src), 100*float64(got)/materializedParseBytes, materializedParseBytes)
	if budget := uint64(materializedParseBytes * 2 / 5); got > budget {
		t.Errorf("Parse allocated %d bytes, budget %d", got, budget)
	}
}
