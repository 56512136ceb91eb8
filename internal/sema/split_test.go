package sema_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nmsl/internal/netsim"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

// splitClauseCopying is SplitClause as it was before subclauses aliased
// their clause: every argument appended, one by one, to a slice of the
// subclause's own.
func splitClauseCopying(c *parser.Clause, subKeywords map[string]bool) []sema.Subclause {
	var subs []sema.Subclause
	cur := -1
	for i, it := range c.Items {
		isKw := it.Kind == parser.Word && (i == 0 || subKeywords[it.Text])
		if isKw {
			subs = append(subs, sema.Subclause{Keyword: it.Text, Pos: it.Pos})
			cur = len(subs) - 1
			continue
		}
		if cur < 0 {
			subs = append(subs, sema.Subclause{Pos: it.Pos})
			cur = 0
		}
		subs[cur].Items = append(subs[cur].Items, it)
	}
	return subs
}

// splitCorpus is every clause the repository's sources hold, with the
// declaration type it sits in. The test is outside package sema because
// netsim imports it.
func splitCorpus(t *testing.T) map[string][]*parser.Decl {
	t.Helper()
	sources := map[string]string{"paperspec": paperspec.Combined}
	for _, pattern := range []string{"*.nmsl", "*.nmslext", "contracts/*.ncs"} {
		files, err := filepath.Glob(filepath.Join("../../testdata", pattern))
		if err != nil || len(files) == 0 {
			t.Fatalf("no testdata matches %s: %v", pattern, err)
		}
		for _, path := range files {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sources[path] = string(data)
		}
	}
	for _, name := range netsim.Scenarios() {
		params, err := netsim.ScenarioParams(netsim.Scenario(name), 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		sources["netsim-"+name] = netsim.Source(params)
	}
	// Clauses that open with something other than a word, or with
	// nothing after a keyword, or with keywords back to back.
	sources["edges"] = `process p ::=
		5 minutes to x; "s"; ( a ) b to; to to to; exports;
		exports to access frequency; exports a b c; ;
	end process p.`

	corpus := map[string][]*parser.Decl{}
	for name, src := range sources {
		f, _ := parser.Parse(name, src) // the edge source need not be valid beyond pass 1
		if len(f.Decls) == 0 {
			t.Fatalf("%s: no declarations", name)
		}
		corpus[name] = f.Decls
	}
	return corpus
}

func TestSplitClauseAliasesClause(t *testing.T) {
	tables := sema.NewAnalyzer().Tables()
	clauses, subclauses := 0, 0
	for name, decls := range splitCorpus(t) {
		for _, d := range decls {
			for _, c := range d.Clauses {
				clauses++
				before := append([]parser.Item(nil), c.Items...)
				resolved := tables.ResolveClause(d.Type, c.Keyword()).SubKeywords
				for _, kws := range []map[string]bool{nil, resolved, {"to": true, "b": true, "minutes": true}} {
					got := sema.SplitClause(c, kws)
					if want := splitClauseCopying(c, kws); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s\n got %v\nwant %v", name, c, got, want)
					}
					for i := range got {
						subclauses++
						sub := &got[i]
						if cap(sub.Items) != len(sub.Items) {
							t.Fatalf("%s: %s: subclause %q has len %d, cap %d", name, c, sub.Keyword, len(sub.Items), cap(sub.Items))
						}
						// What a clause action may do: grow its own view.
						grown := append(sub.Items, parser.Item{Kind: parser.Word, Text: "appended"})
						grown[0].Text = "overwritten"
					}
					if !reflect.DeepEqual(c.Items, before) {
						t.Fatalf("%s: an append to a subclause reached the clause:\n got %v\nwant %v", name, c.Items, before)
					}
				}
			}
		}
	}
	if clauses < 1000 || subclauses < 3000 {
		t.Fatalf("corpus too small to mean anything: %d clauses, %d subclauses", clauses, subclauses)
	}
}
