package sema_test

import (
	"testing"

	"nmsl/internal/ast"
	"nmsl/internal/consistency"
	"nmsl/internal/paperspec"
	"nmsl/internal/parser"
	"nmsl/internal/sema"
)

func analyzeSpec(t *testing.T, src string) *ast.Spec {
	t.Helper()
	f, err := parser.Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := sema.NewAnalyzer()
	a.AnalyzeFile(f)
	spec, err := a.Finish()
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return spec
}

// TestDomainsContaining holds the containment relation of the analysed
// paper specification: romano's agent sits in public and wisc-cs, and
// one more enclosing domain joins the set.
func TestDomainsContaining(t *testing.T) {
	const party = "snmpdReadOnly@romano.cs.wisc.edu#0"
	got := consistency.BuildModel(analyzeSpec(t, paperspec.Combined)).PartyDomains(party)
	if len(got) != 2 || got[0] != "public" || got[1] != "wisc-cs" {
		t.Fatalf("got %v", got)
	}
	// nested containment
	src := paperspec.Combined + `
domain campus ::= domain wisc-cs; end domain campus.`
	got2 := consistency.BuildModel(analyzeSpec(t, src)).PartyDomains(party)
	if len(got2) != 3 || got2[0] != "campus" || got2[1] != "public" || got2[2] != "wisc-cs" {
		t.Fatalf("got %v", got2)
	}
}
