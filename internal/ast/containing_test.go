package ast_test

import (
	"strings"
	"testing"

	"nmsl/internal/ast"
	"nmsl/internal/consistency"
)

// TestDomainsContainingNested holds the containment relation over a
// hand-built specification: a system two subdomains deep is contained
// by the whole chain and by no unrelated domain, and an unknown party
// is contained nowhere.
func TestDomainsContainingNested(t *testing.T) {
	s := ast.NewSpec()
	s.Processes["agent"] = &ast.ProcessSpec{Name: "agent"}
	s.Systems["host"] = &ast.SystemSpec{Name: "host", Processes: []ast.ProcInstance{{Name: "agent"}}}
	s.Domains["leaf"] = &ast.DomainSpec{Name: "leaf", Systems: []string{"host"}}
	s.Domains["mid"] = &ast.DomainSpec{Name: "mid", Subdomains: []string{"leaf"}}
	s.Domains["top"] = &ast.DomainSpec{Name: "top", Subdomains: []string{"mid"}}
	s.Domains["other"] = &ast.DomainSpec{Name: "other"}
	m := consistency.BuildModel(s)
	got := m.PartyDomains("agent@host#0")
	want := "leaf mid top"
	if strings.Join(got, " ") != want {
		t.Errorf("PartyDomains = %v, want %s", got, want)
	}
	if m.PartyInDomain("agent@host#0", "other") {
		t.Error("host contained in an unrelated domain")
	}
	if len(m.PartyDomains("agent@ghost#0")) != 0 {
		t.Error("unknown system contained somewhere")
	}
}
