package netsim

import (
	"context"
	"testing"
	"testing/quick"

	"nmsl/internal/consistency"
)

func TestGenerateSmallConsistent(t *testing.T) {
	m, err := Model(Params{Domains: 4, SystemsPerDomain: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 4 domains x 3 agent instances + 4 pollers
	if len(m.Instances) != 16 {
		t.Fatalf("instances %d", len(m.Instances))
	}
	// refs: each poller targets the peer type's 3 instances
	if len(m.Refs) != 12 {
		t.Fatalf("refs %d", len(m.Refs))
	}
	rep := consistency.Check(m)
	if !rep.Consistent() {
		t.Fatalf("generated internet inconsistent:\n%s", rep)
	}
}

func TestInjectedInconsistencies(t *testing.T) {
	p := Params{Domains: 10, SystemsPerDomain: 2, InconsistencyRate: 0.5, Seed: 7}
	want := ExpectedViolations(p)
	if want == 0 {
		t.Fatal("seed produced no violations; pick another")
	}
	m, err := Model(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := consistency.Check(m)
	got := len(rep.ByKind(consistency.KindFrequencyViolation))
	if got != want {
		t.Fatalf("got %d frequency violations, want %d:\n%s", got, want, rep)
	}
	// no other violation kinds
	if len(rep.Violations) != got {
		t.Fatalf("unexpected violation kinds:\n%s", rep)
	}
}

func TestNestingDepth(t *testing.T) {
	m, err := Model(Params{Domains: 25, SystemsPerDomain: 1, NestingDepth: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// super domains exist: 25 leaves -> 3 supers at level 0 -> 1 at
	// level 1 -> public
	found := 0
	for _, name := range m.Spec.DomainNames() {
		if len(name) > 5 && name[:5] == "super" {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("super domains: %d (%v)", found, m.Spec.DomainNames())
	}
	rep := consistency.Check(m)
	if !rep.Consistent() {
		t.Fatalf("nested internet inconsistent:\n%s", rep)
	}
}

func TestStarTargets(t *testing.T) {
	m, err := Model(Params{Domains: 3, SystemsPerDomain: 2, StarTargets: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// star pollers see every agent instance: 3 pollers x 6 agents
	if len(m.Refs) != 18 {
		t.Fatalf("refs %d", len(m.Refs))
	}
	rep := consistency.Check(m)
	if !rep.Consistent() {
		t.Fatalf("star internet inconsistent:\n%s", rep)
	}
}

func TestDeterministic(t *testing.T) {
	p := Params{Domains: 5, SystemsPerDomain: 2, InconsistencyRate: 0.3, Seed: 42}
	if Source(p) != Source(p) {
		t.Fatal("generation is not deterministic")
	}
}

// Property: every generated internet parses, analyzes, and cross-checks
// identically under the indexed and logic checkers.
func TestGeneratedSpecsCrossValidate(t *testing.T) {
	f := func(seed int64) bool {
		p := Params{
			Domains:           1 + int(seed%5+5)%5 + 1,
			SystemsPerDomain:  1 + int(seed%3+3)%3,
			InconsistencyRate: 0.4,
			Seed:              seed,
		}
		m, err := Model(p)
		if err != nil {
			return false
		}
		a := consistency.Check(m)
		b, err := consistency.CheckContext(context.Background(), m,
			consistency.Options{Workers: 1, Engine: consistency.EngineLogic})
		if err != nil || a.Consistent() != b.Consistent() {
			return false
		}
		return len(a.Violations) == len(b.Violations)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsFillDefaults(t *testing.T) {
	m, err := Model(Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Instances) != 2 { // 1 agent + 1 poller
		t.Fatalf("instances %d", len(m.Instances))
	}
}

// Recursive chains (section 3.1): agents themselves query their peer
// agents — server-to-server references — and the internet stays
// consistent because the agents' own exports cover those references.
func TestRecursiveChains(t *testing.T) {
	m, err := Model(Params{Domains: 4, SystemsPerDomain: 2, RecursiveChains: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// pollers: 4 x 2 targets = 8 refs; agents: 8 instances x 2 peer
	// instances = 16 more
	if len(m.Refs) != 24 {
		t.Fatalf("refs %d", len(m.Refs))
	}
	serverToServer := 0
	for _, r := range m.Refs {
		if r.Source.Proc.IsAgent() && r.Target.Proc.IsAgent() {
			serverToServer++
		}
	}
	if serverToServer != 16 {
		t.Fatalf("server-to-server refs %d", serverToServer)
	}
	rep := consistency.Check(m)
	if !rep.Consistent() {
		t.Fatalf("recursive internet inconsistent:\n%s", rep)
	}
	// cross-validate with the logic engine
	rep2, err := consistency.CheckContext(context.Background(), m,
		consistency.Options{Workers: 1, Engine: consistency.EngineLogic})
	if err != nil || !rep2.Consistent() {
		t.Fatalf("logic checker disagrees:\n%s", rep2)
	}
}
