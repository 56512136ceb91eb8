package consistency

import (
	"strings"
	"testing"

	"nmsl/internal/sema"
)

// checkDeltaPair runs the full pipeline for an edit: compile both
// revisions, diff them, CheckDelta against the previous report, and
// compare with a fresh full check of the new revision.
func checkDeltaPair(t *testing.T, oldSrc, newSrc string, cache *ResultCache) (*Report, *Report) {
	t.Helper()
	oldSpec, newSpec := buildSpec(t, oldSrc), buildSpec(t, newSrc)
	m1, m2 := BuildModel(oldSpec), BuildModel(newSpec)
	prev := Check(m1)
	delta := DeltaFromSpecs(oldSpec, newSpec)
	chk := NewChecker(m2)
	chk.Cache = cache
	got := chk.CheckDelta(prev, delta)
	want := Check(m2)
	return got, want
}

// inModel reports whether ref is one of m's references.
func inModel(m *Model, ref *Ref) bool {
	for i := range m.Refs {
		if &m.Refs[i] == ref {
			return true
		}
	}
	return false
}

// TestCheckDeltaParity: for every mutation class, every CheckDelta path
// — against the old revision's report on the rebuilt model, against the
// new revision's own report with an empty delta, and the nil and Full
// fallbacks — must render byte-identically to a full check of the edited
// specification, with every violation pointing into the current model.
func TestCheckDeltaParity(t *testing.T) {
	edits := map[string]func(string) string{
		"no-op reformat": func(s string) string {
			return strings.Replace(s, "domain public ::=\n    domain east;",
				"domain public ::=\n\n    domain east;", 1)
		},
		"perm access widened": func(s string) string {
			return strings.Replace(s, "exports mgmt.mib to \"east\"\n        access ReadOnly",
				"exports mgmt.mib to \"east\"\n        access Any", 1)
		},
		"perm frequency tightened": func(s string) string {
			return strings.Replace(s, "access ReadOnly\n        frequency >= 5 minutes;\nend process agentE",
				"access ReadOnly\n        frequency >= 30 minutes;\nend process agentE", 1)
		},
		"system removed from domain": func(s string) string {
			return strings.Replace(s, "domain east ::=\n    system host-e;",
				"domain east ::=", 1)
		},
		"support view narrowed": func(s string) string {
			return strings.Replace(s, "process agentE ::=\n    supports mgmt.mib;",
				"process agentE ::=\n    supports mgmt.mib.ip;", 1)
		},
		"instance added": func(s string) string {
			return strings.Replace(s, "    process agentE;\n    process pollerE;",
				"    process agentE;\n    process agentE;\n    process pollerE;", 1)
		},
		"type added (MIB changed, full fallback)": func(s string) string {
			return s + "\ntype SpareCounter ::=\n    INTEGER;\nend type SpareCounter.\n"
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			newSrc := edit(twoClusterSpec)
			if newSrc == twoClusterSpec {
				t.Fatal("edit did not apply")
			}
			got, want := checkDeltaPair(t, twoClusterSpec, newSrc, NewResultCache())
			m := want.Model
			chk := NewChecker(m)
			paths := map[string]*Report{
				"rebuilt model": got,
				"empty delta":   chk.CheckDelta(want, &ModelDelta{}),
				"nil prev":      chk.CheckDelta(nil, &ModelDelta{}),
				"nil delta":     chk.CheckDelta(want, nil),
				"full delta":    chk.CheckDelta(want, &ModelDelta{Full: true}),
			}
			for path, got := range paths {
				if got.String() != want.String() {
					t.Errorf("%s: delta re-check diverges:\n got: %s\nwant: %s", path, got, want)
				}
				if got.RefsChecked != want.RefsChecked {
					t.Errorf("%s: RefsChecked = %d, want %d", path, got.RefsChecked, want.RefsChecked)
				}
				for _, v := range got.Violations {
					if v.Ref != nil && !inModel(m, v.Ref) {
						t.Errorf("%s: %s points outside the current model", path, v)
					}
				}
			}
		})
	}
}

// TestCheckDeltaReplaysViolations: verdicts of untouched references —
// including their violations — replay without re-evaluation, rebound to
// the new model's references.
func TestCheckDeltaReplaysViolations(t *testing.T) {
	// Make the west cluster inconsistent (poller too fast), then edit
	// only the east cluster.
	broken := strings.Replace(twoClusterSpec,
		"queries agentW\n        requests mgmt.mib.system\n        frequency >= 10 minutes;",
		"queries agentW\n        requests mgmt.mib.system\n        frequency >= 1 minutes;", 1)
	if broken == twoClusterSpec {
		t.Fatal("edit did not apply")
	}
	edited := strings.Replace(broken, "exports mgmt.mib to \"east\"\n        access ReadOnly",
		"exports mgmt.mib to \"east\"\n        access Any", 1)
	got, want := checkDeltaPair(t, broken, edited, nil)
	if got.String() != want.String() {
		t.Fatalf("replayed violations diverge:\n got: %s\nwant: %s", got, want)
	}
	if vs := got.ByKind(KindFrequencyViolation); len(vs) != 1 {
		t.Fatalf("expected the west frequency violation to survive: %s", got)
	} else if vs[0].Ref == nil || !strings.Contains(vs[0].Ref.Source.ID, "host-w") || !inModel(got.Model, vs[0].Ref) {
		t.Errorf("replayed violation not rebound to the new model's ref: %+v", vs[0])
	}
}

// TestCheckDeltaSameModel: a delta against the same model replays clean
// references directly by pointer.
func TestCheckDeltaSameModel(t *testing.T) {
	m := buildModel(t, twoClusterSpec)
	chk := NewChecker(m)
	prev := chk.Check()
	got := chk.CheckDelta(prev, &ModelDelta{})
	if got.String() != prev.String() {
		t.Fatalf("same-model delta diverges:\n got: %s\nwant: %s", got, prev)
	}
	inst := m.Refs[0].Source.ID
	got2 := chk.CheckDelta(prev, &ModelDelta{Instances: []string{inst}})
	if got2.String() != prev.String() {
		t.Fatalf("dirty-instance delta diverges:\n got: %s\nwant: %s", got2, prev)
	}
}

// TestCheckDeltaFallbacks: unusable inputs degrade to a full check.
func TestCheckDeltaFallbacks(t *testing.T) {
	m := buildModel(t, twoClusterSpec)
	chk := NewChecker(m)
	want := Check(m).String()
	prev := chk.Check()
	cases := map[string]func() *Report{
		"nil prev":    func() *Report { return chk.CheckDelta(nil, &ModelDelta{}) },
		"nil delta":   func() *Report { return chk.CheckDelta(prev, nil) },
		"full delta":  func() *Report { return chk.CheckDelta(prev, &ModelDelta{Full: true}) },
		"mib changed": func() *Report { return chk.CheckDelta(prev, &ModelDelta{MIBChanged: true}) },
		"truncated prev": func() *Report {
			trunc := &Report{Model: m, RefsChecked: len(m.Refs) - 1}
			return chk.CheckDelta(trunc, &ModelDelta{})
		},
	}
	for name, run := range cases {
		if got := run().String(); got != want {
			t.Errorf("%s: fallback diverges:\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestDiffSpecs: position-only edits yield an empty delta; semantic
// edits name exactly the touched declarations.
func TestDiffSpecs(t *testing.T) {
	base := buildSpec(t, twoClusterSpec)
	reformatted := buildSpec(t, strings.Replace(twoClusterSpec,
		"domain public ::=", "\n\n\ndomain public ::=", 1))
	if d := sema.DiffSpecs(base, reformatted); !d.Empty() {
		t.Errorf("reformat produced a delta: %+v", d)
	}
	edited := buildSpec(t, strings.Replace(twoClusterSpec,
		"exports mgmt.mib to \"east\"", "exports mgmt.mib.ip to \"east\"", 1))
	d := sema.DiffSpecs(base, edited)
	if len(d.Processes) != 1 || d.Processes[0] != "agentE" {
		t.Errorf("processes delta = %v, want [agentE]", d.Processes)
	}
	if len(d.Domains) != 0 || len(d.Systems) != 0 || len(d.Types) != 0 {
		t.Errorf("unexpected delta: %+v", d)
	}
	dn := sema.DiffSpecs(nil, base)
	if len(dn.Domains) != 3 || len(dn.Processes) != 4 || len(dn.Systems) != 2 {
		t.Errorf("nil-old delta = %+v", dn)
	}
}
