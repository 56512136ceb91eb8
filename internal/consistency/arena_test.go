package consistency

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nmsl/internal/obs"
)

// clustersSpec generates n independent agent/poller clusters (the
// twoClusterSpec shape scaled), so the arena tests run over enough
// references that a per-reference allocation would dominate the
// measurement instead of hiding in fixed overhead.
func clustersSpec(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
process agentC%[1]d ::=
    supports mgmt.mib;
    exports mgmt.mib to "c%[1]d"
        access ReadOnly
        frequency >= 5 minutes;
end process agentC%[1]d.

process pollerC%[1]d ::=
    queries agentC%[1]d
        requests mgmt.mib.system
        frequency >= 10 minutes;
end process pollerC%[1]d.

system "host-c%[1]d" ::=
    cpu sparc;
    interface ie0 net lab type ethernet-csmacd speed 10000000 bps;
    supports mgmt.mib;
    process agentC%[1]d;
    process pollerC%[1]d;
end system "host-c%[1]d".

domain c%[1]d ::=
    system host-c%[1]d;
end domain c%[1]d.
`, i)
	}
	b.WriteString("\ndomain publicroot ::=\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    domain c%d;\n", i)
	}
	b.WriteString("end domain publicroot.\n")
	return b.String()
}

// testSteadyStateZeroAlloc drives the warm cached per-reference path
// exactly as CheckContext's workers do — per-worker scratch, per-worker
// staging buffer, contiguous ref shards — and asserts the steady state
// allocates nothing. The workers are pre-spawned and signalled over
// channels, so the measured region contains only the per-reference work.
func testSteadyStateZeroAlloc(t *testing.T, workers int) {
	t.Helper()
	m := buildModel(t, clustersSpec(24))
	if len(m.Refs) < workers {
		t.Fatalf("fixture too small: %d refs", len(m.Refs))
	}
	chk := NewChecker(m)
	chk.Cache = NewResultCache()
	if rep := chk.Check(); !rep.Consistent() {
		t.Fatalf("fixture should be consistent: %s", rep.Summary())
	}

	shards := shardRefs(nil, m.Refs, workers)
	start := make([]chan struct{}, len(shards))
	done := make(chan struct{}, len(shards))
	stop := make(chan struct{})
	defer close(stop)
	for w := range shards {
		start[w] = make(chan struct{})
		go func(w int) {
			sc := &scratch{}
			var stage []Violation
			lo, hi := shards[w][0], shards[w][1]
			for {
				select {
				case <-stop:
					return
				case <-start[w]:
				}
				stage = stage[:0]
				for i := lo; i < hi; i++ {
					chk.checkRefWith(&m.Refs[i], &stage, sc)
				}
				if len(stage) != 0 {
					panic("consistent fixture produced violations")
				}
				done <- struct{}{}
			}
		}(w)
	}
	pass := func() {
		for w := range start {
			start[w] <- struct{}{}
		}
		for range start {
			<-done
		}
	}
	pass() // size every worker's scratch buffers
	allocs := testing.AllocsPerRun(20, pass)
	if allocs != 0 {
		t.Errorf("workers=%d: warm per-ref path allocates %v per pass, want 0", workers, allocs)
	}
}

// TestCheckSteadyStateZeroAlloc: the warm cached per-reference hot path
// is allocation-free at any worker count — the zero-alloc acceptance
// gate of the §1-scale work.
func TestCheckSteadyStateZeroAlloc(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) { testSteadyStateZeroAlloc(t, 1) })
	t.Run("workers=8", func(t *testing.T) { testSteadyStateZeroAlloc(t, 8) })
}

// TestCheckDeltaWarmAllocsBounded: a clean-delta re-check allocates O(1)
// — the report, the delta sets and the scratch — never O(refs). The old
// implementation built a map entry per violating reference and a
// map-backed dirty set per call; the cursor replay and the reusable
// dirty bitset make the per-reference replay free. The serial Check and
// a one-worker CheckContext share the bound: a pool of one runs inline,
// with no goroutine, channel or per-shard staging copy.
func TestCheckDeltaWarmAllocsBounded(t *testing.T) {
	m := buildModel(t, clustersSpec(24))
	chk := NewChecker(m)
	prev := chk.Check()
	if !prev.Consistent() {
		t.Fatalf("fixture should be consistent: %s", prev.Summary())
	}
	delta := &ModelDelta{Instances: []string{m.Instances[0].ID}}
	rep := chk.CheckDelta(prev, delta) // size deltaBits, warm any cache
	if !rep.Consistent() {
		t.Fatalf("delta re-check should be consistent: %s", rep.Summary())
	}
	for name, run := range map[string]func(){
		"warm CheckDelta": func() { prev = chk.CheckDelta(prev, delta) },
		"Checker.Check":   func() { chk.Check() },
		"CheckContext(Workers: 1, metrics off)": func() {
			_, _ = CheckContext(context.Background(), m, Options{Workers: 1, Metrics: obs.Disabled})
		},
	} {
		// The budget is a fixed handful (report + delta sets + re-checked
		// ref's messages are cached as hits after the first pass); what
		// matters is that it does not scale with the model's 48 references.
		if allocs := testing.AllocsPerRun(20, run); allocs > 16 {
			t.Errorf("%s allocates %v per run, want O(1) (<= 16)", name, allocs)
		}
	}
}

// TestSeedColumnsEquivalence: adopting the previous model's columnar
// tables on the DiffSpecs growth path yields byte-identical check
// results, for both an edit that keeps the containment relation (adopted
// ancestry runs) and one that touches a domain (fresh runs, shared
// domain-id table).
func TestSeedColumnsEquivalence(t *testing.T) {
	base := clustersSpec(8)
	edits := map[string]string{
		// Process-level change: containment untouched, ancestry adopted.
		"process": strings.Replace(base, `frequency >= 10 minutes;
end process pollerC3.`, `frequency >= 20 minutes;
end process pollerC3.`, 1),
		// Domain-level change: ancestry rebuilt, id table still shared.
		"domain": strings.Replace(base, `domain c5 ::=
    system host-c5;
end domain c5.`, `domain c5 ::=
    system host-c5;
    exports mgmt.mib to "publicroot"
        access ReadOnly
        frequency >= 1 minutes;
end domain c5.`, 1),
	}
	for name, edited := range edits {
		t.Run(name, func(t *testing.T) {
			if edited == base {
				t.Fatal("edit did not apply")
			}
			oldSpec, newSpec := buildSpec(t, base), buildSpec(t, edited)
			oldModel := BuildModel(oldSpec)
			NewChecker(oldModel).Check() // build old columns
			delta := DeltaFromSpecs(oldSpec, newSpec)

			seeded := BuildModel(newSpec)
			seeded.SeedColumnsFrom(oldModel, delta)
			if &seeded.columns().domName[0] != &oldModel.columns().domName[0] {
				t.Error("seeded columns did not adopt the domain-id table")
			}
			fresh := BuildModel(buildSpec(t, edited))

			got := NewChecker(seeded).Check()
			want := NewChecker(fresh).Check()
			if got.String() != want.String() {
				t.Errorf("seeded and fresh reports differ:\nseeded: %swant:   %s", got, want)
			}
			gotDelta := NewChecker(seeded).CheckDelta(NewChecker(oldModel).Check(), delta)
			if gotDelta.String() != want.String() {
				t.Errorf("seeded delta report differs:\ngot:  %swant: %s", gotDelta, want)
			}
		})
	}
}

// TestPermsGrantedByLeavesSeedingOpen pins the accessor configgen uses:
// it answers from the same index the columnar tables hold, in ascending
// permission order, and reading it before the first check must not
// consume the once that SeedColumnsFrom needs.
func TestPermsGrantedByLeavesSeedingOpen(t *testing.T) {
	base := clustersSpec(8)
	edited := strings.Replace(base, `frequency >= 10 minutes;
end process pollerC3.`, `frequency >= 20 minutes;
end process pollerC3.`, 1)
	oldSpec, newSpec := buildSpec(t, base), buildSpec(t, edited)
	oldModel := BuildModel(oldSpec)
	NewChecker(oldModel).Check()

	m := BuildModel(newSpec)
	granted := 0
	for _, in := range m.Instances {
		pis := m.PermsGrantedBy(in.ID) // an early configgen.Generate
		granted += len(pis)
		for k, pi := range pis {
			if m.Perms[pi].GrantorInst != in.ID {
				t.Fatalf("%s: perm %d is granted by %q", in.ID, pi, m.Perms[pi].GrantorInst)
			}
			if k > 0 && pis[k-1] >= pi {
				t.Fatalf("%s: perm indexes not ascending: %v", in.ID, pis)
			}
		}
	}
	want := 0
	for i := range m.Perms {
		if m.Perms[i].GrantorInst != "" {
			want++
		}
	}
	if granted != want || want == 0 {
		t.Fatalf("index holds %d instance-level perms, model has %d", granted, want)
	}
	if m.PermsGrantedBy("nobody@nowhere#0") != nil {
		t.Error("unknown instance must grant nothing")
	}

	m.SeedColumnsFrom(oldModel, DeltaFromSpecs(oldSpec, newSpec))
	co := m.columns()
	if &co.domName[0] != &oldModel.columns().domName[0] {
		t.Error("an early PermsGrantedBy turned SeedColumnsFrom into a no-op")
	}
	for _, in := range m.Instances {
		if pis := m.PermsGrantedBy(in.ID); len(pis) > 0 && &pis[0] != &co.permsByInst[in.idx][0] {
			t.Fatalf("%s: accessor and columns hold different indexes", in.ID)
		}
	}
}
