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
