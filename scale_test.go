package nmsl

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/netsim"
)

// TestScaleCheck100kSmoke is the nightly §1-scale checking smoke: the
// 100,000-domain internet (200k elements, ~3.4M spec lines) is
// generated, compiled, cold-checked, and then re-checked incrementally
// after a single-instance change. Gated behind NMSL_SCALE so ordinary
// test runs (and small CI runners, which would swap) skip it; the
// nightly job exports the gate and runs it time-boxed via -timeout.
// The per-phase timings land in the test log for T-SCALE bookkeeping.
func TestScaleCheck100kSmoke(t *testing.T) {
	if os.Getenv("NMSL_SCALE") == "" {
		t.Skip("set NMSL_SCALE=1 to run the 100k-domain checking smoke")
	}
	t0 := time.Now()
	m, err := netsim.Model(netsim.Params{
		Domains: 100000, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	buildD := time.Since(t0)

	t1 := time.Now()
	chk := consistency.NewChecker(m)
	chk.Cache = consistency.NewResultCache()
	prev := chk.Check()
	coldD := time.Since(t1)
	if !prev.Consistent() {
		t.Fatalf("100k-domain internet inconsistent: %d violations", len(prev.Violations))
	}

	t2 := time.Now()
	delta := &consistency.ModelDelta{Instances: []string{m.Refs[0].Source.ID}}
	rep := chk.CheckDelta(prev, delta)
	warmD := time.Since(t2)
	if !rep.Consistent() {
		t.Fatalf("warm delta re-check inconsistent: %d violations", len(rep.Violations))
	}

	t.Logf("100k domains: %d instances, %d refs; compile+build %v, cold check %v, warm delta %v",
		len(m.Instances), len(m.Refs), buildD.Round(time.Millisecond),
		coldD.Round(time.Millisecond), warmD.Round(time.Millisecond))
}

// TestCompileLinear is the front end's linearity gate: compiling the
// 10,000-domain internet costs, per source line, at most 1.5x the time
// and 1.5x the bytes the 1,000-domain one does. Both sizes are measured
// in this one run, best of three, so the ratios carry across machines
// (`make linear`).
func TestCompileLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 10,000-domain specification three times")
	}
	perLine := func(domains int) (ns, bytes float64) {
		src := netsim.Source(netsim.Params{Domains: domains, SystemsPerDomain: 2, Seed: 1})
		lines := float64(strings.Count(src, "\n"))
		best := time.Duration(1<<63 - 1)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			spec := compileSource(t, "linear.nmsl", src)
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			if want := 3 * domains; len(spec.Model().Instances) != want {
				t.Fatalf("%d domains compiled to %d instances, want %d", domains, len(spec.Model().Instances), want)
			}
			if d < best {
				best = d
			}
			// What a compile allocates does not vary from run to run.
			bytes = float64(after.TotalAlloc-before.TotalAlloc) / lines
		}
		return float64(best.Nanoseconds()) / lines, bytes
	}
	ns1k, b1k := perLine(1000)
	ns10k, b10k := perLine(10000)
	t.Logf("compile: %.0f ns/line, %.0f B/line at 1,000 domains; %.0f ns/line, %.0f B/line at 10,000 (%.2fx, %.2fx)",
		ns1k, b1k, ns10k, b10k, ns10k/ns1k, b10k/b1k)
	if ns10k > 1.5*ns1k {
		t.Errorf("compile time is not linear: %.0f ns/line at 10,000 domains vs %.0f at 1,000 (%.2fx, want <= 1.5x)", ns10k, ns1k, ns10k/ns1k)
	}
	if b10k > 1.5*b1k {
		t.Errorf("compile allocation is not linear: %.0f B/line at 10,000 domains vs %.0f at 1,000 (%.2fx, want <= 1.5x)", b10k, b1k, b10k/b1k)
	}
}
