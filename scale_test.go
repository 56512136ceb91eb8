package nmsl

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
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
// in this one run, so the ratios carry across machines (`make linear`).
// Time is the compiler's own CPU time (cpuTimeOf). Each of five rounds
// times the two sizes back to back over the same number of lines (the
// small one compiles ten times), and the gate reads the median of the
// rounds' ratios: contention on the machine that comes and goes during
// the test then slows both sides of a ratio alike.
func TestCompileLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 10,000-domain specification five times")
	}
	sizes := []struct {
		domains, reps int
		src           string
		bytes         float64 // per line
	}{{domains: 1000, reps: 10}, {domains: 10000, reps: 1}}
	for i := range sizes {
		sizes[i].src = netsim.Source(netsim.Params{Domains: sizes[i].domains, SystemsPerDomain: 2, Seed: 1})
	}
	var ratios []float64
	var before, after runtime.MemStats
	for range 5 {
		var ns [2]float64 // per line
		for i := range sizes {
			sz := &sizes[i]
			lines := float64(sz.reps * strings.Count(sz.src, "\n"))
			var spec *Specification
			runtime.ReadMemStats(&before)
			d := cpuTimeOf(t, func() {
				for range sz.reps {
					spec = compileSource(t, "linear.nmsl", sz.src)
				}
			})
			runtime.ReadMemStats(&after)
			if want := 3 * sz.domains; len(spec.Model().Instances) != want {
				t.Fatalf("%d domains compiled to %d instances, want %d", sz.domains, len(spec.Model().Instances), want)
			}
			ns[i] = float64(d.Nanoseconds()) / lines
			// What a compile allocates does not vary from run to run.
			sz.bytes = float64(after.TotalAlloc-before.TotalAlloc) / lines
		}
		ratios = append(ratios, ns[1]/ns[0])
	}
	slices.Sort(ratios)
	ratio := ratios[len(ratios)/2]
	b1k, b10k := sizes[0].bytes, sizes[1].bytes
	t.Logf("compile: %.0f B/line at 1,000 domains, %.0f at 10,000 (%.2fx); time per line at 10,000 over 1,000, by round: %.2f (median %.2fx)",
		b1k, b10k, b10k/b1k, ratios, ratio)
	if ratio > 1.5 {
		t.Errorf("compile time is not linear: %.2fx the time per line at 10,000 domains as at 1,000 (want <= 1.5x)", ratio)
	}
	if b10k > 1.5*b1k {
		t.Errorf("compile allocation is not linear: %.0f B/line at 10,000 domains vs %.0f at 1,000 (%.2fx, want <= 1.5x)", b10k, b1k, b10k/b1k)
	}
}

// cpuTimeOf returns the CPU time, user plus system, this process spends
// in fn, which runs with the collector off. Unlike wall time it does not
// grow when other processes share the CPUs, and with no collection in
// the window it counts neither the collector's idle-time workers, which
// run only while a CPU is free, nor a cost that depends on the heap
// headroom left by earlier work: it is the work of fn itself. What fn
// allocates is for its caller to bound.
func cpuTimeOf(t *testing.T, fn func()) time.Duration {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		t.Fatal(err)
	}
	fn()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		t.Fatal(err)
	}
	return time.Duration(after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano())
}

// TestCompileAllocsPerDecl pins what compiling costs per declaration,
// NewCompiler through Finish (the model build included), on the 1,000-
// and 10,000-domain nesting-1 netsim texts edit-1k and pipeline-10k
// compile: at most 17 allocations and 2,775 bytes (half and three
// quarters of the 34 and 3.7 KB the front end took when it allocated
// per token, per clause and per name), and the same at both sizes
// within 10 %. Counts, not times: they hold on any machine.
func TestCompileAllocsPerDecl(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 10,000-domain specification")
	}
	const maxAllocs, maxBytes = 17.0, 2775.0
	var rates [2][2]float64 // per size: allocations, bytes per declaration
	for i, domains := range []int{1000, 10000} {
		src := netsim.Source(netsim.Params{Domains: domains, SystemsPerDomain: 2, NestingDepth: 1, Seed: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec := compileSource(t, "decls.nmsl", src)
		runtime.ReadMemStats(&after)
		ast := spec.AST()
		decls := len(ast.Types) + len(ast.Processes) + len(ast.Systems) + len(ast.Domains)
		rates[i] = [2]float64{
			float64(after.Mallocs-before.Mallocs) / float64(decls),
			float64(after.TotalAlloc-before.TotalAlloc) / float64(decls),
		}
		t.Logf("%d domains, %d declarations: %.1f allocations and %.0f bytes per declaration",
			domains, decls, rates[i][0], rates[i][1])
		if rates[i][0] > maxAllocs || rates[i][1] > maxBytes {
			t.Errorf("%d domains: %.1f allocations and %.0f bytes per declaration, want at most %.0f and %.0f",
				domains, rates[i][0], rates[i][1], maxAllocs, maxBytes)
		}
	}
	for k, what := range []string{"allocations", "bytes"} {
		if small, large := rates[0][k], rates[1][k]; large > 1.1*small || small > 1.1*large {
			t.Errorf("%s per declaration: %.1f at 1k domains, %.1f at 10k; want them within 10%%", what, small, large)
		}
	}
}
