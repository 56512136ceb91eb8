package main

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func TestParse(t *testing.T) {
	const in = `goos: linux
goarch: amd64
pkg: nmsl
cpu: Example CPU @ 2.00GHz
BenchmarkCheckParallel8-16    	      90	  13210450 ns/op	    1734 B/op	      21 allocs/op
BenchmarkDistributeSerial     	    1000	    701234 ns/op
PASS
ok  	nmsl	3.456s
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "nmsl" {
		t.Errorf("header: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("benchmarks: %+v", doc.Benchmarks)
	}
	b := doc.Benchmarks[0]
	if b.Name != "CheckParallel8" || b.Procs != 16 || b.Iterations != 90 ||
		b.NsPerOp != 13210450 || b.BytesPerOp != 1734 || b.AllocsPerOp != 21 {
		t.Errorf("first: %+v", b)
	}
	if doc.Benchmarks[1].Name != "DistributeSerial" || doc.Benchmarks[1].Procs != 0 {
		t.Errorf("second: %+v", doc.Benchmarks[1])
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkBroken notanumber ns/op\n"))); err == nil {
		t.Fatal("want error")
	}
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestGolden runs both modes end to end on a committed go test text:
// `json` writes testdata/run.json, and the guard reads it against the
// committed baselines. The text holds a -benchtime=1x smoke entry (the
// only sample of CheckDomains100k, and a too-fast extra one of
// CheckParallel8), a custom refs metric, MB/s, a sub-benchmark and a
// baseline from another CPU; the verdicts cover ok, improvement, a
// timing and an allocation regression, no-baseline and a missing
// benchmark.
func TestGolden(t *testing.T) {
	in, err := os.Open(filepath.Join("testdata", "run.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var js, stderr bytes.Buffer
	if code := toJSON(in, &js, &stderr); code != 0 {
		t.Fatalf("json: exit %d: %s", code, stderr.String())
	}
	checkGolden(t, "run.json", js.Bytes())

	var out bytes.Buffer
	code := guard([]string{
		"-baseline", "../../BENCH_5.json,../../BENCH_14.json,../../BENCH_15.json,../../BENCH_28.json,../../BENCH_37.json",
		"-current", filepath.Join("testdata", "run.json"),
		"-bench", "CheckParallel8,CheckWarmCache,CheckParallel1,CompileDomains1000,ConfigCodecMarshal,MemAgentRoundTrip,CheckParallel/workers=8,CheckDomains100k",
	}, &out, &stderr)
	if code != 1 {
		t.Errorf("guard: exit %d, want 1: %s", code, stderr.String())
	}
	checkGolden(t, "verdicts.golden", out.Bytes())
}

// The guarded set is the caller's: without -bench there is nothing to
// guard, which is a usage error rather than a pass.
func TestGuardNeedsBench(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := guard([]string{"-current", filepath.Join("testdata", "run.json")}, &out, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-bench") {
		t.Errorf("stderr: %q", stderr.String())
	}
}

func doc(cpu string, entries ...Benchmark) *Document {
	for i := range entries {
		if entries[i].Iterations == 0 {
			entries[i].Iterations = 20
		}
		entries[i].CPU = cpu // as load does
	}
	return &Document{CPU: cpu, Benchmarks: entries}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := doc("xeon", Benchmark{Name: "CheckParallel8", NsPerOp: 1000})
	cur := doc("xeon", Benchmark{Name: "CheckParallel8", NsPerOp: 1150})
	results, failed := compare(base, cur, []string{"CheckParallel8"}, 0.20)
	if failed {
		t.Fatalf("failed=%v, want pass", failed)
	}
	if results[0].status != "ok" {
		t.Errorf("status = %q, want ok", results[0].status)
	}
}

func TestCompareRegression(t *testing.T) {
	base := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000})
	cur := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1201})
	results, failed := compare(base, cur, []string{"CheckWarmCache"}, 0.20)
	if !failed || results[0].status != "regression" {
		t.Fatalf("results = %+v failed=%v, want regression", results, failed)
	}
	out := render(results, 0.20)
	if !strings.Contains(out, "regression") || !strings.Contains(out, "CheckWarmCache") {
		t.Errorf("render output not readable:\n%s", out)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000})
	cur := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 500})
	results, failed := compare(base, cur, []string{"CheckWarmCache"}, 0.20)
	if failed || results[0].status != "improvement" {
		t.Fatalf("results = %+v failed=%v, want passing improvement", results, failed)
	}
}

func TestCompareUsesMinOverCounts(t *testing.T) {
	// -count=3 emits the same name three times; min discounts the noisy
	// outliers on both sides.
	base := doc("xeon",
		Benchmark{Name: "CheckParallel8", NsPerOp: 1300},
		Benchmark{Name: "CheckParallel8", NsPerOp: 1000},
		Benchmark{Name: "CheckParallel8", NsPerOp: 1900})
	cur := doc("xeon",
		Benchmark{Name: "CheckParallel8", NsPerOp: 2000},
		Benchmark{Name: "CheckParallel8", NsPerOp: 1100})
	results, failed := compare(base, cur, []string{"CheckParallel8"}, 0.20)
	if failed {
		t.Fatalf("results = %+v, want pass (min 1100 vs min 1000)", results)
	}
	if results[0].base.ns != 1000 || results[0].cur.ns != 1100 {
		t.Errorf("min selection wrong: %+v", results[0])
	}
}

func TestCompareIgnoresSmokeEntries(t *testing.T) {
	// The 1x smoke sweep's single-iteration timings are warmup-biased;
	// only multi-iteration samples participate in the min.
	base := doc("xeon",
		Benchmark{Name: "CheckParallel8", Iterations: 1, NsPerOp: 100},
		Benchmark{Name: "CheckParallel8", Iterations: 20, NsPerOp: 1000})
	cur := doc("xeon", Benchmark{Name: "CheckParallel8", NsPerOp: 1100})
	results, failed := compare(base, cur, []string{"CheckParallel8"}, 0.20)
	if failed || results[0].base.ns != 1000 {
		t.Fatalf("results = %+v failed=%v, want smoke entry ignored", results, failed)
	}
	smokeOnly := doc("xeon", Benchmark{Name: "CheckParallel8", Iterations: 1, NsPerOp: 100})
	results, failed = compare(smokeOnly, cur, []string{"CheckParallel8"}, 0.20)
	if failed || results[0].status != "no-baseline" {
		t.Fatalf("results = %+v failed=%v, want passing no-baseline for smoke-only doc", results, failed)
	}
}

// Off the recording machine only the timing verdict is skipped: what a
// benchmark allocates compares across CPUs, and is still held.
func TestCompareSkipsOnCPUMismatch(t *testing.T) {
	base := doc("xeon", Benchmark{Name: "CheckParallel8", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 640})
	for _, tc := range []struct {
		name string
		cur  Benchmark
		fail bool
		want string // in the rendered verdict
	}{
		{"slower ns/op only", Benchmark{Name: "CheckParallel8", NsPerOp: 9000, AllocsPerOp: 10, BytesPerOp: 640}, false, `ok (ns/op not compared: baseline CPU "xeon")`},
		{"doubled B/op", Benchmark{Name: "CheckParallel8", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 1280}, true, "B/op 640 -> 1280"},
		{"doubled allocs/op", Benchmark{Name: "CheckParallel8", NsPerOp: 500, AllocsPerOp: 20, BytesPerOp: 640}, true, "allocs/op 10.0 -> 20.0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, failed := compare(base, doc("epyc", tc.cur), []string{"CheckParallel8"}, 0.20)
			if failed != tc.fail {
				t.Errorf("failed=%v, want %v: %+v", failed, tc.fail, results)
			}
			if out := render(results, 0.20); !strings.Contains(out, tc.want) {
				t.Errorf("render lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := doc("xeon", Benchmark{Name: "CheckParallel8", NsPerOp: 1000})
	cur := doc("xeon")
	results, failed := compare(base, cur, []string{"CheckParallel8"}, 0.20)
	if !failed {
		t.Fatalf("results = %+v, want failure when guarded benchmark vanishes", results)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	// Same speed, 2x the allocations: a perf guard that only watches
	// ns/op misses exactly the regressions the arena work prevents.
	base := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 640})
	cur := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000, AllocsPerOp: 20, BytesPerOp: 640})
	results, failed := compare(base, cur, []string{"CheckWarmCache"}, 0.20)
	if !failed || results[0].status != "regression" || results[0].memNote == "" {
		t.Fatalf("results = %+v failed=%v, want allocation regression", results, failed)
	}
	out := render(results, 0.20)
	if !strings.Contains(out, "allocs/op 10.0 -> 20.0") {
		t.Errorf("render does not name the allocation regression:\n%s", out)
	}
}

func TestCompareZeroAllocBaselineIsExact(t *testing.T) {
	// A zero-alloc baseline admits no new allocations at all (the +0.5
	// slack covers integer jitter on counting baselines, not zero ones).
	base := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000, AllocsPerOp: 0, BytesPerOp: 512})
	cur := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000, AllocsPerOp: 1, BytesPerOp: 512})
	_, failed := compare(base, cur, []string{"CheckWarmCache"}, 0.20)
	if !failed {
		t.Fatal("one allocation over a zero-alloc baseline must fail")
	}
	same := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000, AllocsPerOp: 0, BytesPerOp: 512})
	_, failed = compare(base, same, []string{"CheckWarmCache"}, 0.20)
	if failed {
		t.Fatal("identical zero-alloc runs must pass")
	}
}

func TestCompareBytesRegressionFails(t *testing.T) {
	base := doc("xeon", Benchmark{Name: "MemAgentRoundTrip", NsPerOp: 1000, AllocsPerOp: 4, BytesPerOp: 1000})
	cur := doc("xeon", Benchmark{Name: "MemAgentRoundTrip", NsPerOp: 1000, AllocsPerOp: 4, BytesPerOp: 1500})
	results, failed := compare(base, cur, []string{"MemAgentRoundTrip"}, 0.20)
	if !failed || results[0].memNote == "" {
		t.Fatalf("results = %+v failed=%v, want B/op regression", results, failed)
	}
}

func TestCompareWithoutBenchmemSkipsAllocs(t *testing.T) {
	// Legacy documents recorded without -benchmem carry parser zeros for
	// the memory fields; they must not masquerade as zero-alloc gates.
	base := doc("xeon", Benchmark{Name: "CheckParallel8", NsPerOp: 1000})
	cur := doc("xeon", Benchmark{Name: "CheckParallel8", NsPerOp: 1000, AllocsPerOp: 50, BytesPerOp: 4096})
	_, failed := compare(base, cur, []string{"CheckParallel8"}, 0.20)
	if failed {
		t.Fatal("allocation guard fired against a baseline with no -benchmem data")
	}
}

func TestCompareNoBaselineWarnsButPasses(t *testing.T) {
	base := doc("xeon")
	cur := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 900})
	results, failed := compare(base, cur, []string{"CheckWarmCache"}, 0.20)
	if failed || results[0].status != "no-baseline" {
		t.Fatalf("results = %+v failed=%v, want passing no-baseline", results, failed)
	}
}

// A successor baseline supersedes the entries it re-measured — all of
// them, so an old faster sample cannot win the min — adds its new
// benchmarks, and leaves the rest of the first baseline standing.
func TestMergeBaselinesSuccessorSupersedes(t *testing.T) {
	first := doc("xeon",
		Benchmark{Name: "MemAgentRoundTrip", NsPerOp: 900, BytesPerOp: 7304030, AllocsPerOp: 9600},
		Benchmark{Name: "MemAgentRoundTrip", NsPerOp: 800, BytesPerOp: 7304030, AllocsPerOp: 9600},
		Benchmark{Name: "CheckWarmCache", NsPerOp: 1000})
	successor := doc("xeon",
		Benchmark{Name: "MemAgentRoundTrip", NsPerOp: 1000, BytesPerOp: 750000, AllocsPerOp: 9500},
		Benchmark{Name: "ConfigGen20k", NsPerOp: 5000, BytesPerOp: 100, AllocsPerOp: 10})
	base := mergeBaselines([]*Document{first, successor})

	if s := minSample(base, "MemAgentRoundTrip"); s.ns != 1000 || s.bytes != 750000 {
		t.Errorf("re-measured benchmark kept old entries: %+v", s)
	}
	if !minSample(base, "ConfigGen20k").ok || minSample(base, "CheckWarmCache").ns != 1000 {
		t.Errorf("merged baseline lost entries: %+v", base.Benchmarks)
	}
	// Back at the old 64 KB-per-datagram allocation: the first baseline
	// alone would wave it through, the successor must not.
	cur := doc("xeon", Benchmark{Name: "MemAgentRoundTrip", NsPerOp: 1000, BytesPerOp: 7304030, AllocsPerOp: 9600})
	results, failed := compare(base, cur, []string{"MemAgentRoundTrip"}, 0.20)
	if !failed || !strings.Contains(results[0].memNote, "B/op") {
		t.Errorf("B/op regression against the successor not flagged: %+v", results)
	}
}

// Baselines from two machines merge: each benchmark is timed against
// the current run only if its own baseline came from the same CPU.
func TestMergeBaselinesMixedHardwareSkips(t *testing.T) {
	base := mergeBaselines([]*Document{
		doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 1000}),
		doc("epyc", Benchmark{Name: "ConfigGen20k", NsPerOp: 1000}),
	})
	cur := doc("xeon", Benchmark{Name: "CheckWarmCache", NsPerOp: 5000}, Benchmark{Name: "ConfigGen20k", NsPerOp: 5000})
	results, failed := compare(base, cur, []string{"CheckWarmCache", "ConfigGen20k"}, 0.20)
	if !failed || results[0].status != "regression" {
		t.Errorf("same-CPU baseline not compared after a mixed merge: %+v", results[0])
	}
	if results[1].status != "ok" || !results[1].otherCPU {
		t.Errorf("other-CPU baseline got a timing verdict: %+v", results[1])
	}
}
