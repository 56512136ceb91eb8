// benchguard is the benchmark tool: it turns `go test -bench` text into
// the JSON document the committed baselines (BENCH_5.json and
// successors) and the CI artifacts are written in, and it fails a run
// in which a guarded benchmark regresses beyond the tolerance — in time
// (ns/op) or in allocation (allocs/op, B/op) — against those baselines.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | go run ./scripts/benchguard json > run.json
//	go run ./scripts/benchguard -bench CheckWarmCache,ConfigGen20k \
//		-baseline BENCH_5.json,BENCH_14.json -current run.json
//
// The guarded set is the Makefile's (GUARDED_BENCH and
// GUARDED_SCALE_BENCH); the tool has none of its own. With -count > 1
// the same benchmark appears several times and the minimum of each
// metric is used on both sides, which discounts scheduler noise without
// hiding real regressions.
//
// Allocation counts are near-deterministic, so they are compared with
// the same fractional tolerance plus half an allocation of slack: a
// zero-alloc baseline stays an exact zero-alloc requirement, while
// counting baselines absorb ±0 jitter from map growth. Entries without
// -benchmem fields (both sides zero) skip the allocation comparison.
//
// Benchmark timings only compare within one machine class, so a
// benchmark whose baseline was recorded on another CPU gets no ns/op
// verdict, only a note. What a benchmark allocates does not depend on
// the CPU: allocs/op and B/op are compared wherever the guard runs.
//
// -baseline takes a comma-separated list, oldest first: a successor
// (BENCH_14.json) supersedes, benchmark by benchmark, the entries it
// measured again and adds the ones its PR introduced, and leaves the
// rest of the earlier baseline standing. Each entry keeps the CPU of the
// document it came from.
//
// Exit status: 0 within tolerance, 1 on a regression, a guarded
// benchmark missing from the run or an unreadable document, 2 on usage
// errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one result line, e.g.
//
//	BenchmarkCheckParallel8-16    90    13210450 ns/op    1734 B/op    21 allocs/op
type Benchmark struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// CPU is the entry's document's, set by load.
	CPU string `json:"-"`
}

// Document is the whole run: the platform header go test prints plus
// every benchmark line, in order.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "json" {
		os.Exit(toJSON(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(guard(os.Args[1:], os.Stdout, os.Stderr))
}

// toJSON is the json subcommand: go test text in, one Document out.
func toJSON(in io.Reader, stdout, stderr io.Writer) int {
	doc, err := parse(bufio.NewScanner(in))
	if err == nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(doc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 1
	}
	return 0
}

func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{Benchmarks: []Benchmark{}}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	return doc, sc.Err()
}

func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Benchmark{}, fmt.Errorf("want at least name and iterations")
	}
	b := Benchmark{Name: strings.TrimPrefix(f[0], "Benchmark")}
	// The trailing -N is GOMAXPROCS, not part of the name.
	if i := strings.LastIndex(b.Name, "-"); i >= 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations: %w", err)
	}
	b.Iterations = iters
	// The rest is value/unit pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("value %q: %w", f[i], err)
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			b.MBPerSec = v
		}
	}
	return b, nil
}

// sample is the per-side minimum of each guarded metric.
type sample struct {
	ns     float64
	bytes  float64
	allocs float64
	// memOK reports whether any entry carried -benchmem fields; without
	// them bytes/allocs are parser zeros, not measurements.
	memOK bool
	ok    bool
	cpu   string // where the entries were recorded
}

// result is one guarded benchmark's verdict.
type result struct {
	name      string
	base, cur sample
	delta     float64 // (cur-base)/base over ns/op
	status    string  // "ok", "regression", "improvement", "no-baseline", ...
	memNote   string  // non-empty when an allocation metric regressed
	otherCPU  bool    // baseline from another CPU: ns/op carries no verdict
}

// minSample returns the per-metric minimum over every multi-iteration
// entry named name. Single-iteration entries come from the
// -benchtime=1x smoke sweep, where warmup effects dominate; mixing them
// into a min would bias the comparison, so they are skipped.
func minSample(d *Document, name string) sample {
	var s sample
	for _, b := range d.Benchmarks {
		if b.Name != name || b.NsPerOp <= 0 || b.Iterations < 2 {
			continue
		}
		if !s.ok {
			s = sample{ns: b.NsPerOp, bytes: b.BytesPerOp, allocs: b.AllocsPerOp, ok: true, cpu: b.CPU}
		} else {
			if b.NsPerOp < s.ns {
				s.ns = b.NsPerOp
			}
			if b.BytesPerOp < s.bytes {
				s.bytes = b.BytesPerOp
			}
			if b.AllocsPerOp < s.allocs {
				s.allocs = b.AllocsPerOp
			}
		}
		if b.AllocsPerOp > 0 || b.BytesPerOp > 0 {
			s.memOK = true
		}
	}
	return s
}

// memRegressed reports whether cur exceeds base by more than the
// fractional tolerance plus half a unit (so a 0 baseline demands an
// exact 0, and integer counting metrics absorb rounding).
func memRegressed(base, cur, tol float64) bool {
	return cur > base*(1+tol)+0.5
}

// compare evaluates the guarded benchmarks. failed reports a regression
// beyond tol — in ns/op only against a baseline from the current run's
// CPU, in allocs/op and B/op against any — or a guarded benchmark
// missing from the current run.
func compare(base, cur *Document, names []string, tol float64) (results []result, failed bool) {
	for _, name := range names {
		c := minSample(cur, name)
		if !c.ok {
			results = append(results, result{name: name, status: "missing from current run"})
			failed = true
			continue
		}
		b := minSample(base, name)
		if !b.ok {
			results = append(results, result{name: name, cur: c, status: "no-baseline"})
			continue
		}
		r := result{name: name, base: b, cur: c, delta: (c.ns - b.ns) / b.ns, otherCPU: b.cpu != c.cpu}
		switch {
		case r.otherCPU:
			r.status = "ok"
		case r.delta > tol:
			r.status = "regression"
			failed = true
		case r.delta < -tol:
			r.status = "improvement"
		default:
			r.status = "ok"
		}
		// Allocation guard: only when both sides actually measured memory
		// (-benchmem on both runs). Timings drift with load; allocation
		// counts should not.
		if b.memOK && c.memOK {
			if memRegressed(b.allocs, c.allocs, tol) {
				r.memNote = fmt.Sprintf("allocs/op %.1f -> %.1f", b.allocs, c.allocs)
				r.status = "regression"
				failed = true
			} else if memRegressed(b.bytes, c.bytes, tol) {
				r.memNote = fmt.Sprintf("B/op %.0f -> %.0f", b.bytes, c.bytes)
				r.status = "regression"
				failed = true
			}
		}
		results = append(results, r)
	}
	return results, failed
}

func render(results []result, tol float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %14s %14s %8s %12s  %s\n", "benchmark", "baseline ns/op", "current ns/op", "delta", "allocs/op", "verdict")
	for _, r := range results {
		if !r.base.ok {
			fmt.Fprintf(&sb, "%-32s %14s %14.0f %8s %12s  %s\n", r.name, "-", r.cur.ns, "-", "-", r.status)
			continue
		}
		allocs := fmt.Sprintf("%.0f->%.0f", r.base.allocs, r.cur.allocs)
		verdict := r.status
		if r.memNote != "" {
			verdict += " (" + r.memNote + ")"
		}
		if r.otherCPU {
			verdict += fmt.Sprintf(" (ns/op not compared: baseline CPU %q)", r.base.cpu)
		}
		fmt.Fprintf(&sb, "%-32s %14.0f %14.0f %+7.1f%% %12s  %s\n", r.name, r.base.ns, r.cur.ns, 100*r.delta, allocs, verdict)
	}
	fmt.Fprintf(&sb, "tolerance: +-%.0f%% (ns/op, allocs/op, B/op)\n", 100*tol)
	return sb.String()
}

// mergeBaselines folds successor baselines into the first: every
// benchmark a later document measured replaces all earlier entries of
// that name. Baselines may come from different hardware: every entry
// carries its own document's CPU.
func mergeBaselines(docs []*Document) *Document {
	merged := &Document{}
	for _, d := range docs {
		remeasured := map[string]bool{}
		for _, b := range d.Benchmarks {
			remeasured[b.Name] = true
		}
		kept := merged.Benchmarks[:0:0]
		for _, b := range merged.Benchmarks {
			if !remeasured[b.Name] {
				kept = append(kept, b)
			}
		}
		merged.Benchmarks = append(kept, d.Benchmarks...)
	}
	return merged
}

func load(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range d.Benchmarks {
		d.Benchmarks[i].CPU = d.CPU
	}
	return &d, nil
}

// splitList splits a comma-separated flag value, trimming each item.
func splitList(s string) []string {
	items := strings.Split(s, ",")
	for i := range items {
		items[i] = strings.TrimSpace(items[i])
	}
	return items
}

// guard is the compare mode: the current document against the merged
// baselines, one verdict per guarded benchmark.
func guard(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "BENCH_5.json", "committed baseline documents, comma-separated, successors last")
	current := fs.String("current", "BENCH_guard.json", "fresh run to compare (a `benchguard json` document)")
	tol := fs.Float64("tolerance", 0.20, "allowed fractional drift before failing")
	bench := fs.String("bench", "", "comma-separated guarded benchmark names, without the Benchmark prefix")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bench == "" {
		fmt.Fprintln(stderr, "benchguard: -bench names no benchmark")
		return 2
	}

	var baselines []*Document
	for _, path := range splitList(*baseline) {
		d, err := load(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchguard: %v\n", err)
			return 1
		}
		baselines = append(baselines, d)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 1
	}
	results, failed := compare(mergeBaselines(baselines), cur, splitList(*bench), *tol)
	fmt.Fprint(stdout, render(results, *tol))
	if failed {
		fmt.Fprintln(stdout, "benchguard: FAIL")
		return 1
	}
	fmt.Fprintln(stdout, "benchguard: ok")
	return 0
}
