// benchguard compares a fresh benchmark run against the committed
// baseline (BENCH_5.json and successors) and fails when a guarded
// benchmark regresses beyond the tolerance — in time (ns/op) or in
// allocation (allocs/op, B/op). It reads the JSON documents produced by
// scripts/bench2json; with -count > 1 the same benchmark appears
// several times and the minimum of each metric is used on both sides,
// which discounts scheduler noise without hiding real regressions.
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
// Usage:
//
//	go run ./scripts/benchguard -baseline BENCH_5.json,BENCH_14.json -current BENCH_guard.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Benchmark and Document mirror the fields of scripts/bench2json that
// the guard consumes.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// CPU is the entry's document's, set by load.
	CPU string `json:"-"`
}

type Document struct {
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
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

func main() {
	baseline := flag.String("baseline", "BENCH_5.json", "committed baseline documents (bench2json format), comma-separated, successors last")
	current := flag.String("current", "BENCH_guard.json", "fresh run to compare (bench2json format)")
	tol := flag.Float64("tolerance", 0.20, "allowed fractional drift before failing")
	bench := flag.String("bench",
		"CompileDomains1000,CompileDomains10000,CheckParallel1,CheckParallel8,CheckWarmCache,ChangeContractCheck,CheckDomains10000,CheckParallel10k1,CheckParallel10k8,MemAgentRoundTrip,MegaFleetInstall,ConfigGen20k,ConfigCodecMarshal,ConfigCodecUnmarshal,CheckDomains100k,CheckDomains100kWarmDelta,MegaFleetInstall25k",
		"comma-separated guarded benchmark names (bench2json names, no Benchmark prefix)")
	flag.Parse()

	var baselines []*Document
	for _, path := range strings.Split(*baseline, ",") {
		d, err := load(strings.TrimSpace(path))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(1)
		}
		baselines = append(baselines, d)
	}
	base := mergeBaselines(baselines)
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
	names := strings.Split(*bench, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	results, failed := compare(base, cur, names, *tol)
	fmt.Print(render(results, *tol))
	if failed {
		fmt.Println("benchguard: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchguard: ok")
}
