// Command bench is the repository's benchmark: four workloads that take
// NMSL specification text through the compiler, the consistency
// checker, the configuration generators and a fleet of in-memory SNMP
// agents, verify every output against answers known by construction,
// and report the end-to-end and per-layer metrics BENCHMARK.json names.
// README.md says why each workload and metric was chosen.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; the last line is its JSON result
//	bench [--trace 1] [--runs K]                          every workload, each run in a child process
//	bench -compare A.json B.json                          hold two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var cfg config
	var trace, runs int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run this workload only and print its JSON result as the last line")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the inputs: inconsistency placement, edit stream, fault schedules")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass (per-layer metrics, span file) instead of the untraced one")
	flag.StringVar(&cfg.scale, "scale", "full", "input sizes: full or smoke")
	flag.IntVar(&cfg.conc, "conc", 2, "check, rollout and sweep workers (capped at the CPU count)")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for results.json, span files and journals")
	flag.IntVar(&runs, "runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files given as arguments")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case compare:
		err = compareFiles(flag.Args(), "BENCHMARK.json")
	case cfg.workload != "":
		err = runOne(cfg)
	default:
		err = runAll(cfg, runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

const minOps = 3

// execute runs one workload in this process: set-up (several times, to
// time it), then operations for the run's seconds, then the metrics.
func execute(cfg config) (*result, error) {
	newWorkload, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%d", os.Getpid())))

	w := newWorkload()
	reps := r.sz.setupReps
	if r.tr != nil {
		reps = 1 // the traced pass reports no set-up time
	}
	var setups []float64
	for k := 0; k < reps; k++ {
		runtime.GC()
		r.reseed()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	gc0 := readGC()
	start := time.Now()
	for i := 0; ; i++ {
		if max := w.maxOps(r); max > 0 && i >= max {
			break
		}
		// A median needs three operations, however long one takes.
		if i >= minOps && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		if r.tr != nil {
			r.tr.op(i, func() { err = w.op(r, i) })
		} else {
			err = w.op(r, i)
		}
		if err != nil {
			return nil, fmt.Errorf("%s operation %d: %w", cfg.workload, i, err)
		}
	}
	gc1 := readGC()

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "bench: wrong output:", f)
	}
	defs, values := endToEnd, r.endToEndValues(setups, gc0, gc1)
	if r.tr != nil {
		defs, values = perLayer, r.perLayerValues(gc0, gc1)
		if err := r.tr.flush(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
		if share := values["trace.layer_sum_share"]; share < 0.95 {
			return nil, fmt.Errorf("%s: layer self times cover only %.1f%% of an operation's span, want 95%%", cfg.workload, 100*share)
		}
	}
	for _, def := range defs {
		res.Metrics[def.name] = metricValue{Value: values[def.name], Unit: def.unit}
	}
	printResult(cfg.workload, defs, res, len(r.samples))
	return res, nil
}

// printResult prints one "<workload> <metric> <value> <unit>" line per
// metric; timings carry the number of samples behind them.
func printResult(workload string, defs []metricDef, res *result, samples int) {
	for _, def := range defs {
		fmt.Printf("%s %s %.6g %s n=%d\n", workload, def.name, res.Metrics[def.name].Value, def.unit, samples)
	}
	fmt.Printf("%s verified %d outputs, %d wrong\n", workload, res.Attempted, res.Failed)
}

func runOne(cfg config) error {
	res, err := execute(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d verified outputs were wrong", cfg.workload, res.Failed, res.Attempted)
	}
	return nil
}

// runRecord is one child run in results.json.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

// resultsFile is what runAll writes and compareFiles reads.
type resultsFile struct {
	Scale   string      `json:"scale"`
	Seconds float64     `json:"seconds"`
	Conc    int         `json:"conc"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload in a child process of its own, so that
// peak memory and collector state belong to one workload, untraced and,
// with -trace 1, traced as well.
func runAll(cfg config, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultsFile{Scale: cfg.scale, Seconds: cfg.seconds, Conc: cfg.conc}
	passes := []bool{false}
	if cfg.trace {
		passes = append(passes, true)
	}
	for _, name := range workloadNames {
		for k := 0; k < runs; k++ {
			seed := cfg.seed + int64(k)
			for _, traced := range passes {
				trace := "0"
				if traced {
					trace = "1"
				}
				cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace,
					"--scale", cfg.scale, "--conc", fmt.Sprint(cfg.conc), "--out", cfg.outDir)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				lines := splitLines(stdout)
				if len(lines) > 0 {
					for _, l := range lines[:len(lines)-1] {
						fmt.Println(l)
					}
				}
				if err != nil {
					return fmt.Errorf("%s seed %d trace %s: %w", name, seed, trace, err)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s: last line is not a result: %w", name, err)
				}
				out.Runs = append(out.Runs, runRecord{Workload: name, Seed: seed, Trace: traced, Result: &res})
			}
		}
		if cfg.trace {
			printOverhead(name, out.Runs)
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "results.json"), data, 0o644)
}

// printOverhead sets a workload's traced operation (probes left out)
// beside its untraced one: the difference is what tracing costs.
func printOverhead(name string, runs []runRecord) {
	var untraced, traced []float64
	for _, rr := range runs {
		switch {
		case rr.Workload != name:
		case rr.Trace:
			traced = append(traced, rr.Result.Metrics["trace.op_ms"].Value)
		default:
			untraced = append(untraced, rr.Result.Metrics["op_ms"].Value)
		}
	}
	u, t := median(untraced), median(traced)
	fmt.Printf("%s tracing overhead: operation %.6g ms untraced, %.6g ms traced (%+.1f%%)\n", name, u, t, 100*(t-u)/u)
}

func splitLines(b []byte) []string {
	return strings.Split(strings.TrimSpace(string(b)), "\n")
}
