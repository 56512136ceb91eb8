package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload at smoke scale, untraced and traced,
// and checks what a run promises: every metric of the pass is reported
// once with its unit, every verified output was right, and (execute
// fails otherwise) the layer self times account for each operation.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 1, trace: traced, scale: "smoke", conc: 2, outDir: t.TempDir()}
			res, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d outputs wrong", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(cfg.outDir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				got, ok := res.Metrics[def.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, def.name)
				case got.Unit != def.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", name, def.name, got.Unit, def.unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, def.name, got.Value)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", name, def.name, got.Value)
				}
			}
			if traced {
				if got := res.Metrics["trace.layer_sum_share"].Value; got < 0.95 {
					t.Errorf("%s: layer self times cover %.3f of an operation", name, got)
				}
			}
		}
	}
}

// TestPipelineStagesSumToOperation holds the stage split of a traced
// pipeline operation against its whole: verdict + configs + converge is
// the time of the operation's timed sections within 2 %.
func TestPipelineStagesSumToOperation(t *testing.T) {
	dir := t.TempDir()
	res, err := execute(config{workload: "pipeline-10k", seed: 1, seconds: 1, trace: true, scale: "smoke", conc: 2, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/trace-pipeline-10k.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	whole := 0.0
	for i := range spans {
		if spans[i].Name == timedSpan {
			whole += ms(spans[i].dur())
		}
	}
	m := res.Metrics
	stages := m["stage.verdict_ms"].Value + m["stage.configs_ms"].Value + m["stage.converge_ms"].Value
	if whole == 0 || math.Abs(stages-whole) > 0.02*whole {
		t.Errorf("stages sum to %.3f ms, the operation's timed sections to %.3f ms", stages, whole)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json against the metric tables the
// program reports from and against the limits of the file's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program reports %d", kind, len(got), len(want))
			return
		}
		for i, e := range got {
			if e.Name != want[i].name || e.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)", kind, i, e.Name, e.Unit, want[i].name, want[i].unit)
			}
			if seen[e.Name] || !nameRE.MatchString(e.Name) || !unitRE.MatchString(e.Unit) {
				t.Errorf("%s: bad or repeated name %q or unit %q", kind, e.Name, e.Unit)
			}
			seen[e.Name] = true
			if e.Better != "lower" && e.Better != "higher" {
				t.Errorf("%s: better is %q", e.Name, e.Better)
			}
			if bounded != (e.Bound != nil) || (bounded && (*e.Bound <= 0 || *e.Bound > 0.25)) {
				t.Errorf("%s: bound %v", e.Name, e.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestRecordedInputs regenerates every workload's inputs at seed 1 and
// holds their hashes against inputs.json, so that a change to netsim or
// to the generators cannot pass for the same workload. After a
// deliberate change, BENCH_UPDATE_INPUTS=1 go test -run RecordedInputs
// rewrites the file.
func TestRecordedInputs(t *testing.T) {
	got := map[string]string{}
	for scale := range scales {
		for _, name := range workloadNames {
			r, err := newRun(config{workload: name, seed: 1, scale: scale, conc: 2, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			r.record = got
			r.reseed()
			if err := workloads[name]().setup(r); err != nil {
				t.Fatalf("%s/%s: %v", scale, name, err)
			}
		}
	}
	if os.Getenv("BENCH_UPDATE_INPUTS") == "1" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("inputs.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := recordedInputs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("generated inputs hash to\n%v\ninputs.json records\n%v", got, want)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(v, n=4).
	for _, tc := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{10, 12, 11, 15, 9, 10.5, 13}, 0.2727272727272727},
		{[]float64{1, 2}, 1},
		{[]float64{3, 1, 2, 4, 10, 6, 5, 8, 7, 9}, 1},
		{[]float64{5}, 0},
	} {
		if got := spread(tc.vs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.vs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := bound{Name: "rate", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		a, b []float64
		bd   bound
		want string
	}{
		{[]float64{100}, []float64{105}, lower, "ok"},
		{[]float64{100}, []float64{111}, lower, "worse"},
		{[]float64{100}, []float64{80}, lower, "ok"},
		{[]float64{100}, []float64{80}, higher, "worse"},
		// A's own runs spread by more than the bound and B falls among
		// them: nothing can be said.
		{[]float64{80, 100, 120, 140}, []float64{105, 115}, lower, "unresolved"},
		// Same spread, but every run of B beats every run of A.
		{[]float64{80, 100, 120, 140}, []float64{60, 70}, lower, "ok"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.bd); got != tc.want {
			t.Errorf("verdict(%v, %v, better %s) = %s, want %s", tc.a, tc.b, tc.bd.Better, got, tc.want)
		}
	}
}

// TestTracerAccounts builds a small span tree by hand and checks self
// times, the probe-free core and the unattributed remainder.
func TestTracerAccounts(t *testing.T) {
	tr := newTracer()
	sleep := func(d time.Duration) func() { return func() { time.Sleep(d) } }
	tr.do("parser.parse", sleep(time.Millisecond)) // set-up: belongs to no operation
	tr.op(0, func() {
		tr.do(timedSpan, func() {
			tr.probe("lexer.scan", sleep(2*time.Millisecond))
			tr.do("parser.parse", sleep(3*time.Millisecond))
		})
		tr.do("megafleet.fleet_build", sleep(time.Millisecond))
		tr.probe("bench.memstats", func() { tr.do("consistency.check", sleep(time.Millisecond)) })
		time.Sleep(time.Millisecond)
	})
	ops := tr.accounts()
	if len(ops) != 1 {
		t.Fatalf("%d operations, want 1", len(ops))
	}
	a := ops[0]
	near := func(what string, got time.Duration, wantMS float64) {
		t.Helper()
		if ms := float64(got) / 1e6; ms < wantMS || ms > wantMS+1.5 {
			t.Errorf("%s = %.2f ms, want about %.0f ms", what, ms, wantMS)
		}
	}
	near("total", a.total, 8)
	near("core", a.core, 3)
	near("parser self", a.layers["parser"], 3)
	near("megafleet self", a.layers["megafleet"], 1)
	near("unattributed", a.unattributed, 1)
	if a.layers["lexer"] != 0 || a.layers["consistency"] != 0 {
		t.Errorf("probe spans counted as layer time: %v", a.layers)
	}
}
