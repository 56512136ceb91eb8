package main

import (
	"math"
	"runtime"
	"strings"
)

// metricDef names one metric of BENCHMARK.json; the file's bounds and
// directions are read from there, not repeated here.
type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees of one workload, in the
// unit of work that workload stands for ("operation"): a whole pipeline
// from text to converged fleet, one edit's verdict, one full re-check,
// one lossy rollout with its repair. Every workload reports every one.
var endToEnd = []metricDef{
	// The usual time of one operation: the run's operations are cut
	// into (at most) ten consecutive batches, and this is the median of
	// the batches' mean times. A plain median of operations sits between
	// the two modes of a short operation (with and without a collector
	// cycle) and jumps from one to the other between runs.
	{"op_ms", "ms"},
	// The tail: the median of the same batches' 90th percentiles, when
	// the run holds at least 300 operations (thirty to a batch, three
	// beyond each percentile). With fewer there is no tail steady enough
	// to gate and this repeats op_ms: a 90th percentile over edit-1k's
	// 150 operations moved by 12 % between runs.
	{"op_ms_p90", "ms"},
	// Heap allocated per operation: the cost that carries from one
	// machine to the next.
	{"alloc_mb_per_op", "MB"},
	// Heap still live after a full collection at the fullest point of
	// each of the run's first three operations (their median). The
	// collector lets the process grow to about twice this.
	// (The peak resident set itself moves by 20 % between identical
	// runs, with the timing of collector cycles; it is reported per
	// layer as runtime.peak_rss_mb.)
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced pass's metrics, layer by layer (the part
// before the dot is the module). A workload that never enters a layer
// reports its metrics as 0.
var perLayer = []metricDef{
	{"lexer.scan_ns", "ns"},
	{"lexer.tokens", "count"},
	{"lexer.ns_per_token", "ns"},

	{"parser.parse_ns", "ns"},
	{"parser.ns_per_line", "ns"},
	{"parser.decls", "count"},

	{"sema.analyze_ns", "ns"},
	{"sema.finish_ns", "ns"},
	{"sema.ns_per_line", "ns"},
	{"sema.diff_ns", "ns"},

	{"consistency.model_build_ns", "ns"},
	{"consistency.instances", "count"},
	{"consistency.refs", "count"},
	{"consistency.perms", "count"},
	{"consistency.check_cold_ns", "ns"},
	{"consistency.cold_build_ns", "ns"},
	{"consistency.check_ns", "ns"},
	{"consistency.ns_per_ref", "ns"},
	{"consistency.violations", "count"},
	{"consistency.check_serial_ns", "ns"},
	{"consistency.check_par_ratio", "ratio"},
	{"consistency.check_allocs", "count"},
	{"consistency.check_bytes", "B"},
	{"consistency.delta_ns", "ns"},
	{"consistency.delta_reproved_share", "ratio"},
	{"consistency.cache_hit_ratio", "ratio"},

	{"changespec.check_ns", "ns"},

	{"configgen.generate_ns", "ns"},
	{"configgen.generate_ns_per_agent", "ns"},
	{"configgen.configs", "count"},
	{"configgen.write_ns", "ns"},
	{"configgen.config_bytes", "B"},
	{"configgen.rollout_ns", "ns"},
	{"configgen.waves", "count"},
	{"configgen.rollout_attempts", "count"},
	{"configgen.rollout_retries", "count"},
	{"configgen.rollout_failed", "count"},
	{"configgen.attempts_per_install", "ratio"},
	{"configgen.installs_per_s", "1/s"},
	{"configgen.journal_bytes", "B"},
	{"configgen.journal_share", "ratio"},

	{"snmp.install_pdu_bytes", "B"},
	{"snmp.ber_marshal_ns", "ns"},
	{"snmp.ber_unmarshal_ns", "ns"},
	{"snmp.agent_handle_get_ns", "ns"},
	{"snmp.agent_apply_ns", "ns"},
	{"snmp.roundtrip_ns", "ns"},
	{"snmp.agent_requests", "count"},
	{"snmp.agent_retransmit_hits", "count"},
	{"snmp.agent_config_loads", "count"},
	{"snmp.duplicate_loads", "count"},
	{"snmp.faults_dropped", "count"},
	{"snmp.faults_duplicated", "count"},

	{"reconcile.new_ns", "ns"},
	{"reconcile.sweeps", "count"},
	{"reconcile.sweep_ns", "ns"},
	{"reconcile.ns_per_target", "ns"},
	{"reconcile.healed", "count"},
	{"reconcile.check_failed", "count"},
	{"reconcile.breakers_open", "count"},

	{"megafleet.fleet_build_ns", "ns"},
	{"megafleet.bytes_per_agent", "B"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ns", "ns"},
	{"runtime.heap_inuse_peak_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.cpu_ms_per_op", "ms"},

	// The stages of pipeline-10k, as the untraced operation times them.
	{"stage.verdict_ms", "ms"},
	{"stage.configs_ms", "ms"},
	{"stage.converge_ms", "ms"},

	// Where a traced operation's time went: each layer's self time
	// (span minus child spans), probes left out.
	{"parser.self_ms", "ms"},
	{"sema.self_ms", "ms"},
	{"consistency.self_ms", "ms"},
	{"changespec.self_ms", "ms"},
	{"configgen.self_ms", "ms"},
	{"reconcile.self_ms", "ms"},
	{"megafleet.self_ms", "ms"},
	{"bench.self_ms", "ms"},
	{"trace.ops", "count"},
	{"trace.op_ms", "ms"},
	{"trace.layer_sum_share", "ratio"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gcStats is the part of runtime.MemStats the runtime.* metrics use.
type gcStats struct {
	cycles     uint32
	pauseNs    uint64
	totalAlloc uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc}
}

// batchMedian cuts vs into at most ten consecutive batches of equal
// size (to within one), reduces each with stat, and returns the median
// of the results. A slow minute of the machine then spoils some batches
// and not the statistic, where it would supply the whole tail of a
// percentile taken over the run.
func batchMedian(vs []float64, stat func([]float64) float64) float64 {
	n := len(vs)
	batches := 10
	if n < batches {
		batches = n
	}
	stats := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		stats = append(stats, stat(vs[b*n/batches:(b+1)*n/batches]))
	}
	return median(stats)
}

func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// opTimes returns the wall and CPU times of the run's operations, in ms.
func (r *run) opTimes() (wall, cpu []float64) {
	for _, s := range r.samples {
		wall = append(wall, ms(s.wall))
		cpu = append(cpu, ms(s.cpu))
	}
	return wall, cpu
}

// endToEndValues computes the untraced pass's metrics; gc0 and gc1
// bracket the operations.
func (r *run) endToEndValues(setups []float64, gc0, gc1 gcStats) map[string]float64 {
	wall, _ := r.opTimes()
	out := map[string]float64{
		"op_ms":           batchMedian(wall, mean),
		"alloc_mb_per_op": float64(gc1.totalAlloc-gc0.totalAlloc) / (1 << 20) / float64(len(wall)),
		"live_heap_mb":    median(r.liveHeaps) / (1 << 20),
		"setup_s":         median(setups),
	}
	out["op_ms_p90"] = out["op_ms"]
	if len(wall) >= 300 {
		out["op_ms_p90"] = batchMedian(wall, func(vs []float64) float64 { return percentile(vs, 0.9) })
	}
	return out
}

// perLayerValues computes the traced pass's metrics from the spans and
// the per-operation observations; gc0 and gc1 bracket the operations.
func (r *run) perLayerValues(gc0, gc1 gcStats) map[string]float64 {
	out := map[string]float64{}
	for _, def := range perLayer {
		if vs, ok := r.obs[def.name]; ok {
			out[def.name] = median(vs)
		} else if span, ok := strings.CutSuffix(def.name, "_ns"); ok {
			out[def.name] = median(r.tr.durations(span))
		} else {
			out[def.name] = 0
		}
	}
	if cold, warm := out["consistency.check_cold_ns"], out["consistency.check_ns"]; cold > 0 && warm > 0 {
		out["consistency.cold_build_ns"] = cold - warm
	}

	ops := r.tr.accounts()
	self := map[string][]float64{}
	var core []float64
	share := 1.0
	for _, a := range ops {
		core = append(core, ms(a.core))
		for _, def := range perLayer {
			if layer, ok := strings.CutSuffix(def.name, ".self_ms"); ok {
				self[def.name] = append(self[def.name], ms(a.layers[layer]))
			}
		}
		share = math.Min(share, 1-float64(a.unattributed)/float64(a.total))
	}
	for name, vs := range self {
		out[name] = median(vs)
	}
	out["trace.ops"] = float64(len(ops))
	out["trace.op_ms"] = median(core)
	out["trace.layer_sum_share"] = share

	out["runtime.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	out["runtime.gc_pause_ns"] = float64(gc1.pauseNs - gc0.pauseNs)
	out["runtime.heap_inuse_peak_mb"] = float64(r.heapPeak) / (1 << 20)
	_, cpu := r.opTimes()
	out["runtime.cpu_ms_per_op"] = batchMedian(cpu, mean)
	out["runtime.peak_rss_mb"] = 0
	if rss, err := peakRSSMB(); err == nil {
		out["runtime.peak_rss_mb"] = rss
	}
	return out
}
