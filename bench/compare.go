package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func (rf *resultsFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, rr := range rf.Runs {
		if rr.Workload == workload && !rr.Trace {
			vs = append(vs, rr.Result.Metrics[metric].Value)
		}
	}
	return vs
}

// spread is the distance between the quartiles as a share of the
// median; it is 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	// the exclusive method of Python's statistics.quantiles(n=4)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// verdict judges B against A for one metric. worse: B's median is
// beyond the bound. unresolved: the bound is narrower than A's own
// run-to-run spread and the two sets of runs overlap, so neither
// "unchanged" nor "changed" can be said.
func verdict(a, b []float64, bd bound) (change float64, v string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	worse := change
	if bd.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > bd.Bound:
		return change, "worse"
	case spread(a) > bd.Bound && overlap(a, b):
		return change, "unresolved"
	}
	return change, "ok"
}

// overlap reports whether the ranges of a and b intersect.
func overlap(a, b []float64) bool {
	return percentile(a, 0) <= percentile(b, 1) && percentile(b, 0) <= percentile(a, 1)
}

// compareFiles prints one row per (workload, end-to-end metric) and
// fails if any is worse.
func compareFiles(args []string, benchmarkJSON string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two results.json files, got %d arguments", len(args))
	}
	bounds, err := readBounds(benchmarkJSON)
	if err != nil {
		return err
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "spreadA", "verdict")
	nWorse := 0
	for _, name := range workloadNames {
		for _, bd := range bounds {
			va, vb := a.values(name, bd.Name), b.values(name, bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing from one of the files", name, bd.Name)
			}
			change, v := verdict(va, vb, bd)
			if v == "worse" {
				nWorse++
			}
			fmt.Printf("%-13s %-14s %12.6g %12.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				name, bd.Name, median(va), median(vb), 100*change, 100*bd.Bound, 100*spread(va), v)
		}
	}
	if nWorse > 0 {
		return fmt.Errorf("%d (workload, metric) pairs are worse than their bound allows", nWorse)
	}
	return nil
}
