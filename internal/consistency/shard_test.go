package consistency

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nmsl/internal/logic"
	"nmsl/internal/obs"
	"nmsl/internal/paperspec"
)

// checkParallel runs CheckContext with the given options and fails the
// test on error.
func checkParallel(t *testing.T, m *Model, opts Options) *Report {
	t.Helper()
	rep, err := CheckContext(context.Background(), m, opts)
	if err != nil {
		t.Fatalf("CheckContext: %v", err)
	}
	return rep
}

func TestShardRefsCoverAndAlign(t *testing.T) {
	// Refs with target runs A A B B B C: boundaries must not split runs.
	a := &Instance{ID: "a"}
	b := &Instance{ID: "b"}
	c := &Instance{ID: "c"}
	var refs []Ref
	for _, tgt := range []*Instance{a, a, b, b, b, c} {
		refs = append(refs, Ref{Target: tgt})
	}
	for nshards := 1; nshards <= 8; nshards++ {
		shards := shardRefs(nil, refs, nshards)
		next := 0
		for _, sh := range shards {
			if sh[0] != next || sh[1] <= sh[0] {
				t.Fatalf("nshards=%d: non-contiguous shards %v", nshards, shards)
			}
			if sh[0] > 0 && refs[sh[0]].Target == refs[sh[0]-1].Target {
				t.Fatalf("nshards=%d: shard boundary splits a target run: %v", nshards, shards)
			}
			next = sh[1]
		}
		if next != len(refs) {
			t.Fatalf("nshards=%d: shards %v do not cover %d refs", nshards, shards, len(refs))
		}
	}
	if got := shardRefs(nil, nil, 4); got != nil {
		t.Fatalf("empty refs: %v", got)
	}
}

// serialCheck is the reference the one check loop is held to: checkRef
// per reference in model order, then the proxy and unresolved-target
// tail — the serial checker the loop replaced, kept here as the oracle.
func serialCheck(m *Model) *Report {
	chk := NewChecker(m)
	rep := &Report{Model: m}
	var sc scratch
	for i := range m.Refs {
		chk.checkRef(&m.Refs[i], &rep.Violations, &sc)
	}
	rep.RefsChecked = len(m.Refs)
	chk.checkProxies(&rep.Violations)
	for i := range m.Unresolved {
		rep.Violations = append(rep.Violations, unresolvedViolation(&m.Unresolved[i]))
	}
	return rep
}

// serialLogicCheck is serialCheck for the logic engine: one solver over
// db, logicCheckRef per reference, then the unresolved-target tail (the
// logic engine never checked proxies).
func serialLogicCheck(m *Model, db *logic.DB) *Report {
	s := logic.NewSolver(db)
	rep := &Report{Model: m}
	for i := range m.Refs {
		logicCheckRef(m, s, &m.Refs[i], &rep.Violations)
	}
	rep.RefsChecked = len(m.Refs)
	for i := range m.Unresolved {
		rep.Violations = append(rep.Violations, unresolvedViolation(&m.Unresolved[i]))
	}
	return rep
}

// parityModels is the parity tables' input: the paper's specification,
// the package's inconsistent fixtures, and every testdata specification
// compiled with the proxies extension installed.
func parityModels(t *testing.T) map[string]*Model {
	t.Helper()
	models := map[string]*Model{
		"paper":          buildModel(t, paperspec.Combined),
		"withoutExports": buildModel(t, withoutExports),
		"freq":           buildModel(t, freqSpec),
		"proxy":          buildWithProxy(t, proxySpecSrc),
	}
	ext, err := os.ReadFile("../../testdata/proxy.nmslext")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("../../testdata/*.nmsl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specifications: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		models[filepath.Base(path)] = buildWithExt(t, string(ext), string(src))
	}
	return models
}

// TestParallelParity holds the one check loop to the serial oracles: a
// Report byte-identical to serialCheck from Check, Checker.Check,
// CheckDelta's full fallback and CheckContext at every worker count,
// and under the logic engine one byte-identical to the printed program
// solved serially, on consistent and inconsistent specifications.
func TestParallelParity(t *testing.T) {
	for name, m := range parityModels(t) {
		t.Run(name, func(t *testing.T) {
			serial := serialCheck(m).String()
			want := serialLogicCheck(m, BuildDBRecursive(m)).String()
			for _, w := range []int{1, 2, 4, 8} {
				if got := checkParallel(t, m, Options{Workers: w, Engine: EngineLogic}).String(); got != want {
					t.Errorf("workers=%d logic engine diverges from the program:\n%s\nvs\n%s", w, got, want)
				}
			}
			cached := NewChecker(m)
			cached.Cache = NewResultCache()
			got := map[string]string{
				"Check":                 Check(m).String(),
				"cold cached Check":     cached.Check().String(),
				"warm cached Check":     cached.Check().String(),
				"CheckDelta(nil, full)": NewChecker(m).CheckDelta(nil, &ModelDelta{Full: true}).String(),
			}
			for _, w := range []int{1, 2, 4, 8} {
				got[fmt.Sprintf("workers=%d", w)] = checkParallel(t, m, Options{Workers: w}).String()
				got[fmt.Sprintf("workers=%d metrics off", w)] = checkParallel(t, m, Options{Workers: w, Metrics: obs.Disabled}).String()
			}
			for how, rep := range got {
				if rep != serial {
					t.Errorf("%s diverges from the serial oracle:\n%s\nvs\n%s", how, rep, serial)
				}
			}
		})
	}
}

func TestCheckContextCancelled(t *testing.T) {
	m := buildModel(t, freqSpec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := CheckContext(ctx, m, Options{Workers: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled check must still return the partial report")
	}
	if rep.RefsChecked != 0 {
		t.Errorf("pre-cancelled context checked %d refs", rep.RefsChecked)
	}
}

func TestOnViolationStreams(t *testing.T) {
	m := buildModel(t, withoutExports)
	var streamed []Violation
	rep := checkParallel(t, m, Options{Workers: 1, OnViolation: func(v Violation) {
		streamed = append(streamed, v)
	}})
	if len(streamed) != len(rep.Violations) {
		t.Fatalf("streamed %d violations, report has %d", len(streamed), len(rep.Violations))
	}
	// Single worker: streaming order equals report order.
	for i := range streamed {
		if streamed[i].String() != rep.Violations[i].String() {
			t.Errorf("streamed[%d] = %s, want %s", i, streamed[i], rep.Violations[i])
		}
	}
}

// TestCheckPanicContained: a panic in a check worker — here raised by
// OnViolation — halts the check and returns to the caller as an error
// carrying the panic value and the worker's stack, inline at one worker
// and from the pool at four, and is counted once in
// nmsl_panics_total{site="check"}. The entry points with no error result
// raise it again on the caller's goroutine instead of returning a
// partial Report.
func TestCheckPanicContained(t *testing.T) {
	m := buildModel(t, freqSpec)
	panics := obs.L(obs.MetricPanics, "site", "check")
	for _, w := range []int{1, 4} {
		reg := obs.NewRegistry()
		rep, err := CheckContext(context.Background(), m, Options{
			Workers:     w,
			OnViolation: func(Violation) { panic("boom") },
			Metrics:     reg,
		})
		var wp *obs.PanicError
		if !errors.As(err, &wp) || wp.Value != "boom" || !strings.Contains(err.Error(), "TestCheckPanicContained") {
			t.Errorf("workers=%d: err = %v, want the recovered panic with the worker's stack", w, err)
		}
		if got := reg.Snapshot().Value(panics); got != 1 {
			t.Errorf("workers=%d: %s = %d, want 1", w, panics, got)
		}
		if got := rep.Metrics.Value(panics); got != 1 {
			t.Errorf("workers=%d: the report's %s = %d, want 1", w, panics, got)
		}
	}
	if rep, err := CheckContext(context.Background(), m, Options{Workers: 4}); err != nil || rep.Metrics.Value(panics) != 0 {
		t.Errorf("a clean check counted a panic (err %v)", err)
	}

	prev := Check(m)
	chk := NewChecker(m)
	m.Refs[0].Target = nil // every step dereferences it
	for name, check := range map[string]func(){
		"Check":      func() { chk.Check() },
		"CheckDelta": func() { chk.CheckDelta(prev, &ModelDelta{Instances: []string{m.Instances[0].ID}}) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(*obs.PanicError); !ok {
					t.Errorf("%s did not re-raise the worker's panic", name)
				}
			}()
			check()
		}()
	}
}

func TestFailFast(t *testing.T) {
	m := buildModel(t, withoutExports)
	rep := checkParallel(t, m, Options{Workers: 2, FailFast: true})
	if rep.Consistent() {
		t.Fatal("fail-fast check missed the violations entirely")
	}
}

func TestViolationIsError(t *testing.T) {
	var err error = Violation{Kind: KindNoPermission, Message: "x"}
	if !strings.Contains(err.Error(), "no-permission") {
		t.Errorf("Error() = %q", err.Error())
	}
}

func TestReportSummary(t *testing.T) {
	m := buildModel(t, paperspec.Combined)
	if s := Check(m).Summary(); !strings.HasPrefix(s, "consistent:") {
		t.Errorf("summary: %q", s)
	}
	m2 := buildModel(t, withoutExports)
	s2 := Check(m2).Summary()
	if !strings.Contains(s2, "INCONSISTENT: 2 violations") || !strings.Contains(s2, "2 no-permission") {
		t.Errorf("summary: %q", s2)
	}
}
