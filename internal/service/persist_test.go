package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"nmsl/internal/netsim"
	"nmsl/internal/obs"
)

// TestFlushLoopPanicContained: a panic in a background flush tick is
// counted in nmsl_panics_total{site="nmsld"}, the flusher keeps
// ticking, and Close still persists and reports its own Flush.
func TestFlushLoopPanicContained(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var ticks atomic.Int32
	fourth := make(chan struct{})
	s, err := New(WithStateDir(dir), WithMetrics(reg), WithFlushInterval(time.Millisecond),
		withFlush(func() error {
			switch ticks.Add(1) {
			case 1, 2:
				panic("flush tick boom")
			case 4:
				close(fourth)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 3}
	if _, err := s.UpdateSpec(ctx, "acme", specReqFor(p)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Check(ctx, "acme", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fourth:
	case <-time.After(10 * time.Second):
		t.Fatalf("the flusher stopped after %d ticks", ticks.Load())
	}
	if got := reg.Snapshot().Value(obs.L(obs.MetricPanics, "site", "nmsld")); got != 2 {
		t.Errorf("nmsl_panics_total{site=nmsld} = %d, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tenants", "acme", "cache.json")); err != nil {
		t.Errorf("Close did not persist the dirty cache: %v", err)
	}
}

// FuzzLoadTenant writes the fuzzed bytes as a tenant's spec.json and
// starts a Service on the state directory: it must return an error or
// a service, never panic. Seeded with a spec.json a Service wrote, a
// truncated copy and one with the wrong version.
func FuzzLoadTenant(f *testing.F) {
	seedDir := f.TempDir()
	s, err := New(WithStateDir(seedDir), WithMetrics(obs.Disabled), WithFlushInterval(0))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.UpdateSpec(context.Background(), "seed", specReqFor(netsim.Params{Domains: 2, SystemsPerDomain: 1, Seed: 1})); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	persisted, err := os.ReadFile(filepath.Join(seedDir, "tenants", "seed", "spec.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(persisted)
	f.Add(persisted[:len(persisted)/2])
	f.Add(bytes.Replace(persisted, []byte(`"version":1`), []byte(`"version":2`), 1))
	// One state directory per fuzzing process, rewritten by each input:
	// a process runs its inputs one at a time.
	dir := f.TempDir()
	tenant := filepath.Join(dir, "tenants", "t1")
	if err := os.MkdirAll(tenant, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(tenant, "spec.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(WithStateDir(dir), WithMetrics(obs.Disabled), WithFlushInterval(0))
		if err != nil {
			return
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
