package obs

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines waits for goroutines that have finished their work
// but not yet exited, and returns the count once it is at most want.
// Goroutines other tests left running may exit meanwhile, so callers
// check for a count above their baseline, not a different one.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolOfOneRunsInlineInOrder(t *testing.T) {
	const n = 16
	base := runtime.NumGoroutine()
	var order []int
	fn := func(w, i int) {
		if w != 0 {
			t.Errorf("index %d ran on worker %d, want 0", i, w)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Errorf("index %d: %d goroutines, want at most the caller's %d", i, g, base)
		}
		order = append(order, i)
	}
	for _, workers := range []int{-1, 0, 1} {
		order = order[:0]
		if err := Pool("test", n, workers, fn); err != nil {
			t.Fatal(err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: order %v, want 0..%d", workers, order, n-1)
			}
		}
		if len(order) != n {
			t.Fatalf("workers=%d: ran %d indexes, want %d", workers, len(order), n)
		}
	}

	count := 0
	tally := func(_, _ int) { count++ }
	if allocs := testing.AllocsPerRun(100, func() { _ = Pool("test", n, 1, tally) }); allocs != 0 {
		t.Errorf("a pool of one allocates %v per run, want 0", allocs)
	}
	if count == 0 {
		t.Fatal("the measured pool ran nothing")
	}
}

func TestPoolRunsEveryIndexOnce(t *testing.T) {
	const n, workers = 1000, 4
	base := runtime.NumGoroutine()
	var runs [n]atomic.Int32
	var badSlot atomic.Bool
	if err := Pool("test", n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			badSlot.Store(true)
		}
		runs[i].Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	if badSlot.Load() {
		t.Errorf("a worker slot fell outside [0, %d)", workers)
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want once", i, got)
		}
	}
	if g := settledGoroutines(base); g > base {
		t.Errorf("%d goroutines after the pool returned, want at most %d", g, base)
	}
}

// TestPoolPanicHalts: the first panic stops the hand-out, every worker
// is waited for, and the panic comes back with its value and the stack
// of the goroutine that raised it.
func TestPoolPanicHalts(t *testing.T) {
	const n, k = 100, 7
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		var ran [n]atomic.Bool
		err := Pool("test pool", n, workers, func(_, i int) {
			ran[i].Store(true)
			if i == k {
				panic("boom")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" || pe.Op != "test pool" {
			t.Fatalf("workers=%d: err = %v, want the recovered panic", workers, err)
		}
		if !strings.Contains(string(pe.Stack), "TestPoolPanicHalts") {
			t.Errorf("workers=%d: the stack does not reach the panicking fn:\n%s", workers, pe.Stack)
		}
		if workers == 1 {
			for i := k + 1; i < n; i++ {
				if ran[i].Load() {
					t.Errorf("index %d ran after the panic at %d", i, k)
				}
			}
		}
		if g := settledGoroutines(base); g > base {
			t.Errorf("workers=%d: %d goroutines after the pool returned, want at most %d", workers, g, base)
		}
	}
}

func TestPoolEmpty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := Pool("test", 0, workers, func(_, _ int) { t.Error("fn ran on an empty pool") }); err != nil {
			t.Fatal(err)
		}
	}
}
