package obs

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// MetricPanics counts the panics Guard and Pool contained, split by a
// site label: agent, check, nmsld, reconcile, rollout. Each site counts
// its own, in the registry it reports to.
const MetricPanics = "nmsl_panics_total"

// PanicError is a panic recovered by Guard: the value it was raised with
// and the stack of the goroutine that raised it.
type PanicError struct {
	// Op names what panicked, for the message.
	Op    string
	Value any
	Stack []byte
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("%s panicked: %v\n\n%s", p.Op, p.Value, p.Stack)
}

// Guard runs fn and returns a panic inside it as a *PanicError. Pool
// runs each of its workers under it, so one worker's panic becomes the
// pool's error instead of killing the process.
func Guard(op string, fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Op: op, Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Pool runs fn(w, i) once for every index i in [0, n), handing the
// indexes out in order to at most min(workers, n) goroutines. w is the
// running worker's slot in [0, workers): a caller with per-worker state
// keeps it in a slice indexed by w and merges it after Pool returns. At
// workers <= 1 (or n <= 1) the indexes run in order on the caller's
// goroutine, and Pool itself allocates nothing; fn, which other
// goroutines may call, is on the heap either way. The first panic in fn
// stops the hand-out; Pool waits for every worker to return and then
// returns that panic as a *PanicError. Cancellation is fn's own
// business: Pool has no context, so every index is handed out unless a
// worker panics.
func Pool(op string, n, workers int, fn func(w, i int)) error {
	if workers <= 1 || n <= 1 {
		return Guard(op, func() {
			for i := range n {
				fn(0, i)
			}
		})
	}
	var next atomic.Int64
	var first atomic.Pointer[PanicError]
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := Guard(op, func() {
				for first.Load() == nil {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					fn(w, i)
				}
			})
			if err != nil {
				first.CompareAndSwap(nil, err.(*PanicError))
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		return p
	}
	return nil
}
