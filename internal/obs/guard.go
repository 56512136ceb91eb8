package obs

import (
	"fmt"
	"runtime/debug"
)

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

// Guard runs fn and returns a panic inside it as a *PanicError. Worker
// pools (the checker's, the rollout's, the reconciler's sweep shards)
// run each worker under it, so one worker's panic becomes the pool's
// error instead of killing the process.
func Guard(op string, fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Op: op, Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}
