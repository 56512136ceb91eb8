package service

import (
	"time"

	"nmsl/internal/obs"
)

// WithMetrics selects where service counters land: nil (the default)
// records into obs.Default, obs.Disabled turns them off — the same
// convention as the checker and the rollout.
func WithMetrics(reg *obs.Registry) Option { return func(o *options) { o.metrics = reg } }

// WithClock replaces the service clock (rate-limit windows); tests
// drive buckets deterministically through it.
func WithClock(now func() time.Time) Option { return func(o *options) { o.now = now } }

// withFlush replaces Flush in the background flusher's ticks.
func withFlush(fn func() error) Option { return func(o *options) { o.flush = fn } }
