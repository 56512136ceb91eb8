package reconcile

import "time"

// WithProbeJitter sets the fractional jitter added to each breaker's
// cooldown before its half-open probe: a breaker opened at t probes at
// t + cooldown + uniform[0, frac·cooldown). Default 0.1. Without it a
// flap storm that quarantines a wave of targets simultaneously releases
// every half-open probe at the same sweep — a thundering herd against
// agents that just recovered. Zero disables (probes at the exact
// boundary, as deterministic tests may need).
func WithProbeJitter(frac float64) Option {
	return func(o *options) {
		if frac >= 0 && frac < 1 {
			o.probeJitterFrac = frac
		}
	}
}

// WithClock injects the time source the breaker cooldown reads,
// for tests (default time.Now).
func WithClock(now func() time.Time) Option {
	return func(o *options) {
		if now != nil {
			o.now = now
		}
	}
}

// BreakerStates reports every target's current breaker position, keyed
// by "instanceID|addr". Not safe to call while a sweep is running.
func (r *Reconciler) BreakerStates() map[string]BreakerState {
	out := map[string]BreakerState{}
	for _, sd := range r.shards {
		for k, b := range sd.breakers {
			out[k] = b.state
		}
	}
	return out
}
