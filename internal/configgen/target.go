// Per-target install: everything a rollout does to one agent goes through
// one session — one dial, one retry engine, one policy. The pre-image GET,
// the install SET and a rollback's restore all obey WithRetries,
// WithBackoff, WithAttemptTimeout, WithJitterSeed and WithDialer, because
// there is no second connection and no second retry loop for them to miss.

package configgen

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// session is one target's connection for the length of its install or
// restore. The client never retransmits on its own: every resend is the
// rollout's, spaced by retry and counted by it.
type session struct {
	opt    *rolloutOptions
	client *snmp.Client
}

// open dials tgt through the configured dialer.
func (o *rolloutOptions) open(tgt Target) (*session, error) {
	dial := o.dial
	if dial == nil {
		dial = snmp.Dial
	}
	client, err := dial(tgt.Addr, tgt.AdminCommunity)
	if err != nil {
		return nil, err
	}
	client.SetRetries(0)
	if o.attemptTimeout > 0 {
		client.SetTimeout(o.attemptTimeout)
	}
	return &session{opt: o, client: client}, nil
}

func (s *session) close() { s.client.Close() }

// fetch reads the agent's current configuration. Each resend is a new
// request: a GET changes nothing, so a late reply to an earlier one is
// simply stale.
func (s *session) fetch(ctx context.Context) (*snmp.Config, error) {
	var cfg *snmp.Config
	_, err := s.opt.retry(ctx, func(ctx context.Context) (err error) {
		cfg, err = s.client.FetchConfigContext(ctx)
		return err
	})
	return cfg, err
}

// install ships cfg and returns the attempts it took. The SetRequest is
// prepared once, so every attempt retransmits the SAME request ID. That
// makes ack loss safe: an attempt whose install landed but whose
// acknowledgment was eaten is answered from the agent's retransmit cache
// on the next attempt instead of being applied a second time — the
// exactly-once property the chaos suite pins as "zero duplicate
// ConfigLoads".
func (s *session) install(ctx context.Context, cfg *snmp.Config) (int, error) {
	prep, err := s.client.PrepareInstall(cfg)
	if err != nil {
		return 0, err
	}
	return s.opt.retry(ctx, prep.Send)
}

// retry is the rollout's one retry engine: it calls send until a call
// returns nil, the retry budget runs out, or ctx is done, spacing calls
// with jittered exponential backoff (never before the first). It returns
// the calls made and the final error: nil on success, the last call's
// when the budget ran out, the context's when that ended the wait.
func (o *rolloutOptions) retry(ctx context.Context, send func(context.Context) error) (attempts int, err error) {
	for attempts <= o.retries {
		if attempts > 0 {
			var t0 time.Time
			if o.om.on {
				t0 = time.Now()
			}
			sleepRollout(ctx, snmp.Backoff(o.backoffBase, o.backoffMax, attempts-1, o.jitterInt63n))
			if o.om.on {
				o.om.sleep.Add(int64(time.Since(t0)))
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return attempts, fmt.Errorf("%w (last attempt: %v)", cerr, err)
			}
			return attempts, cerr
		}
		attempts++
		if err = send(ctx); err == nil {
			return attempts, nil
		}
	}
	return attempts, err
}

// sleepRollout sleeps for d or until ctx is done.
func sleepRollout(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// installTarget runs one target's install of want, its desired state (a
// nil Config when the instance has none), which it only reads. When
// pre-images are being captured it snapshots the agent's current config
// first (journaled before the install so a crash can always revert), and
// skips the install entirely when the live digest already matches the
// desired one.
func installTarget(rctx context.Context, want Desired, tgt Target, opt *rolloutOptions, pre *preStore) TargetResult {
	start := time.Now()
	res := TargetResult{Target: tgt}
	// Per-target span: only pay for the label slice when traced.
	var sp obs.Span
	if obs.TracingEnabled() {
		sp = obs.StartSpan("rollout.target", obs.Label{Key: "instance", Value: tgt.InstanceID})
	}
	defer func() {
		res.Duration = time.Since(start)
		if sp.Active() {
			sp.Label("status", res.Status.String())
			sp.Label("attempts", strconv.Itoa(res.Attempts))
		}
		sp.End()
	}()

	if want.Config == nil {
		res.Status = StatusSkipped
		res.Err = fmt.Errorf("configgen: no configuration for instance %q", tgt.InstanceID)
		return res
	}
	key := targetKey(tgt.InstanceID, tgt.Addr)

	// Resume fast path: the journal already recorded this target
	// installed at the digest we are about to install — nothing to do,
	// no datagram sent.
	if d, ok := opt.resumed[key]; ok && d == want.Digest {
		res.Status = StatusInstalled
		res.Resumed = true
		res.Digest = want.Digest
		return res
	}

	// failed classifies an error: the rollout being cut short is a
	// cancellation; anything else (exhausted retries) is the target's
	// failure.
	failed := func(err error) TargetResult {
		res.Status = StatusFailed
		if rctx.Err() != nil {
			res.Status = StatusCanceled
		}
		res.Err = err
		return res
	}

	s, err := opt.open(tgt)
	if err != nil {
		return failed(err)
	}
	defer s.close()

	if opt.capturePre() {
		prev, err := s.fetch(rctx)
		if err != nil {
			return failed(fmt.Errorf("pre-image capture: %w", err))
		}
		pre.put(key, prev)
		// One marshal serves the journal record and the digest check.
		blob, jerr := snmp.MarshalConfig(prev)
		prevDigest := snmp.BlobDigest(blob)
		if jerr == nil {
			jerr = opt.journal.recordPreImage(tgt, blob, prevDigest)
		}
		if jerr != nil {
			// An unjournaled pre-image voids the rollback guarantee:
			// refuse to install over it.
			res.Status = StatusFailed
			res.Err = fmt.Errorf("journal pre-image: %w", jerr)
			return res
		}
		// Idempotency: the agent already runs the desired configuration
		// (a crashed run installed it after its last journal write, or an
		// operator re-ran a converged rollout). Installing again would
		// double-apply.
		if prevDigest == want.Digest {
			res.Status = StatusInstalled
			res.Resumed = true
			res.Digest = want.Digest
			return res
		}
	}

	res.Attempts, err = s.install(rctx, want.Config)
	if err != nil {
		return failed(err)
	}
	res.Status = StatusInstalled
	res.Digest = want.Digest
	return res
}

// rollbackTarget restores one journaled pre-image, skipping the write
// when the agent already runs it.
func rollbackTarget(ctx context.Context, tgt Target, pre *snmp.Config, opt *rolloutOptions) TargetResult {
	return restoreTarget(ctx, tgt, pre, opt, true)
}

// restoreTarget re-installs a captured pre-image at tgt, reporting
// StatusRolledBack on success. With unlessLive it first reads the agent's
// configuration, on the same session, and leaves an agent that already
// runs prev alone; a failed read is not fatal — the restore that follows
// reports what is wrong with the target.
func restoreTarget(rctx context.Context, tgt Target, prev *snmp.Config, opt *rolloutOptions, unlessLive bool) TargetResult {
	start := time.Now()
	res := TargetResult{Target: tgt}
	var sp obs.Span
	if obs.TracingEnabled() {
		sp = obs.StartSpan("rollout.rollback", obs.Label{Key: "instance", Value: tgt.InstanceID})
	}
	defer func() {
		res.Duration = time.Since(start)
		sp.Label("status", res.Status.String())
		sp.End()
	}()
	if prev == nil {
		res.Status = StatusFailed
		res.Err = fmt.Errorf("configgen: no pre-image captured for %s, cannot roll back", tgt.InstanceID)
		return res
	}
	s, err := opt.open(tgt)
	if err == nil {
		defer s.close()
		if unlessLive {
			if live, ferr := s.fetch(rctx); ferr == nil && live.Digest() == prev.Digest() {
				res.Status = StatusRolledBack
				res.Digest = prev.Digest()
				res.Resumed = true // nothing applied; the pre-image was already live
				return res
			}
		}
		res.Attempts, err = s.install(rctx, prev)
	}
	if err != nil {
		res.Status = StatusFailed
		res.Err = fmt.Errorf("rollback: %w", err)
		return res
	}
	res.Status = StatusRolledBack
	res.Digest = prev.Digest()
	return res
}
