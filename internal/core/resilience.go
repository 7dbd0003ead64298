package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bolted/internal/keylime"
)

// This file is the resilience policy layer: transient-vs-fatal error
// classification, bounded per-call retries with capped full-jitter
// backoff, and per-phase deadlines. Together with the per-backend
// circuit breakers (breaker.go) it keeps one flaky service call from
// sending a healthy node to the rejected pool, while a genuine trust
// failure (an attestation-quote mismatch) still rejects immediately:
// retrying a verdict would be a security hole, not resilience.

// ResiliencePolicy bounds how the pipeline survives service faults.
// The zero value normalizes to the defaults below via withDefaults.
// It carries wire tags: /v1 serves and accepts it as-is.
type ResiliencePolicy struct {
	// MaxAttempts is the per-backend-call attempt budget (1 = no
	// retries). Only transient failures are retried.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// RetryBackoff is the base of the capped full-jitter backoff
	// between attempts.
	RetryBackoff time.Duration `json:"retry_backoff_ns,omitempty"`
	// BackoffCap caps the exponential backoff growth.
	BackoffCap time.Duration `json:"backoff_cap_ns,omitempty"`
	// PhaseDeadline bounds each lifecycle phase (airlock, boot, attest,
	// provision, and the warm variants); a phase that cannot complete
	// within it — an indefinitely hung backend, say — fails with
	// context.DeadlineExceeded and the node is rejected rather than
	// wedging a provisioner worker forever. 0 leaves phases unbounded.
	PhaseDeadline time.Duration `json:"phase_deadline_ns,omitempty"`
	// BreakerThreshold is how many consecutive transient failures trip
	// a backend's circuit breaker open.
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open probe.
	BreakerCooldown time.Duration `json:"breaker_cooldown_ns,omitempty"`
}

// DefaultResiliencePolicy is the policy EnableResilience applies when
// given a zero value.
func DefaultResiliencePolicy() ResiliencePolicy {
	return ResiliencePolicy{
		MaxAttempts:      4,
		RetryBackoff:     10 * time.Millisecond,
		BackoffCap:       2 * time.Second,
		PhaseDeadline:    0, // unbounded unless the operator opts in
		BreakerThreshold: 5,
		BreakerCooldown:  500 * time.Millisecond,
	}
}

// Validate reports policy inconsistencies.
func (p ResiliencePolicy) Validate() error {
	switch {
	case p.MaxAttempts < 0:
		return fmt.Errorf("%w: max attempts must be >= 0", ErrInvalid)
	case p.RetryBackoff < 0 || p.BackoffCap < 0 || p.PhaseDeadline < 0 || p.BreakerCooldown < 0:
		return fmt.Errorf("%w: resilience durations must be >= 0", ErrInvalid)
	case p.BreakerThreshold < 0:
		return fmt.Errorf("%w: breaker threshold must be >= 0", ErrInvalid)
	default:
		return nil
	}
}

// withDefaults fills unset fields from DefaultResiliencePolicy.
// PhaseDeadline is genuinely optional and stays as given.
func (p ResiliencePolicy) withDefaults() ResiliencePolicy {
	d := DefaultResiliencePolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.RetryBackoff <= 0 {
		p.RetryBackoff = d.RetryBackoff
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = d.BackoffCap
	}
	if p.BreakerThreshold < 1 {
		p.BreakerThreshold = d.BreakerThreshold
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = d.BreakerCooldown
	}
	return p
}

// TransientError classifies an error transient (worth retrying; counts
// against the backend's circuit breaker) versus fatal. The taxonomy:
//
//   - An attestation-quote mismatch is a trust verdict, never a service
//     fault: always fatal, even if some wrapper also marks the chain
//     transient.
//   - ErrDegraded is the breaker itself speaking; retrying would defeat
//     the fail-fast.
//   - Anything exposing Transient() bool — remote.TransportError,
//     injected fault.Error — classifies itself.
//   - A context deadline is transient: the service may simply have been
//     slow. A context cancellation is not — the caller asked to stop.
func TransientError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, keylime.ErrQuoteMismatch) {
		return false
	}
	if errors.Is(err, ErrDegraded) {
		return false
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// sleepCtx sleeps for d or until ctx ends, whichever is first,
// returning ctx.Err() promptly on cancellation. Unlike time.After it
// never leaks a timer.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffCeiling is the un-jittered delay before retry attempt n
// (n >= 1): base doubled per attempt, at most 6 times, up to limit.
func backoffCeiling(base, limit time.Duration, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	if d > limit {
		d = limit
	}
	return d
}

// Backoff returns the capped full-jitter delay before retry attempt n
// (n >= 1): uniform in [d/2, d] where d is backoffCeiling. It is the
// one backoff every retrier shares — the backend retry loop, the
// warm-pool refiller, V1Client's quota re-sends — each with its own
// base and limit. The jitter de-synchronizes concurrent retriers; it
// does not affect functional determinism (which calls fault is decided
// by the injector's keyed hash, not by timing).
func Backoff(base, limit time.Duration, attempt int) time.Duration {
	d := backoffCeiling(base, limit, attempt)
	if d <= 0 {
		return 0
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}

// resilientCall is the resilience layer's Interceptor: it runs one
// backend call under the cloud's resilience policy. The breaker admits
// or fails fast with ErrDegraded, transient failures are retried with
// capped full-jitter backoff up to the attempt budget, and fatal
// errors (or the caller's own cancellation) return immediately. Every
// attempt reports its outcome to the breaker — retries are exactly the
// sustained-failure signal that should trip it.
func (c *Cloud) resilientCall(ctx context.Context, call Call, next func(context.Context) error) error {
	b := c.resilience.breakers[call.Backend]
	var err error
	for attempt := 0; ; attempt++ {
		pol := c.resilience.policy.Load()
		if !b.allow() {
			c.metrics.incDegradedFail()
			return &DegradedError{Backend: call.Backend, RetryAfter: pol.BreakerCooldown}
		}
		err = next(ctx)
		if err == nil {
			b.success()
			return nil
		}
		transient := TransientError(err)
		if transient {
			// Only service faults count against the breaker: a quote
			// mismatch (or other trust verdict) must never trip the
			// registrar into degraded mode.
			b.failure()
		} else {
			// A fatal error is an application-level response — proof the
			// backend is alive. Clear the consecutive-failure streak and
			// release any half-open probe slot this call was admitted
			// under, or a fatal probe outcome would strand the breaker
			// half-open forever.
			b.success()
		}
		if ctx.Err() != nil || !transient || attempt+1 >= pol.MaxAttempts {
			if transient && attempt+1 >= pol.MaxAttempts {
				c.metrics.incRetryExhausted(call.Backend)
			}
			// A transient fault cut short by the caller's own context is
			// reported as that cancellation: the backend merely flaked
			// and the caller asked to stop, so the provisioner must
			// route the node as aborted (healthy, back to the free
			// pool), never rejected.
			if transient && ctx.Err() != nil {
				return fmt.Errorf("%w (retry abandoned: %v)", ctx.Err(), err)
			}
			return err
		}
		c.metrics.incRetry(call.Backend)
		if serr := sleepCtx(ctx, Backoff(pol.RetryBackoff, pol.BackoffCap, attempt+1)); serr != nil {
			return fmt.Errorf("%w (retry abandoned: %v)", serr, err)
		}
	}
}
