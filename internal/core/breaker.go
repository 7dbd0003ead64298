package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the degraded-mode machinery: a per-backend circuit
// breaker over each of the four services, tripped by sustained
// transient failures and healed by a successful half-open probe. While
// any breaker is open the cloud is explicitly degraded: new
// acquisitions fail fast with ErrDegraded instead of queueing into a
// dead backend, warm refill suspends, and the guard pauses its rounds
// rather than revoking a healthy enclave it merely cannot reach.

// ErrDegraded rejects work while a backend circuit breaker is open.
// The /v1 surface maps it to HTTP 503 with a Retry-After hint.
var ErrDegraded = errors.New("core: service degraded")

// DegradedError is an ErrDegraded with context: which backend, and
// when the breaker will admit a probe. errors.Is(err, ErrDegraded)
// matches.
type DegradedError struct {
	Backend    string
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("core: service degraded: %s circuit breaker open", e.Backend)
}

// Is makes errors.Is(err, ErrDegraded) true for every DegradedError.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Backend names used by breakers, health reporting and metrics.
const (
	BackendHIL       = "hil"
	BackendBMI       = "bmi"
	BackendDriver    = "driver"
	BackendRegistrar = "registrar"
)

// ResilientBackends lists the backends behind the call seam, in
// display order.
var ResilientBackends = []string{BackendHIL, BackendBMI, BackendDriver, BackendRegistrar}

// BreakerState is a circuit breaker's position.
type BreakerState string

// Breaker states.
const (
	// BreakerClosed: healthy; calls flow.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: tripped; calls fail fast with ErrDegraded until the
	// cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: cooldown elapsed; one probe call is admitted.
	// Success closes the breaker, failure reopens it.
	BreakerHalfOpen BreakerState = "half-open"
)

// BackendHealth is one backend's breaker snapshot, the /v1/health wire
// form.
type BackendHealth struct {
	State    BreakerState `json:"state"`
	Failures int          `json:"consecutive_failures,omitempty"`
	Trips    uint64       `json:"trips,omitempty"`
}

// HealthStatus is the cloud's degraded-mode view: degraded while any
// backend breaker is open.
type HealthStatus struct {
	Degraded bool                     `json:"degraded"`
	Backends map[string]BackendHealth `json:"backends,omitempty"`
}

// BackendOpen reports whether one backend's breaker is open (the guard
// gates its rounds on the registrar's).
func (h HealthStatus) BackendOpen(backend string) bool {
	return h.Backends[backend].State == BreakerOpen
}

// breaker is one backend's circuit breaker: closed until
// BreakerThreshold consecutive transient failures, then open for
// BreakerCooldown, then half-open admitting a single probe whose
// outcome closes or reopens it. Policy and metrics are read through
// the cloud so a later EnableResilience or SetMetrics is picked up
// live.
type breaker struct {
	cloud   *Cloud
	backend string

	mu        sync.Mutex
	fails     int
	openUntil time.Time // zero = closed
	probing   bool      // half-open probe in flight
	trips     uint64
}

// allow reports whether a call may proceed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if time.Now().Before(b.openUntil) {
		return false
	}
	// Cooldown elapsed: half-open. Admit exactly one probe at a time.
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// success closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	wasOpen := !b.openUntil.IsZero()
	b.fails = 0
	b.openUntil = time.Time{}
	b.probing = false
	b.mu.Unlock()
	if wasOpen {
		b.cloud.metrics.setBreakerState(b.backend, BreakerClosed)
	}
}

// failure records one transient failure; threshold consecutive ones
// (or a failed half-open probe) trip the breaker open.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.openUntil.IsZero() {
		// Open or half-open. A failed probe — or a straggler call that
		// was admitted before the trip — re-arms the cooldown.
		if b.probing || !time.Now().Before(b.openUntil) {
			b.tripLocked()
		}
		return
	}
	b.fails++
	if b.fails >= b.cloud.resilience.policy.Load().BreakerThreshold {
		b.tripLocked()
	}
}

// tripLocked opens the breaker. Callers hold b.mu.
func (b *breaker) tripLocked() {
	b.openUntil = time.Now().Add(b.cloud.resilience.policy.Load().BreakerCooldown)
	b.probing = false
	b.fails = 0
	b.trips++
	b.cloud.metrics.incBreakerTrip(b.backend)
	b.cloud.metrics.setBreakerState(b.backend, BreakerOpen)
}

// status snapshots the breaker for health reporting.
func (b *breaker) status() BackendHealth {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BackendHealth{State: BreakerClosed, Failures: b.fails, Trips: b.trips}
	if !b.openUntil.IsZero() {
		if time.Now().Before(b.openUntil) {
			st.State = BreakerOpen
		} else {
			st.State = BreakerHalfOpen
		}
	}
	return st
}

// open reports whether the breaker is currently open (not half-open).
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.IsZero() && time.Now().Before(b.openUntil)
}

// cloudResilience is the cloud's installed resilience layer. The
// policy sits behind one atomic pointer because a live update
// (PUT /v1/resilience) replaces it while provisioner goroutines are
// mid-retry; the retry loop and the breakers all read it from here.
type cloudResilience struct {
	policy   atomic.Pointer[ResiliencePolicy]
	breakers map[string]*breaker
}

// EnableResilience installs the resilience layer: Cloud.resilientCall
// (breaker admission, bounded transient retries) becomes an
// interceptor on the backend call seam, under the given policy (zero
// fields take DefaultResiliencePolicy values). Interceptors nest in
// installation order, so install it AFTER any fault injector —
// breakers and retries must sit outside the faults to observe them —
// and after SetMetrics if instruments should be live from the first
// call (a later SetMetrics is still picked up). Calling it again only
// replaces the policy, which calls already in flight pick up at their
// next attempt; the interceptor is not installed twice.
func (c *Cloud) EnableResilience(pol ResiliencePolicy) error {
	if err := pol.Validate(); err != nil {
		return err
	}
	pol = pol.withDefaults()
	if c.resilience != nil {
		c.resilience.policy.Store(&pol)
		return nil
	}
	r := &cloudResilience{breakers: make(map[string]*breaker, len(ResilientBackends))}
	r.policy.Store(&pol)
	for _, backend := range ResilientBackends {
		r.breakers[backend] = &breaker{cloud: c, backend: backend}
	}
	c.resilience = r
	c.Intercept(c.resilientCall)
	return nil
}

// Resilience returns the installed policy (the defaults-normalized
// zero value when EnableResilience was never called).
func (c *Cloud) Resilience() ResiliencePolicy {
	if c.resilience == nil {
		return ResiliencePolicy{}.withDefaults()
	}
	return *c.resilience.policy.Load()
}

// Health snapshots the cloud's degraded-mode state. Without
// EnableResilience the cloud has no breakers and is never degraded.
func (c *Cloud) Health() HealthStatus {
	h := HealthStatus{Backends: make(map[string]BackendHealth, len(ResilientBackends))}
	if c.resilience == nil {
		for _, backend := range ResilientBackends {
			h.Backends[backend] = BackendHealth{State: BreakerClosed}
		}
		return h
	}
	for backend, b := range c.resilience.breakers {
		st := b.status()
		h.Backends[backend] = st
		if st.State == BreakerOpen {
			h.Degraded = true
		}
	}
	return h
}

// CheckDegraded returns a typed *DegradedError naming an open backend
// while the cloud is degraded, nil otherwise. Admission gates call it
// to fail new work fast instead of queueing it into a dead backend;
// once the breaker's cooldown elapses (half-open) it returns nil again,
// so the first post-cooldown acquire doubles as the probe traffic.
func (c *Cloud) CheckDegraded() error {
	if c.resilience == nil {
		return nil
	}
	for _, backend := range ResilientBackends {
		if c.resilience.breakers[backend].open() {
			return &DegradedError{Backend: backend, RetryAfter: c.resilience.policy.Load().BreakerCooldown}
		}
	}
	return nil
}
