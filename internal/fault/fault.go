// Package fault is a deterministic, seeded fault injector for the
// orchestrator's service plane. Injector.Intercept is a
// core.Interceptor: installed on the backend call seam with
// cloud.Intercept(inj.Intercept), before cloud.EnableResilience so
// retries and breakers sit outside it and observe the faults, it
// subjects every call to the narrow backend interfaces
// (core.HILService, core.BMIService, core.NodeDriver,
// keylime.RegistrarConn) to composable per-backend profiles — error
// rate, latency spikes, indefinite hangs, torn responses, crash-at-step
// — so resilience behavior is provable under repeatable faults: the
// same seed makes the same calls fail in the same way regardless of
// goroutine interleaving.
//
// Determinism under concurrency is the design constraint. A shared
// random stream would make which call faults depend on scheduling
// order, so every decision instead hashes (seed, backend, op, key,
// attempt#): the i-th attempt of one logical operation — say
// AllocateNode("node-3") — always rolls the same number, no matter
// when it runs relative to its siblings. Retrying an operation
// advances its private attempt counter, which is exactly what lets a
// bounded retry walk out of an injected failure streak
// deterministically.
package fault

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"bolted/internal/core"
)

// Backend names the injector keys profiles and stats by: the seam's.
// The store is faulted separately via store.Faulty.
const (
	BackendHIL       = core.BackendHIL
	BackendBMI       = core.BackendBMI
	BackendDriver    = core.BackendDriver
	BackendRegistrar = core.BackendRegistrar
)

// Backends lists every backend the injector can fault, in sweep order.
var Backends = core.ResilientBackends

// Fault kinds, in decision precedence order.
const (
	// KindError fails the call before it reaches the backend: the
	// request was never performed.
	KindError = "error"
	// KindTorn performs the call, then loses the response: the side
	// effect is applied but the caller sees an error (the classic
	// retry-hazard failure).
	KindTorn = "torn"
	// KindHang parks the call until the context ends or the injector
	// is closed, then fails it. Per-phase deadlines exist to bound
	// exactly this.
	KindHang = "hang"
	// KindCrash fails every call to a crashed backend until Revive.
	KindCrash = "crash"
)

// Error is an injected fault. It reports itself transient — injected
// faults model service hiccups, not trust decisions — so the core
// resilience classifier retries it and circuit breakers count it.
type Error struct {
	Backend string
	Op      string
	Key     string
	Kind    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s on %s.%s(%s)", e.Kind, e.Backend, e.Op, e.Key)
}

// injected builds the fault of the given kind for one seam call.
func injected(call core.Call, kind string) error {
	return &Error{Backend: call.Backend, Op: call.Method, Key: call.Key, Kind: kind}
}

// Transient marks injected faults retryable for the structural
// transient-vs-fatal classifier in core.
func (e *Error) Transient() bool { return true }

// Profile describes the fault mix for one backend. Rates are
// probabilities per call in [0,1]; they partition one deterministic
// roll, so HangRate+ErrorRate+TornRate+LatencyRate should not exceed 1.
type Profile struct {
	// ErrorRate injects a pre-call transient error (op not performed).
	ErrorRate float64
	// TornRate performs the op but returns an error (response lost).
	TornRate float64
	// HangRate parks the call until its context ends or the injector
	// closes.
	HangRate float64
	// LatencyRate adds Latency to the call, which then proceeds.
	LatencyRate float64
	Latency     time.Duration
	// CrashAfter crashes the backend after that many total calls: every
	// later call fails with KindCrash until Revive. 0 disables.
	CrashAfter int
}

// Stats counts injected faults per kind for one backend.
type Stats struct {
	Calls    uint64
	Injected map[string]uint64
}

// Injector makes seeded, deterministic fault decisions. One injector
// serves all four backends; a backend with no Profile set passes
// through untouched.
type Injector struct {
	seed uint64

	mu       sync.Mutex
	profiles map[string]Profile
	attempts map[string]uint64 // per (backend,op,key) attempt counter
	calls    map[string]uint64 // per-backend total call count
	crashed  map[string]bool
	stats    map[string]*Stats
	done     chan struct{}
	closed   bool
}

// New returns an injector rolling from the given seed. Backends fault
// only once a Profile is Set for them.
func New(seed int64) *Injector {
	return &Injector{
		seed:     uint64(seed),
		profiles: make(map[string]Profile),
		attempts: make(map[string]uint64),
		calls:    make(map[string]uint64),
		crashed:  make(map[string]bool),
		stats:    make(map[string]*Stats),
		done:     make(chan struct{}),
	}
}

// Set installs (or replaces) a backend's fault profile.
func (i *Injector) Set(backend string, p Profile) {
	i.mu.Lock()
	i.profiles[backend] = p
	i.mu.Unlock()
}

// Revive un-crashes a backend: calls flow again and the crash-at-step
// counter restarts from the current call count.
func (i *Injector) Revive(backend string) {
	i.mu.Lock()
	if i.crashed[backend] {
		delete(i.crashed, backend)
		p := i.profiles[backend]
		p.CrashAfter = 0 // a revived backend stays up
		i.profiles[backend] = p
	}
	i.mu.Unlock()
}

// Close releases every hung call (they fail with KindHang).
func (i *Injector) Close() {
	i.mu.Lock()
	if !i.closed {
		i.closed = true
		close(i.done)
	}
	i.mu.Unlock()
}

// Stats returns a snapshot of per-backend fault counts.
func (i *Injector) StatsFor(backend string) Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	s := i.stats[backend]
	if s == nil {
		return Stats{Injected: map[string]uint64{}}
	}
	out := Stats{Calls: s.Calls, Injected: make(map[string]uint64, len(s.Injected))}
	for k, v := range s.Injected {
		out.Injected[k] = v
	}
	return out
}

// roll returns this call's deterministic decision value in [0,1): the
// FNV-1a hash of (seed, backend, op, key, attempt#), where attempt# is
// the call's position in its operation's private sequence.
func (i *Injector) roll(backend, op, key string) float64 {
	ak := backend + "\x00" + op + "\x00" + key
	n := i.attempts[ak]
	i.attempts[ak] = n + 1
	h := fnv.New64a()
	var buf [8]byte
	for shift := 0; shift < 64; shift += 8 {
		buf[shift/8] = byte(i.seed >> shift)
	}
	h.Write(buf[:])
	h.Write([]byte(ak))
	for shift := 0; shift < 64; shift += 8 {
		buf[shift/8] = byte(n >> shift)
	}
	h.Write(buf[:])
	// 53 bits of hash → uniform float64 in [0,1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}

type decision struct {
	kind    string // "" = no fault
	latency time.Duration
}

func (i *Injector) decide(backend, op, key string) decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	p, ok := i.profiles[backend]
	if !ok {
		return decision{}
	}
	st := i.stats[backend]
	if st == nil {
		st = &Stats{Injected: make(map[string]uint64)}
		i.stats[backend] = st
	}
	st.Calls++
	i.calls[backend]++
	if i.crashed[backend] {
		st.Injected[KindCrash]++
		return decision{kind: KindCrash}
	}
	if p.CrashAfter > 0 && i.calls[backend] > uint64(p.CrashAfter) {
		i.crashed[backend] = true
		st.Injected[KindCrash]++
		return decision{kind: KindCrash}
	}
	r := i.roll(backend, op, key)
	switch {
	case r < p.HangRate:
		st.Injected[KindHang]++
		return decision{kind: KindHang}
	case r < p.HangRate+p.ErrorRate:
		st.Injected[KindError]++
		return decision{kind: KindError}
	case r < p.HangRate+p.ErrorRate+p.TornRate:
		st.Injected[KindTorn]++
		return decision{kind: KindTorn}
	case r < p.HangRate+p.ErrorRate+p.TornRate+p.LatencyRate:
		st.Injected["latency"]++
		return decision{latency: p.Latency}
	}
	return decision{}
}

// hang parks until the context ends or the injector closes.
func (i *Injector) hang(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-i.done:
	}
}

// Intercept is the injector as a core.Interceptor: decide, maybe
// delay/hang, maybe fail before or after the inner call. call.Key
// scopes the attempt counter to one logical operation (typically the
// node or image name). Calls that cross the seam without a context
// (the registrar's, say) release from an injected hang only when the
// injector closes.
func (i *Injector) Intercept(ctx context.Context, call core.Call, next func(context.Context) error) error {
	d := i.decide(call.Backend, call.Method, call.Key)
	if d.latency > 0 {
		t := time.NewTimer(d.latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return injected(call, KindHang)
		case <-i.done:
			t.Stop()
		}
	}
	switch d.kind {
	case KindHang:
		i.hang(ctx)
		return injected(call, KindHang)
	case KindError, KindCrash:
		return injected(call, d.kind)
	case KindTorn:
		_ = next(ctx) // side effect applied; response lost
		return injected(call, KindTorn)
	}
	return next(ctx)
}
