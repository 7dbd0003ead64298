package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"bolted/internal/firmware"
	"bolted/internal/tpm"
)

// transientErr is a self-classifying transient failure, the shape every
// service client's timeout/transport errors take.
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Transient() bool { return true }

// fatalErr classifies as fatal: retrying must not happen.
type fatalErr struct{ msg string }

func (e *fatalErr) Error() string { return e.msg }

// downHIL embeds a real HIL service and fails FreeNodes for a
// configured number of calls (-1 = until healed) — the minimal flaky
// backend for retry and breaker tests.
type downHIL struct {
	HILService
	mu            sync.Mutex
	failRemaining int
	calls         int
}

// failNext arms the next n FreeNodes calls to fail; -1 fails every call
// until the next failNext(0).
func (f *downHIL) failNext(n int) {
	f.mu.Lock()
	f.failRemaining = n
	f.mu.Unlock()
}

func (f *downHIL) FreeNodes() ([]string, error) {
	f.mu.Lock()
	f.calls++
	fail := f.failRemaining != 0
	if f.failRemaining > 0 {
		f.failRemaining--
	}
	f.mu.Unlock()
	if fail {
		return nil, &transientErr{"hil: connection reset"}
	}
	return f.HILService.FreeNodes()
}

func (f *downHIL) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// flakyAirlockHIL fails airlock-network creation with transient errors
// while armed, leaving every other HIL op healthy.
type flakyAirlockHIL struct {
	HILService
	mu   sync.Mutex
	fail bool
}

func (f *flakyAirlockHIL) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

func (f *flakyAirlockHIL) CreateNetwork(ctx context.Context, project, name string) error {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail && strings.HasPrefix(name, "airlock-") {
		return &transientErr{"hil: transient glitch creating " + name}
	}
	return f.HILService.CreateNetwork(ctx, project, name)
}

// flakyAttestDriver fails ExpectedBootPCRs with transient errors — the
// attest phase runs that call while holding an airlock slot, so it puts
// the retry loop exactly inside the slot hold. Closes entered on the
// first faulted call.
type flakyAttestDriver struct {
	NodeDriver
	mu      sync.Mutex
	fail    bool
	entered chan struct{}
}

func (d *flakyAttestDriver) setFail(v bool) {
	d.mu.Lock()
	d.fail = v
	d.mu.Unlock()
}

func (d *flakyAttestDriver) ExpectedBootPCRs(ctx context.Context, node string) (map[int][]tpm.Digest, error) {
	d.mu.Lock()
	fail := d.fail
	if fail && d.entered != nil {
		close(d.entered)
		d.entered = nil
	}
	d.mu.Unlock()
	if fail {
		return nil, &transientErr{"driver: transient glitch reading PCR whitelist"}
	}
	return d.NodeDriver.ExpectedBootPCRs(ctx, node)
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&transientErr{"timeout"}, true},
		{context.DeadlineExceeded, true},
		{&fatalErr{"bad request"}, false},
		{context.Canceled, false},
		{ErrDegraded, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := TransientError(c.err); got != c.want {
			t.Errorf("TransientError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRetriesAbsorbTransientFaults: a bounded retry outlasts a finite
// failure streak without surfacing the error to the caller.
func TestRetriesAbsorbTransientFaults(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	hil := &downHIL{HILService: c.HIL}
	c.HIL = hil
	if err := c.EnableResilience(ResiliencePolicy{
		MaxAttempts:      4,
		RetryBackoff:     time.Millisecond,
		BackoffCap:       2 * time.Millisecond,
		BreakerThreshold: 100,
	}); err != nil {
		t.Fatal(err)
	}
	// Two transient failures, then healthy: attempt 3 of 4 lands.
	hil.failNext(2)
	if _, err := c.HIL.FreeNodes(); err != nil {
		t.Fatalf("retries did not absorb the streak: %v", err)
	}
	if got := hil.callCount(); got != 3 {
		t.Fatalf("backend saw %d calls, want 3 (two faulted + one landed)", got)
	}
	if c.CheckDegraded() != nil {
		t.Fatal("cloud degraded after a recovered streak")
	}

	// A streak longer than the budget surfaces the transient error.
	hil.failNext(-1)
	if _, err := c.HIL.FreeNodes(); !TransientError(err) {
		t.Fatalf("exhausted retries returned %v, want the transient fault", err)
	}
	if got := hil.callCount(); got != 7 {
		t.Fatalf("backend saw %d calls, want 7 (budget of 4 more)", got)
	}
}

// TestBreakerTripsDegradesAndRecovers is the full breaker arc: enough
// consecutive transient failures trip the breaker, calls then fail fast
// with a typed DegradedError and the manager refuses new acquires, and
// after the cooldown one successful probe closes the breaker again.
func TestBreakerTripsDegradesAndRecovers(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	hil := &downHIL{HILService: c.HIL}
	c.HIL = hil
	if err := c.EnableResilience(ResiliencePolicy{
		MaxAttempts:      1, // one failure per call: deterministic breaker counting
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	m := NewManager(c)
	if _, err := m.CreateEnclave("tenant", ProfileBob); err != nil {
		t.Fatal(err)
	}

	hil.failNext(-1)
	for i := 0; i < 3; i++ {
		if _, err := c.HIL.FreeNodes(); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	if c.CheckDegraded() == nil {
		t.Fatal("breaker did not trip after threshold failures")
	}
	h := c.Health()
	if !h.Degraded || h.Backends[BackendHIL].State != BreakerOpen || h.Backends[BackendHIL].Trips != 1 {
		t.Fatalf("health = %+v", h)
	}

	// Open breaker: calls fail fast with the typed error, without
	// touching the backend.
	before := hil.callCount()
	_, err := c.HIL.FreeNodes()
	var de *DegradedError
	if !errors.As(err, &de) || de.Backend != BackendHIL || !errors.Is(err, ErrDegraded) {
		t.Fatalf("open-breaker call = %v, want DegradedError(hil)", err)
	}
	if hil.callCount() != before {
		t.Fatal("open breaker still forwarded the call to the backend")
	}

	// The manager fails new acquires fast while degraded.
	if _, err := m.StartAcquire("tenant", "fedora28", 1); !errors.Is(err, ErrDegraded) {
		t.Fatalf("StartAcquire while degraded = %v, want ErrDegraded", err)
	}

	// Cooldown elapses, the backend heals, and the next call is the
	// half-open probe that closes the breaker.
	hil.failNext(0)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.HIL.FreeNodes(); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if c.CheckDegraded() != nil {
		t.Fatal("breaker still open after successful probe")
	}
	if st := c.Health().Backends[BackendHIL].State; st != BreakerClosed {
		t.Fatalf("post-probe breaker state = %s", st)
	}
	if _, err := m.StartAcquire("tenant", "fedora28", 1); err != nil {
		t.Fatalf("StartAcquire after recovery = %v", err)
	}
}

// TestQuoteMismatchRejectsImmediately: an attestation-quote mismatch is
// a trust verdict, not a service fault — the node is rejected without
// retry and the failure never counts toward a circuit breaker, even at
// a breaker threshold of 1.
func TestQuoteMismatchRejectsImmediately(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	if err := c.EnableResilience(ResiliencePolicy{
		MaxAttempts:      4,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 1, // any counted failure would trip it
	}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEnclave(c, "tenant", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	// A previous tenant implanted node02's firmware.
	m, err := c.Machine("node01")
	if err != nil {
		t.Fatal(err)
	}
	evil := firmware.BuildLinuxBoot("heads-v1.0", []byte("implanted heads"))
	m.ReflashFirmware(firmware.NewLinuxBoot(evil, "m620"))

	res, err := e.AcquireNodes(context.Background(), "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 || len(res.Failed) != 1 {
		t.Fatalf("nodes=%d failed=%v", len(res.Nodes), res.Failed)
	}
	if res.Failed[0].Node != "node01" || res.Failed[0].Phase != PhaseAttest {
		t.Fatalf("failed = %v, want node01 at %s", res.Failed, PhaseAttest)
	}
	if c.CheckDegraded() != nil {
		t.Fatal("a quote mismatch tripped a breaker into degraded mode")
	}
	for backend, bh := range c.Health().Backends {
		if bh.Failures != 0 || bh.Trips != 0 {
			t.Fatalf("%s breaker counted the trust verdict: %+v", backend, bh)
		}
	}
}

// TestCancelMidRetryReleasesAirlock (race-clean): a node stuck in a
// transient-fault retry loop inside the attest phase holds an airlock
// slot; when the caller cancels, the node must come back aborted
// (healthy, returned to the free pool) — never rejected — and the slot
// must return to the scheduler.
func TestCancelMidRetryReleasesAirlock(t *testing.T) {
	c := testCloud(t, 1, FirmwareLinuxBoot)
	drv := &flakyAttestDriver{NodeDriver: c.Driver, entered: make(chan struct{})}
	entered := drv.entered
	c.Driver = drv
	if err := c.EnableResilience(ResiliencePolicy{
		MaxAttempts:      1_000, // effectively endless: only the cancel ends the loop
		RetryBackoff:     5 * time.Millisecond,
		BackoffCap:       10 * time.Millisecond,
		BreakerThreshold: 1_000_000,
	}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEnclave(c, "tenant", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	drv.setFail(true)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *BatchResult, 1)
	go func() {
		res, err := e.AcquireNodes(ctx, "fedora28", 1)
		if err == nil {
			err = errors.New("cancelled batch returned nil error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("AcquireNodes = %v, want context.Canceled", err)
		}
		done <- res
	}()
	<-entered // the node is now retrying inside its airlock-slot hold
	time.Sleep(15 * time.Millisecond)
	cancel()

	res := <-done
	if res == nil {
		t.FailNow()
	}
	if len(res.Aborted) != 1 || len(res.Failed) != 0 || len(res.Nodes) != 0 {
		t.Fatalf("aborted=%v failed=%v nodes=%d (a cancelled transient retry must abort, not reject)",
			res.Aborted, res.Failed, len(res.Nodes))
	}
	if got := c.Scheduler().Stats().InUse; got != 0 {
		t.Fatalf("airlock slots still held after cancel: in_use=%d", got)
	}
	if len(c.Rejected()) != 0 {
		t.Fatalf("healthy node spuriously rejected: %v", c.Rejected())
	}
	drv.setFail(false)
	if free, err := c.HIL.FreeNodes(); err != nil || len(free) != 1 {
		t.Fatalf("aborted node not returned to the free pool: %v, %v", free, err)
	}
}

// TestPhaseDeadlineRejectsHungNode: a phase that cannot finish inside
// the configured deadline fails that node (rejected, not wedged) while
// the caller's own context stays alive.
func TestPhaseDeadlineRejectsHungNode(t *testing.T) {
	c := testCloud(t, 1, FirmwareLinuxBoot)
	hil := &flakyAirlockHIL{HILService: c.HIL}
	c.HIL = hil
	if err := c.EnableResilience(ResiliencePolicy{
		MaxAttempts:      1_000,
		RetryBackoff:     5 * time.Millisecond,
		BackoffCap:       10 * time.Millisecond,
		BreakerThreshold: 1_000_000,
		PhaseDeadline:    80 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEnclave(c, "tenant", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	hil.setFail(true)

	res, err := e.AcquireNodes(context.Background(), "fedora28", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0].Phase != PhaseAirlock {
		t.Fatalf("failed = %v, want one airlock-phase rejection", res.Failed)
	}
	if !errors.Is(res.Failed[0].Err, context.DeadlineExceeded) {
		t.Fatalf("failure cause = %v, want DeadlineExceeded", res.Failed[0].Err)
	}
	if got := c.Scheduler().Stats().InUse; got != 0 {
		t.Fatalf("airlock slots still held after deadline: in_use=%d", got)
	}
}

// TestReclaimRejected: the operator's scrub-and-return path moves a
// rejected node back to the provider's free pool and journals the
// recovery; anything not in the rejected pool is refused.
func TestReclaimRejected(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	e, err := NewEnclave(c, "tenant", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Machine("node01")
	if err != nil {
		t.Fatal(err)
	}
	evil := firmware.BuildLinuxBoot("heads-v1.0", []byte("implanted heads"))
	m.ReflashFirmware(firmware.NewLinuxBoot(evil, "m620"))
	res, err := e.AcquireNodes(context.Background(), "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 || len(res.Failed) != 1 || res.Failed[0].Node != "node01" {
		t.Fatalf("setup: nodes=%d failed=%v", len(res.Nodes), res.Failed)
	}

	ctx := context.Background()
	// A live member and an unknown node are both refused.
	if err := e.ReclaimRejected(ctx, "node00"); !errors.Is(err, ErrConflict) {
		t.Fatalf("reclaim of live member = %v, want ErrConflict", err)
	}
	if err := e.ReclaimRejected(ctx, "ghost"); !errors.Is(err, ErrConflict) {
		t.Fatalf("reclaim of unknown node = %v, want ErrConflict", err)
	}
	if _, err := c.ReclaimRejected(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("provider reclaim of unknown node = %v, want ErrNotFound", err)
	}

	// The real reclaim: node01 leaves the rejected pool, returns to the
	// free pool, and the journal records the recovery with its reason.
	if err := e.ReclaimRejected(ctx, "node01"); err != nil {
		t.Fatal(err)
	}
	if rej := c.Rejected(); len(rej) != 0 {
		t.Fatalf("rejected pool after reclaim = %v", rej)
	}
	if st := e.NodeState("node01"); st != StateFree {
		t.Fatalf("node01 state = %s, want %s", st, StateFree)
	}
	free, err := c.HIL.FreeNodes()
	if err != nil || len(free) != 1 || free[0] != "node01" {
		t.Fatalf("free pool = %v, %v", free, err)
	}
	var reclaimed bool
	for _, ev := range e.Journal().Events() {
		if ev.Kind == EvReclaimed && ev.Node == "node01" {
			reclaimed = true
			if !strings.Contains(ev.Detail, "was:") {
				t.Fatalf("reclaim event lost the rejection reason: %q", ev.Detail)
			}
		}
	}
	if !reclaimed {
		t.Fatal("no reclaimed event journaled")
	}

	// Reclaiming twice is a conflict: the node is free now.
	if err := e.ReclaimRejected(ctx, "node01"); !errors.Is(err, ErrConflict) {
		t.Fatalf("second reclaim = %v, want ErrConflict", err)
	}
}

// TestBackoffTable pins the one shared backoff: the ceiling doubles per
// attempt for at most 6 doublings and never exceeds the limit, the
// jittered delay is uniform in [ceiling/2, ceiling], and each of the
// three call sites' (base, limit) pairs yields the range it always did.
func TestBackoffTable(t *testing.T) {
	ms := time.Millisecond
	def := DefaultResiliencePolicy()
	cases := []struct {
		site        string
		base, limit time.Duration
		attempt     int
		ceiling     time.Duration
	}{
		// Cloud.resilientCall: policy RetryBackoff and BackoffCap.
		{"retry default, first", def.RetryBackoff, def.BackoffCap, 1, 10 * ms},
		{"retry default, third", def.RetryBackoff, def.BackoffCap, 3, 40 * ms},
		{"retry default, shift stops at 6", def.RetryBackoff, def.BackoffCap, 7, 640 * ms},
		{"retry default, far past the shift cap", def.RetryBackoff, def.BackoffCap, 1000, 640 * ms},
		{"retry, limit binds", 100 * time.Microsecond, ms, 5, ms},
		{"retry, limit below base", 10 * ms, 4 * ms, 1, 4 * ms},
		// WarmPool.retryDelayLocked: pool RetryBackoff, maxRefillBackoff.
		{"refill default, streak 1", DefaultRefillBackoff, maxRefillBackoff, 1, 50 * ms},
		{"refill default, streak 20", DefaultRefillBackoff, maxRefillBackoff, 20, 3200 * ms},
		{"refill, limit binds", 100 * ms, maxRefillBackoff, 7, 5 * time.Second},
		// V1Client.doHdr: the server's Retry-After hint under a 5 s
		// limit, always attempt 1 — the hint does not grow.
		{"quota re-send, default hint", DefaultRetryAfter, 5 * time.Second, 1, DefaultRetryAfter},
		{"quota re-send, long hint", 30 * time.Second, 5 * time.Second, 1, 5 * time.Second},
	}
	for _, c := range cases {
		if got := backoffCeiling(c.base, c.limit, c.attempt); got != c.ceiling {
			t.Errorf("%s: ceiling = %v, want %v", c.site, got, c.ceiling)
		}
		lo, hi := c.ceiling, time.Duration(0)
		for i := 0; i < 200; i++ {
			d := Backoff(c.base, c.limit, c.attempt)
			if d < c.ceiling/2 || d > c.ceiling {
				t.Fatalf("%s: Backoff = %v outside [%v, %v]", c.site, d, c.ceiling/2, c.ceiling)
			}
			lo, hi = min(lo, d), max(hi, d)
		}
		if lo == hi {
			t.Errorf("%s: 200 draws all returned %v: no jitter", c.site, lo)
		}
	}
	if d := Backoff(0, time.Second, 3); d != 0 {
		t.Errorf("zero base: Backoff = %v, want 0", d)
	}

	// The refiller waits exactly its base until a refill fails, and an
	// unset base is the default by the time a pool holds it.
	p := &WarmPool{policy: PoolPolicy{}.withDefaults()}
	if d := p.retryDelayLocked(); d != DefaultRefillBackoff {
		t.Errorf("streak 0 refill delay = %v, want %v", d, DefaultRefillBackoff)
	}
	p.failStreak = 3
	if d := p.retryDelayLocked(); d < 100*ms || d > 200*ms {
		t.Errorf("streak 3 refill delay = %v outside [100ms, 200ms]", d)
	}
}
