package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bolted/internal/core"
	"bolted/internal/fault"
	"bolted/internal/firmware"
)

// TestV1HealthAndDegradedMode: /v1/health reports the breaker snapshot
// both ways — healthy and degraded — and a degraded acquire comes back
// over the wire as the typed error (503 + Retry-After rebuilt into a
// *core.DegradedError the caller can errors.Is / errors.As).
func TestV1HealthAndDegradedMode(t *testing.T) {
	cloud, _, cli := startV1Server(t, 2)
	ctx := context.Background()

	inj := fault.New(3)
	defer inj.Close()
	cloud.Intercept(inj.Intercept)
	if err := cloud.EnableResilience(core.ResiliencePolicy{
		MaxAttempts:      1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second, // stays open for the whole test
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.CreateEnclave(ctx, "tenant", "bob"); err != nil {
		t.Fatal(err)
	}

	h, err := cli.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded || len(h.Backends) != len(core.ResilientBackends) {
		t.Fatalf("healthy snapshot = %+v", h)
	}
	for b, bh := range h.Backends {
		if bh.State != core.BreakerClosed {
			t.Fatalf("backend %s state = %s", b, bh.State)
		}
	}

	// HIL outage trips its breaker.
	inj.Set("hil", fault.Profile{ErrorRate: 1})
	for i := 0; i < 2; i++ {
		if _, err := cloud.HIL.FreeNodes(); err == nil {
			t.Fatalf("outage call %d succeeded", i)
		}
	}

	h, err = cli.Health(ctx)
	if err != nil {
		t.Fatal(err) // /health must answer even while degraded
	}
	if !h.Degraded || h.Backends[core.BackendHIL].State != core.BreakerOpen {
		t.Fatalf("degraded snapshot = %+v", h)
	}

	// New work is refused fast with the typed error across the wire.
	_, err = cli.Acquire(ctx, "tenant", "fedora28", 1)
	if !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("degraded acquire = %v, want ErrDegraded", err)
	}
	var de *core.DegradedError
	if !errors.As(err, &de) || de.Backend != core.BackendHIL || de.RetryAfter < time.Second {
		t.Fatalf("degraded error detail = %+v (from %v)", de, err)
	}
}

// TestV1ResilienceRoundTrip: the cloud-wide policy and per-enclave
// overrides survive a GET/PUT round trip, zero fields take server-side
// defaults, and an enclave without an override inherits cloud-wide.
func TestV1ResilienceRoundTrip(t *testing.T) {
	_, _, cli := startV1Server(t, 2)
	ctx := context.Background()

	pol, err := cli.GetResilience(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	def := core.DefaultResiliencePolicy()
	if pol.MaxAttempts != def.MaxAttempts || pol.BreakerThreshold != def.BreakerThreshold {
		t.Fatalf("initial policy = %+v, want defaults %+v", pol, def)
	}

	applied, err := cli.SetResilience(ctx, "", ResiliencePolicyInfo{
		MaxAttempts:   9,
		PhaseDeadline: 90 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied.MaxAttempts != 9 || applied.PhaseDeadline != 90*time.Second {
		t.Fatalf("applied policy = %+v", applied)
	}
	// Unset fields came back defaults-filled, not zero.
	if applied.RetryBackoff != def.RetryBackoff || applied.BreakerThreshold != def.BreakerThreshold {
		t.Fatalf("defaults not filled: %+v", applied)
	}

	// A fresh enclave inherits the cloud-wide policy until it overrides.
	if _, err := cli.CreateEnclave(ctx, "tenant", "bob"); err != nil {
		t.Fatal(err)
	}
	pol, err = cli.GetResilience(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if pol.MaxAttempts != 9 || pol.PhaseDeadline != 90*time.Second {
		t.Fatalf("inherited policy = %+v", pol)
	}
	if _, err := cli.SetResilience(ctx, "tenant", ResiliencePolicyInfo{
		MaxAttempts:   2,
		PhaseDeadline: 5 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	pol, err = cli.GetResilience(ctx, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if pol.MaxAttempts != 2 || pol.PhaseDeadline != 5*time.Second {
		t.Fatalf("override = %+v", pol)
	}
	// The override is scoped: cloud-wide stays as set.
	pol, err = cli.GetResilience(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if pol.MaxAttempts != 9 {
		t.Fatalf("cloud-wide policy changed by enclave override: %+v", pol)
	}

	if _, err := cli.GetResilience(ctx, "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unknown enclave = %v, want ErrNotFound", err)
	}
	// An invalid policy is rejected with the invalid-argument mapping.
	if _, err := cli.SetResilience(ctx, "", ResiliencePolicyInfo{MaxAttempts: -1}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("invalid policy = %v, want ErrInvalid", err)
	}
}

// TestV1ReclaimNode: the operator reclaim verb over the wire — a node
// rejected at attestation is scrubbed back to the free pool; reclaiming
// anything not in the rejected pool maps to ErrConflict.
func TestV1ReclaimNode(t *testing.T) {
	cloud, _, cli := startV1Server(t, 2)
	ctx := context.Background()

	m, err := cloud.Machine("node01")
	if err != nil {
		t.Fatal(err)
	}
	evil := firmware.BuildLinuxBoot("heads-v1.0", []byte("implanted heads"))
	m.ReflashFirmware(firmware.NewLinuxBoot(evil, "m620"))

	if _, err := cli.CreateEnclave(ctx, "tenant", "bob"); err != nil {
		t.Fatal(err)
	}
	op, err := cli.Acquire(ctx, "tenant", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cli.WaitOperation(ctx, op.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || len(final.Result.Failed) != 1 || final.Result.Failed[0].Node != "node01" {
		t.Fatalf("result = %+v", final.Result)
	}
	if _, ok := cloud.Rejected()["node01"]; !ok {
		t.Fatalf("rejected pool = %v", cloud.Rejected())
	}

	if err := cli.ReclaimNode(ctx, "tenant", "node01"); err != nil {
		t.Fatal(err)
	}
	if rej := cloud.Rejected(); len(rej) != 0 {
		t.Fatalf("rejected pool after reclaim = %v", rej)
	}
	// Idempotence is deliberately absent: the node is free now, and a
	// second reclaim is a conflict, same as reclaiming a live member.
	if err := cli.ReclaimNode(ctx, "tenant", "node01"); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("second reclaim = %v, want ErrConflict", err)
	}
	if err := cli.ReclaimNode(ctx, "tenant", "node00"); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("reclaim of live member = %v, want ErrConflict", err)
	}
	if err := cli.ReclaimNode(ctx, "ghost", "node01"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("reclaim in unknown enclave = %v, want ErrNotFound", err)
	}
}

// TestV1QuotaBackoffCancelsPromptly (satellite): a client parked in the
// 429 Retry-After backoff must honor context cancellation immediately —
// not sleep out the server's hint.
func TestV1QuotaBackoffCancelsPromptly(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"error":{"code":%q,"message":"core: tenant over quota: node budget spent"}}`, codeExhausted)
	}))
	defer srv.Close()
	cli := NewV1Client(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := cli.ListEnclaves(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	var qe *core.QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want the QuotaError preserved for context", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancel took %v — the client slept out the Retry-After hint", elapsed)
	}
}
