package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"bolted/internal/bmi"
	"bolted/internal/core"
)

// These tests drive the real provisioning pipeline with the injector
// between the resilience layer and the in-process services — the same
// stack the boltedsim fault sweep runs, as a tier-1 test: the issue's
// acceptance gate is that at a 5% per-call transient-fault rate an
// 8-node batch still acquires 8/8 with zero spurious rejects.

// faultedCloud builds an n-node cloud with a fresh injector on the
// backend call seam (seeded, all backends on the given profile) and
// resilience enabled outside it under pol.
func faultedCloud(t *testing.T, n int, seed int64, p Profile, pol core.ResiliencePolicy) (*core.Cloud, *Injector) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = n
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
		KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
	}); err != nil {
		t.Fatal(err)
	}
	inj := New(seed)
	t.Cleanup(inj.Close)
	for _, b := range Backends {
		inj.Set(b, p)
	}
	cloud.Intercept(inj.Intercept)
	if err := cloud.EnableResilience(pol); err != nil {
		t.Fatal(err)
	}
	return cloud, inj
}

// retryHeavy is deep enough to out-last any streak the tested rates
// produce, with a breaker that tolerates the whole batch.
func retryHeavy() core.ResiliencePolicy {
	return core.ResiliencePolicy{
		MaxAttempts:      8,
		RetryBackoff:     100 * time.Microsecond,
		BackoffCap:       time.Millisecond,
		BreakerThreshold: 64,
		BreakerCooldown:  10 * time.Millisecond,
	}
}

// TestBatchAcquireUnderTransientFaults is the acceptance gate: a full
// 8-node batch lands with zero spurious rejects at the 5% rate, and
// stays clean at 10% and 20% — one flaky service call must never send
// a healthy node to the rejected pool.
func TestBatchAcquireUnderTransientFaults(t *testing.T) {
	for _, rate := range []float64{0.05, 0.10, 0.20} {
		cloud, inj := faultedCloud(t, 8, 1337, Profile{ErrorRate: rate}, retryHeavy())
		e, err := core.NewEnclave(cloud, "tenant", core.ProfileBob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.AcquireNodes(context.Background(), "os", 8)
		if err != nil {
			t.Fatalf("rate %.2f: %v", rate, err)
		}
		if len(res.Nodes) != 8 || len(res.Failed) != 0 || len(res.Aborted) != 0 {
			t.Fatalf("rate %.2f: acquired=%d failed=%v aborted=%v",
				rate, len(res.Nodes), res.Failed, res.Aborted)
		}
		if cloud.CheckDegraded() != nil {
			t.Fatalf("rate %.2f: batch tripped the cloud into degraded mode", rate)
		}
		var injected uint64
		for _, b := range Backends {
			for _, n := range inj.StatsFor(b).Injected {
				injected += n
			}
		}
		if rate > 0 && injected == 0 {
			t.Fatalf("rate %.2f: injector never fired — the test proved nothing", rate)
		}
	}
}

// TestTornResponsesDoNotSpuriouslyReject: torn responses (side effect
// applied, response lost) are the nastiest transient shape — the retry
// repeats an op whose first attempt may have landed. The pipeline's ops
// tolerate the replay and the batch still comes up whole.
func TestTornResponsesDoNotSpuriouslyReject(t *testing.T) {
	cloud, _ := faultedCloud(t, 4, 99, Profile{TornRate: 0.05}, retryHeavy())
	e, err := core.NewEnclave(cloud, "tenant", core.ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AcquireNodes(context.Background(), "os", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 4 || len(res.Failed) != 0 {
		t.Fatalf("acquired=%d failed=%v", len(res.Nodes), res.Failed)
	}
}

// TestInjectedOutageTripsBreakerThenRecovers runs the degraded-mode arc
// through the full interceptor stack (resilient{faulty{real}}): a total
// HIL outage trips the breaker, the manager fails new acquires fast
// with the typed error, and healing the injector lets the half-open
// probe close the breaker.
func TestInjectedOutageTripsBreakerThenRecovers(t *testing.T) {
	pol := core.ResiliencePolicy{
		MaxAttempts:      1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	}
	cloud, inj := faultedCloud(t, 2, 7, Profile{}, pol)
	mgr := core.NewManager(cloud)
	if _, err := mgr.CreateEnclave("tenant", core.ProfileBob); err != nil {
		t.Fatal(err)
	}

	inj.Set("hil", Profile{ErrorRate: 1})
	for i := 0; i < 3; i++ {
		if _, err := cloud.HIL.FreeNodes(); err == nil {
			t.Fatalf("outage call %d succeeded", i)
		}
	}
	h := mgr.Health()
	if !h.Degraded || h.Backends[core.BackendHIL].State != core.BreakerOpen {
		t.Fatalf("health after outage = %+v", h)
	}
	if _, err := mgr.StartAcquire("tenant", "os", 1); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("StartAcquire during outage = %v, want ErrDegraded", err)
	}

	inj.Set("hil", Profile{}) // service restored
	time.Sleep(60 * time.Millisecond)
	if _, err := cloud.HIL.FreeNodes(); err != nil {
		t.Fatalf("post-outage probe: %v", err)
	}
	if mgr.Health().Degraded {
		t.Fatal("still degraded after successful probe")
	}
}

// TestLivePolicyUpdateDuringBatch (a -race test): PUT /v1/resilience
// replaces the cloud-wide policy while provisioner goroutines are
// mid-retry and breakers are counting failures. The update must be
// safe beside them and the batch must still land whole.
func TestLivePolicyUpdateDuringBatch(t *testing.T) {
	cloud, _ := faultedCloud(t, 8, 1337, Profile{ErrorRate: 0.10}, retryHeavy())
	mgr := core.NewManager(cloud)
	e, err := mgr.CreateEnclave("tenant", core.ProfileBob)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	updated := make(chan int)
	go func() {
		n := 0
		defer func() { updated <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Alternate two policies so every field really changes.
			pol := retryHeavy()
			if n%2 == 1 {
				pol.MaxAttempts, pol.BreakerThreshold, pol.BreakerCooldown = 9, 65, 11*time.Millisecond
			}
			if _, err := mgr.ConfigureResilience("", pol); err != nil {
				t.Errorf("ConfigureResilience: %v", err)
				return
			}
			n++
		}
	}()

	res, err := e.AcquireNodes(context.Background(), "os", 8)
	close(stop)
	if n := <-updated; n == 0 {
		t.Fatal("no policy update ran beside the batch — the test proved nothing")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 8 || len(res.Failed) != 0 || len(res.Aborted) != 0 {
		t.Fatalf("acquired=%d failed=%v aborted=%v", len(res.Nodes), res.Failed, res.Aborted)
	}
}
