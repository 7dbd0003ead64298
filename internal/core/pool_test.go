package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolted/internal/firmware"
)

// poolEnclave builds an enclave with a warm pool at the given target
// and waits for the refiller to reach it.
func poolEnclave(t *testing.T, cloud *Cloud, profile Profile, target int) *Enclave {
	t.Helper()
	e, err := NewEnclave(cloud, "t", profile)
	if err != nil {
		t.Fatal(err)
	}
	if profile.ContinuousAttest {
		e.IMAWhitelist().AllowContent("/usr/bin/app", []byte("app"))
	}
	pol := DefaultPoolPolicy()
	pol.Target = target
	pol.RetryBackoff = 5 * time.Millisecond
	if err := e.ConfigurePool(pol); err != nil {
		t.Fatal(err)
	}
	waitWarm(t, e, target)
	return e
}

// waitWarm polls until the pool parks `want` standbys.
func waitWarm(t *testing.T, e *Enclave, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, ok := e.PoolStats()
		if ok && st.Warm >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached %d warm: %+v", want, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWarmPoolFastPath: a batch served entirely from the pool reports
// only warm-path phases, and every standby transited Warm on its way
// to Allocated.
func TestWarmPoolFastPath(t *testing.T) {
	cloud := testCloud(t, 4, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileCharlie, 2)
	defer e.Destroy()

	res, err := e.AcquireNodes(context.Background(), "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 || len(res.Failed) != 0 {
		t.Fatalf("allocated %d, failed %d", len(res.Nodes), len(res.Failed))
	}
	if p := res.Timings.ByPhase(PhaseWarmRequote); p.Nodes != 2 {
		t.Fatalf("expected 2 warm re-quotes, got %+v", res.Timings.Phases)
	}
	if p := res.Timings.ByPhase(PhaseBoot); p.Nodes != 0 {
		t.Fatalf("warm batch paid the cold boot phase: %+v", res.Timings.Phases)
	}
	st, _ := e.PoolStats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 hits 0 misses", st)
	}
	// The standbys' journal shows the fast path: warm then joined,
	// with the re-quote recorded against the tenant verifier.
	for _, n := range res.Nodes {
		kinds := map[EventKind]bool{}
		warmRequote := false
		for _, ev := range e.Journal().ByNode(n.Name) {
			kinds[ev.Kind] = true
			if ev.Kind == EvAttested && strings.Contains(ev.Detail, "warm-requote") {
				warmRequote = true
			}
		}
		if !kinds[EvWarm] || !kinds[EvJoined] || !warmRequote {
			t.Fatalf("node %s journal missing warm fast-path records: %v", n.Name, e.Journal().ByNode(n.Name))
		}
		// Full member: data path works like any cold-provisioned node.
		if e.NodeState(n.Name) != StateAllocated {
			t.Fatalf("node %s is %s", n.Name, e.NodeState(n.Name))
		}
	}
	if _, err := e.Send(res.Nodes[0].Name, res.Nodes[1].Name, []byte("ping")); err != nil {
		t.Fatalf("warm-provisioned members cannot talk: %v", err)
	}
}

// TestWarmPoolColdFallback: a batch larger than the pool drains it and
// falls back to the cold chain for the remainder.
func TestWarmPoolColdFallback(t *testing.T) {
	cloud := testCloud(t, 4, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileBob, 1)
	defer e.Destroy()

	res, err := e.AcquireNodes(context.Background(), "fedora28", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("allocated %d of 3 (failed: %v)", len(res.Nodes), res.Failed)
	}
	if p := res.Timings.ByPhase(PhaseWarmProvision); p.Nodes != 1 {
		t.Fatalf("expected 1 warm-path node, got %+v", res.Timings.Phases)
	}
	if p := res.Timings.ByPhase(PhaseBoot); p.Nodes != 2 {
		t.Fatalf("expected 2 cold-path nodes, got %+v", res.Timings.Phases)
	}
	st, _ := e.PoolStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit 2 misses", st)
	}
}

// TestWarmPoolRefillUnderConcurrentDrain: concurrent single-node
// acquisitions and releases race the background refiller; every
// acquisition must get a healthy node and the pool must converge back
// to target once the churn stops.
func TestWarmPoolRefillUnderConcurrentDrain(t *testing.T) {
	cloud := testCloud(t, 8, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileBob, 3)
	defer e.Destroy()

	const (
		workers = 4
		rounds  = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				node, err := e.AcquireNode(context.Background(), "fedora28")
				if err != nil {
					errs <- err
					return
				}
				if err := e.ReleaseNode(node.Name, ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Churn over: the refiller restores target occupancy.
	waitWarm(t, e, 3)
	st, _ := e.PoolStats()
	if st.Rejected != 0 {
		t.Fatalf("healthy churn rejected nodes: %+v", st)
	}
}

// TestWarmQuarantineNeverHandedOut: a quarantined standby leaves the
// pool for the provider's rejected project and no later acquisition —
// or refill — can ever touch it.
func TestWarmQuarantineNeverHandedOut(t *testing.T) {
	cloud := testCloud(t, 3, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileBob, 1)
	defer e.Destroy()

	st, _ := e.PoolStats()
	victim := st.WarmNodes[0]
	if err := e.QuarantineNode(victim, "firmware implant found on standby"); err != nil {
		t.Fatal(err)
	}
	if got := e.NodeState(victim); got != StateQuarantined {
		t.Fatalf("victim is %s, want %s", got, StateQuarantined)
	}
	if _, banned := cloud.Rejected()[victim]; !banned {
		t.Fatal("victim not in the provider's rejected pool")
	}

	// The refiller replaces the standby from the remaining free nodes;
	// the quarantined one must never be chosen again.
	waitWarm(t, e, 1)
	res, err := e.AcquireNodes(context.Background(), "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if n.Name == victim {
			t.Fatalf("quarantined standby %s handed to the tenant", victim)
		}
	}
	st, _ = e.PoolStats()
	for _, n := range st.WarmNodes {
		if n == victim {
			t.Fatalf("quarantined standby %s re-entered the pool", victim)
		}
	}
	// A second quarantine of the same node is a conflict, not a panic.
	if err := e.QuarantineNode(victim, "again"); err == nil {
		t.Fatal("double quarantine succeeded")
	}
}

// TestWarmPoolDrainOnDestroy: DeleteEnclave (via Destroy) stops the
// refiller and returns every standby to the provider's free pool.
func TestWarmPoolDrainOnDestroy(t *testing.T) {
	cloud := testCloud(t, 6, FirmwareLinuxBoot)
	mgr := NewManager(cloud)
	if _, err := mgr.CreateEnclave("t", ProfileBob); err != nil {
		t.Fatal(err)
	}
	if _, created, err := mgr.ConfigurePool("t", PoolPolicy{Target: 3}); err != nil || !created {
		t.Fatalf("configure pool: created=%v err=%v", created, err)
	}
	e, err := mgr.Enclave("t")
	if err != nil {
		t.Fatal(err)
	}
	waitWarm(t, e, 3)

	if err := mgr.DeleteEnclave("t"); err != nil {
		t.Fatal(err)
	}
	free, err := cloud.HIL.FreeNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 6 {
		t.Fatalf("%d of 6 nodes free after delete (standbys leaked?)", len(free))
	}
}

// TestWarmPoolDrainVerb: DrainPool empties the pool, idles the
// refiller (target 0) and keeps the rest of the policy; raising the
// target re-arms it.
func TestWarmPoolDrainVerb(t *testing.T) {
	cloud := testCloud(t, 4, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileBob, 2)
	defer e.Destroy()

	st, err := e.DrainPool()
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm != 0 || st.Policy.Target != 0 || st.Drained < 2 {
		t.Fatalf("drain left %+v", st)
	}
	free, _ := cloud.HIL.FreeNodes()
	if len(free) != 4 {
		t.Fatalf("%d of 4 nodes free after drain", len(free))
	}
	// Idle: no refill happens at target 0.
	time.Sleep(20 * time.Millisecond)
	if st, _ := e.PoolStats(); st.Warm != 0 || st.Refilling != 0 {
		t.Fatalf("drained pool refilled itself: %+v", st)
	}
	// Re-arm.
	pol := st.Policy
	pol.Target = 1
	if err := e.ConfigurePool(pol); err != nil {
		t.Fatal(err)
	}
	waitWarm(t, e, 1)
}

// TestWarmPoolReservationRollback: when the free pool cannot supply
// the cold remainder, the batch fails atomically and the taken
// standbys go back to the pool.
func TestWarmPoolReservationRollback(t *testing.T) {
	cloud := testCloud(t, 2, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileBob, 2)
	defer e.Destroy()

	// 2 warm + 0 free: asking for 4 must fail without consuming the
	// standbys.
	if _, err := e.AcquireNodes(context.Background(), "fedora28", 4); err == nil {
		t.Fatal("over-sized batch succeeded")
	}
	st, _ := e.PoolStats()
	if st.Warm != 2 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("standbys or counters not rolled back: %+v", st)
	}
	// The pool still serves a correctly-sized batch.
	res, err := e.AcquireNodes(context.Background(), "fedora28", 2)
	if err != nil || len(res.Nodes) != 2 {
		t.Fatalf("post-rollback batch: %d nodes, %v", len(res.Nodes), err)
	}
}

// TestPoolPolicyValidate rejects nonsense policies.
func TestPoolPolicyValidate(t *testing.T) {
	for _, p := range []PoolPolicy{
		{Target: -1},
		{Airlocks: -2},
		{MaxRefill: -1},
		{RetryBackoff: -time.Second},
	} {
		if err := p.Validate(); err == nil {
			t.Fatalf("policy %+v validated", p)
		}
	}
	cloud := testCloud(t, 2, FirmwareLinuxBoot)
	e, err := NewEnclave(cloud, "t", ProfileAlice)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ConfigurePool(PoolPolicy{Target: -1}); err == nil {
		t.Fatal("invalid policy configured")
	}
}

// TestWarmPoolNoAttestProfile: Alice's pool skips pre-attestation and
// the fast path skips the re-quote, but the kexec shortcut still
// applies.
func TestWarmPoolNoAttestProfile(t *testing.T) {
	cloud := testCloud(t, 2, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileAlice, 1)
	defer e.Destroy()

	res, err := e.AcquireNodes(context.Background(), "fedora28", 1)
	if err != nil || len(res.Nodes) != 1 {
		t.Fatalf("alice warm acquire: %d nodes, %v", len(res.Nodes), err)
	}
	if p := res.Timings.ByPhase(PhaseWarmRequote); p.Nodes != 0 {
		t.Fatalf("no-attest profile re-quoted: %+v", res.Timings.Phases)
	}
	if p := res.Timings.ByPhase(PhaseWarmProvision); p.Nodes != 1 {
		t.Fatalf("expected warm provision phase: %+v", res.Timings.Phases)
	}
}

// TestWarmBanMidAcquisition: a revocation landing in the window
// between pool.take and admission must not resolve into nothing — the
// node is banned, and both exits from that window (rollback putBack,
// or the admission gate) route it to quarantine instead of the
// enclave, the pool, or the free pool.
func TestWarmBanMidAcquisition(t *testing.T) {
	cloud := testCloud(t, 4, FirmwareLinuxBoot)
	e := poolEnclave(t, cloud, ProfileBob, 2)
	defer e.Destroy()
	pool := e.warmPool()

	// Emulate the guard arriving after a batch took the standby.
	taken := pool.take(1)
	if len(taken) != 1 {
		t.Fatalf("took %d standbys", len(taken))
	}
	victim := taken[0].name
	if err := e.QuarantineNode(victim, "revoked mid-acquisition"); err != nil {
		t.Fatalf("quarantine of a taken standby should ban, not fail: %v", err)
	}
	// Rollback path: putBack must quarantine the banned node rather
	// than re-pool it.
	pool.putBack(taken, 0)
	if got := e.NodeState(victim); got != StateQuarantined {
		t.Fatalf("banned standby is %s after putBack, want %s", got, StateQuarantined)
	}
	if _, banned := cloud.Rejected()[victim]; !banned {
		t.Fatal("banned standby not in the provider's rejected pool")
	}
	st, _ := e.PoolStats()
	for _, n := range st.WarmNodes {
		if n == victim {
			t.Fatalf("banned standby %s re-entered the pool", victim)
		}
	}

	// Admission path: ban another taken standby and let the fast path
	// run — the admission gate must reject it.
	waitWarm(t, e, 1)
	st, _ = e.PoolStats()
	second := st.WarmNodes[0]
	stop := make(chan struct{})
	go func() {
		// Ban as soon as the node leaves the pool, racing the fast path.
		for {
			select {
			case <-stop:
				return
			default:
			}
			if cur, _ := e.PoolStats(); cur.Warm == 0 {
				_ = e.QuarantineNode(second, "revoked mid-acquisition")
				return
			}
		}
	}()
	res, err := e.AcquireNodes(context.Background(), "fedora28", 1)
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	// Either the ban landed before admission (node rejected, batch
	// reports the failure) or after the state check found it already
	// parked/allocated — in no outcome may a banned-and-rejected node
	// be a member while quarantined.
	if len(res.Failed) == 1 {
		if got := e.NodeState(second); got != StateQuarantined && got != StateRejected {
			t.Fatalf("banned standby is %s after rejected admission", got)
		}
	} else if len(res.Nodes) != 1 {
		t.Fatalf("batch produced neither a member nor a failure: %+v", res)
	}
}

// TestReleaseHandsBackAfterLifecycle: every path that hands a node back
// to the provider lets go of it in the enclave's life cycle first, so an
// acquisition in the same enclave that claims the node the moment HIL
// frees it — here from inside FreeNode, on a one-node cloud — walks it
// like any free node instead of rejecting a healthy one.
func TestReleaseHandsBackAfterLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, c *Cloud, e *Enclave) func() error
	}{
		{"release", func(t *testing.T, c *Cloud, e *Enclave) func() error {
			n, err := e.AcquireNode(context.Background(), "fedora28")
			if err != nil {
				t.Fatal(err)
			}
			return func() error { return e.ReleaseNode(n.Name, "") }
		}},
		{"reclaim", func(t *testing.T, c *Cloud, e *Enclave) func() error {
			m, err := c.Machine("node00")
			if err != nil {
				t.Fatal(err)
			}
			m.ReflashFirmware(firmware.NewLinuxBoot(firmware.BuildLinuxBoot("heads-v1.0", []byte("implanted heads")), "m620"))
			if res, err := e.AcquireNodes(context.Background(), "fedora28", 1); err != nil || len(res.Failed) != 1 {
				t.Fatalf("setup: implanted node not rejected: %v", err)
			}
			m.ReflashFirmware(firmware.NewLinuxBoot(c.Heads, "m620")) // repaired
			return func() error { return e.ReclaimRejected(context.Background(), "node00") }
		}},
		{"drain", func(t *testing.T, c *Cloud, e *Enclave) func() error {
			pol := DefaultPoolPolicy()
			pol.Target = 1
			if err := e.ConfigurePool(pol); err != nil {
				t.Fatal(err)
			}
			waitWarm(t, e, 1)
			return func() error { _, err := e.DrainPool(); return err }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCloud(t, 1, FirmwareLinuxBoot)
			var (
				armed atomic.Bool
				e     *Enclave
				res   *BatchResult
				err   error
			)
			c.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
				ferr := next(ctx)
				if call.Backend == BackendHIL && call.Method == "FreeNode" && ferr == nil && armed.CompareAndSwap(true, false) {
					res, err = e.AcquireNodes(context.Background(), "fedora28", 1)
				}
				return ferr
			})
			e, nerr := NewEnclave(c, "t", ProfileBob)
			if nerr != nil {
				t.Fatal(nerr)
			}
			defer e.Destroy()
			release := tc.setup(t, c, e)
			armed.Store(true)
			if rerr := release(); rerr != nil {
				t.Fatal(rerr)
			}
			if armed.Load() {
				t.Fatal("the node never reached hil.FreeNode")
			}
			if err != nil || len(res.Nodes) != 1 || len(res.Failed) != 0 {
				t.Fatalf("acquire inside the hand-back window: %v, failed %v", err, res.Failed)
			}
			if rej := c.Rejected(); len(rej) != 0 {
				t.Fatalf("healthy node rejected: %v", rej)
			}
			if st := e.NodeState(res.Nodes[0].Name); st != StateAllocated {
				t.Fatalf("%s is %s, want %s", res.Nodes[0].Name, st, StateAllocated)
			}
		})
	}
}

// TestBannedStandbyNeverFreed: a standby banned while it sits in the pool
// and then drained goes straight to the provider's rejected project; it
// never passes through the free pool, where any batch could claim it.
func TestBannedStandbyNeverFreed(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	var (
		mu    sync.Mutex
		freed []string
	)
	c.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		if call.Backend == BackendHIL && call.Method == "FreeNode" {
			mu.Lock()
			freed = append(freed, call.Key)
			mu.Unlock()
		}
		return next(ctx)
	})
	e := poolEnclave(t, c, ProfileBob, 1)
	defer e.Destroy()
	st, _ := e.PoolStats()
	victim := st.WarmNodes[0]
	e.banNode(victim, "revoked while parked")
	if _, err := e.DrainPool(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if slices.Contains(freed, victim) {
		t.Fatalf("banned standby %s was handed to hil.FreeNode", victim)
	}
	if _, ok := c.Rejected()[victim]; !ok {
		t.Fatalf("banned standby %s is not in the rejected pool", victim)
	}
	free, _ := c.HIL.FreeNodes()
	if slices.Contains(free, victim) {
		t.Fatalf("banned standby %s is in the free pool", victim)
	}
}

// TestRefillYieldsToColdReservation: an acquisition that takes standbys
// and reserves the rest cold holds the refiller off until it has
// reserved, so the refill that replaces the standbys cannot claim the
// free node the batch needs. The batch's reservation waits (briefly) for
// a competing refill reservation to go first; none may come.
func TestRefillYieldsToColdReservation(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	var armed atomic.Bool
	refilled := make(chan struct{}, 1)
	c.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		if call.Backend != BackendHIL || call.Method != "AllocateAnyNode" || !armed.Load() {
			return next(ctx)
		}
		if class, _ := schedRequest(ctx); class == ClassBackground {
			err := next(ctx)
			select {
			case refilled <- struct{}{}:
			default:
			}
			return err
		}
		select {
		case <-refilled:
		case <-time.After(200 * time.Millisecond):
		}
		return next(ctx)
	})
	e := poolEnclave(t, c, ProfileBob, 1)
	defer e.Destroy()
	armed.Store(true)
	res, err := e.AcquireNodes(context.Background(), "fedora28", 2)
	if err != nil || len(res.Nodes) != 2 {
		t.Fatalf("1 warm + 1 cold on a two-node cloud: %v", err)
	}
}
