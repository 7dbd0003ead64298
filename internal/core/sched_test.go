package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bolted/internal/tpm"
)

// --- FairQueue ---

func popAll(q *FairQueue) []string {
	var order []string
	for {
		_, tenant, ok := q.Pop()
		if !ok {
			return order
		}
		order = append(order, tenant)
	}
}

func TestFairQueueFIFOAtEqualWeight(t *testing.T) {
	q := NewFairQueue()
	q.Push("a", ClassForeground)
	q.Push("b", ClassForeground)
	q.Push("a", ClassForeground)
	got := popAll(q)
	want := []string{"a", "b", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestFairQueueInterleavesBackloggedTenant(t *testing.T) {
	// A hog enqueues a train of 8 before a light tenant's single
	// request arrives: fair queueing serves the light tenant after at
	// most one hog unit instead of behind the whole train.
	q := NewFairQueue()
	for i := 0; i < 8; i++ {
		q.Push("hog", ClassForeground)
	}
	q.Push("light", ClassForeground)
	order := popAll(q)
	for i, tenant := range order {
		if tenant == "light" {
			if i > 1 {
				t.Fatalf("light tenant served at position %d behind the hog train: %v", i, order)
			}
			return
		}
	}
	t.Fatal("light tenant never served")
}

func TestFairQueueWeights(t *testing.T) {
	q := NewFairQueue()
	q.SetWeight("heavy", 3)
	for i := 0; i < 9; i++ {
		q.Push("heavy", ClassForeground)
		q.Push("light", ClassForeground)
	}
	heavy := 0
	for i := 0; i < 8; i++ {
		_, tenant, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if tenant == "heavy" {
			heavy++
		}
	}
	// Weight 3:1 should give the heavy tenant ~6 of the first 8 grants.
	if heavy < 5 || heavy > 7 {
		t.Fatalf("heavy tenant got %d of first 8 grants, want ~6", heavy)
	}
}

func TestFairQueuePriorityBands(t *testing.T) {
	q := NewFairQueue()
	q.Push("pool", ClassBackground)
	q.Push("pool", ClassBackground)
	q.Push("tenant", ClassForeground)
	if _, tenant, _ := q.Pop(); tenant != "tenant" {
		t.Fatalf("foreground did not outrank queued background, got %q", tenant)
	}
	if q.LenClass(ClassBackground) != 2 || q.LenClass(ClassForeground) != 0 {
		t.Fatalf("band lengths bg=%d fg=%d", q.LenClass(ClassBackground), q.LenClass(ClassForeground))
	}
}

func TestFairQueueRemove(t *testing.T) {
	q := NewFairQueue()
	q.Push("a", ClassForeground)
	id := q.Push("b", ClassForeground)
	q.Push("c", ClassForeground)
	if !q.Remove(id) {
		t.Fatal("Remove of queued id failed")
	}
	if q.Remove(id) {
		t.Fatal("double Remove succeeded")
	}
	got := popAll(q)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("pop after remove = %v", got)
	}
}

// --- Scheduler ---

func TestSchedulerGrantsUpToSlots(t *testing.T) {
	s := NewScheduler(2)
	ctx := context.Background()
	rel1, err := s.Acquire(ctx, "a", ClassForeground, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Acquire(ctx, "a", ClassForeground, nil)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan func(), 1)
	go func() {
		rel3, err := s.Acquire(ctx, "b", ClassForeground, nil)
		if err != nil {
			t.Error(err)
		}
		granted <- rel3
	}()
	waitQueued(t, s, 1)
	select {
	case <-granted:
		t.Fatal("third acquire granted past the slot count")
	default:
	}
	rel1()
	rel3 := <-granted
	rel3()
	rel2()
	if st := s.Stats(); st.InUse != 0 || st.Queued != 0 || st.Grants != 3 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestSchedulerCancelWhileQueued(t *testing.T) {
	s := NewScheduler(1)
	rel, err := s.Acquire(context.Background(), "a", ClassForeground, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, "b", ClassForeground, nil)
		errc <- err
	}()
	waitQueued(t, s, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	if q := s.Queued(); q != 0 {
		t.Fatalf("cancelled waiter still queued (%d)", q)
	}
	rel()
	// The slot must still be grantable after the cancellation.
	rel2, err := s.Acquire(context.Background(), "c", ClassForeground, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

func TestSchedulerForegroundPreemptsBackgroundHolder(t *testing.T) {
	s := NewScheduler(1)
	bgCtx, bgCancel := context.WithCancel(context.Background())
	relBG, err := s.Acquire(bgCtx, "pool", ClassBackground, bgCancel)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan func(), 1)
	go func() {
		rel, err := s.Acquire(context.Background(), "tenant", ClassForeground, nil)
		if err != nil {
			t.Error(err)
		}
		granted <- rel
	}()
	// The queued foreground request must fire the holder's preempt hook.
	select {
	case <-bgCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("background holder never preempted")
	}
	// The slot only frees when the preempted pipeline releases.
	relBG()
	rel := <-granted
	rel()
	st := s.Stats()
	if st.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", st.Preemptions)
	}
}

func TestSchedulerBackgroundDoesNotPreempt(t *testing.T) {
	s := NewScheduler(1)
	bgCtx, bgCancel := context.WithCancel(context.Background())
	relBG, err := s.Acquire(bgCtx, "pool", ClassBackground, bgCancel)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer close(done)
		if _, err := s.Acquire(ctx, "pool", ClassBackground, nil); err == nil {
			t.Error("second background acquire granted on a full house")
		}
	}()
	waitQueued(t, s, 1)
	if bgCtx.Err() != nil {
		t.Fatal("background waiter preempted the background holder")
	}
	cancel()
	<-done
	relBG()
	if st := s.Stats(); st.Preemptions != 0 {
		t.Fatalf("preemptions = %d, want 0", st.Preemptions)
	}
}

func TestSchedulerSetSlotsDispatchesWaiters(t *testing.T) {
	s := NewScheduler(1)
	rel, err := s.Acquire(context.Background(), "a", ClassForeground, nil)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(chan func(), 1)
	go func() {
		rel2, err := s.Acquire(context.Background(), "a", ClassForeground, nil)
		if err != nil {
			t.Error(err)
		}
		granted <- rel2
	}()
	waitQueued(t, s, 1)
	s.SetSlots(2)
	rel2 := <-granted
	rel2()
	rel()
}

func TestSchedulerFairGrantOrder(t *testing.T) {
	// One slot, a hog with 4 queued requests, then one light request:
	// the light tenant is granted after at most one hog grant.
	s := NewScheduler(1)
	relHold, err := s.Acquire(context.Background(), "hold", ClassForeground, nil)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 8)
	var wg sync.WaitGroup
	enqueue := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := s.Acquire(context.Background(), tenant, ClassForeground, nil)
			if err != nil {
				t.Error(err)
				return
			}
			order <- tenant
			rel()
		}()
	}
	for i := 0; i < 4; i++ {
		enqueue("hog")
		waitQueued(t, s, i+1)
	}
	enqueue("light")
	waitQueued(t, s, 5)
	relHold()
	wg.Wait()
	close(order)
	pos := -1
	i := 0
	for tenant := range order {
		if tenant == "light" {
			pos = i
		}
		i++
	}
	if pos < 0 || pos > 1 {
		t.Fatalf("light tenant granted at position %d, want <= 1", pos)
	}
}

// waitQueued polls until the scheduler reports depth queued waiters.
func waitQueued(t *testing.T, s *Scheduler, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Queued() < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", depth, s.Queued())
		}
		time.Sleep(time.Millisecond)
	}
}

// --- quota types and refill backoff ---

func TestQuotaErrorMatchesSentinel(t *testing.T) {
	err := fmt.Errorf("wrapped: %w", &QuotaError{Tenant: "t", Detail: "cap", RetryAfter: time.Second})
	if !errors.Is(err, ErrOverQuota) {
		t.Fatal("QuotaError does not match ErrOverQuota")
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "t" {
		t.Fatalf("errors.As lost the QuotaError: %v", err)
	}
}

func TestTenantQuotaValidate(t *testing.T) {
	if err := (TenantQuota{Weight: 2, MaxNodes: 4, MaxInFlight: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []TenantQuota{{Weight: -1}, {MaxNodes: -1}, {MaxInFlight: -2}} {
		if err := q.Validate(); !errors.Is(err, ErrInvalid) {
			t.Fatalf("Validate(%+v) = %v, want ErrInvalid", q, err)
		}
	}
}

// --- pipeline integration: preemption of an in-flight refill ---

// bgGateDriver blocks background-class (warm-refill) attestation
// whitelist fetches until its gate opens, honoring ctx cancellation —
// it freezes the refiller inside its airlock hold without slowing any
// foreground work.
type bgGateDriver struct {
	NodeDriver
	mu      sync.Mutex
	blocked int
	gate    chan struct{}
}

func (d *bgGateDriver) ExpectedBootPCRs(ctx context.Context, node string) (map[int][]tpm.Digest, error) {
	if class, _ := schedRequest(ctx); class == ClassBackground {
		d.mu.Lock()
		d.blocked++
		gate := d.gate
		d.mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return d.NodeDriver.ExpectedBootPCRs(ctx, node)
}

func (d *bgGateDriver) blockedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocked
}

// TestForegroundAcquireDisplacesRefill pins the tentpole's preemption
// contract: with a single airlock slot held by an in-flight warm-pool
// refill quote, a foreground 4-node acquire does not wait for the
// refill to finish — the scheduler cancels the refill attempt, the
// healthy node aborts back to the free pool (not rejected), and the
// batch completes. Afterwards the refiller recovers and parks its
// standby.
func TestForegroundAcquireDisplacesRefill(t *testing.T) {
	cloud := testCloud(t, 6, FirmwareLinuxBoot)
	gd := &bgGateDriver{NodeDriver: cloud.Driver, gate: make(chan struct{})}
	cloud.Driver = gd

	e, err := NewEnclave(cloud, "t", ProfileCharlie)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	e.IMAWhitelist().AllowContent("/usr/bin/app", []byte("app"))

	pol := DefaultPoolPolicy()
	pol.Target = 1
	pol.Airlocks = 1
	pol.RetryBackoff = 5 * time.Millisecond
	if err := e.ConfigurePool(pol); err != nil {
		t.Fatal(err)
	}

	// Wait for the refill attempt to freeze inside its airlock hold.
	deadline := time.Now().Add(10 * time.Second)
	for gd.blockedCount() == 0 || cloud.Scheduler().Stats().InUse == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("refill never froze in the airlock: %+v", cloud.Scheduler().Stats())
		}
		time.Sleep(time.Millisecond)
	}

	res, err := e.AcquireNodes(context.Background(), "fedora28", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 4 || len(res.Failed) != 0 {
		t.Fatalf("foreground batch = %d nodes, %d failed", len(res.Nodes), len(res.Failed))
	}
	st := cloud.Scheduler().Stats()
	if st.Preemptions == 0 {
		t.Fatalf("foreground acquire completed without preempting the refill: %+v", st)
	}
	// The preempted node aborted back to free — never quarantined.
	if rej := cloud.Rejected(); len(rej) != 0 {
		t.Fatalf("preempted refill node landed in the rejected pool: %v", rej)
	}
	// With the gate open the refiller recovers and parks its standby.
	close(gd.gate)
	waitWarm(t, e, 1)
}

// TestManagerQuotaCRUD covers the /v1-facing quota registry.
func TestManagerQuotaCRUD(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	m := NewManager(c)

	if _, err := m.Quota("t"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unset quota = %v, want ErrNotFound", err)
	}
	st, created, err := m.SetQuota("t", TenantQuota{Weight: 4, MaxNodes: 8, MaxInFlight: 2})
	if err != nil || !created {
		t.Fatalf("SetQuota = %+v, %v, %v", st, created, err)
	}
	if _, created, err = m.SetQuota("t", TenantQuota{Weight: 2}); err != nil || created {
		t.Fatalf("update reported created=%v, err=%v", created, err)
	}
	if _, _, err := m.SetQuota("t", TenantQuota{Weight: -1}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid quota = %v, want ErrInvalid", err)
	}
	if _, _, err := m.SetQuota("", TenantQuota{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unnamed tenant quota = %v, want ErrInvalid", err)
	}
	got, err := m.Quota("t")
	if err != nil || got.Quota.Weight != 2 {
		t.Fatalf("Quota = %+v, %v", got, err)
	}
	m.SetQuota("a", TenantQuota{Weight: 1})
	list := m.ListQuotas()
	if len(list) != 2 || list[0].Tenant != "a" || list[1].Tenant != "t" {
		t.Fatalf("ListQuotas = %+v", list)
	}
	if err := m.DeleteQuota("t"); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteQuota("t"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	if _, err := m.Quota("t"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted quota still resolvable")
	}
}

func TestAdmissionInFlightCap(t *testing.T) {
	c := testCloud(t, 4, FirmwareLinuxBoot)
	m := NewManager(c)
	if _, err := m.CreateEnclave("t", ProfileBob); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SetQuota("t", TenantQuota{MaxInFlight: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := m.StartAcquire("t", "fedora28", 3)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over-cap acquire = %v, want ErrOverQuota", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "t" || qe.RetryAfter <= 0 {
		t.Fatalf("rejection lost its QuotaError detail: %v", err)
	}
	op, err := m.StartAcquire("t", "fedora28", 2)
	if err != nil {
		t.Fatalf("within-cap acquire rejected: %v", err)
	}
	if _, err := op.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionMaxNodesCountsMembers(t *testing.T) {
	c := testCloud(t, 4, FirmwareLinuxBoot)
	m := NewManager(c)
	if _, err := m.CreateEnclave("t", ProfileBob); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SetQuota("t", TenantQuota{MaxNodes: 2}); err != nil {
		t.Fatal(err)
	}
	op, err := m.StartAcquire("t", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartAcquire("t", "fedora28", 1); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("acquire past footprint cap = %v, want ErrOverQuota", err)
	}
	st, err := m.Quota("t")
	if err != nil || st.Nodes != 2 || st.InFlight != 0 {
		t.Fatalf("QuotaStatus = %+v, %v", st, err)
	}
}

func TestAdmissionQueueBackpressure(t *testing.T) {
	c := testCloud(t, 4, FirmwareLinuxBoot)
	m := NewManager(c)
	if _, err := m.CreateEnclave("t", ProfileBob); err != nil {
		t.Fatal(err)
	}
	s := c.Scheduler()
	s.SetSlots(1)
	rel, err := s.Acquire(context.Background(), "x", ClassForeground, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Acquire(ctx, "y", ClassForeground, nil)
	}()
	waitQueued(t, s, 1)

	m.SetBackpressureLimit(1)
	if _, err := m.StartAcquire("t", "fedora28", 1); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("acquire under backpressure = %v, want ErrOverQuota", err)
	}
	m.SetBackpressureLimit(0) // disabled again
	cancel()
	wg.Wait()
	rel()
	op, err := m.StartAcquire("t", "fedora28", 1)
	if err != nil {
		t.Fatalf("acquire after backpressure lifted: %v", err)
	}
	if _, err := op.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestForegroundWaitNoWorseThanRefillerDisabled pins the acceptance
// bound: a foreground 4-node acquire with the warm pool actively
// refilling takes no longer (modulo scheduling noise) than the same
// acquire with no refiller at all, because background refill quotes
// are displaced rather than waited out.
func TestForegroundWaitNoWorseThanRefillerDisabled(t *testing.T) {
	measure := func(configurePool bool) time.Duration {
		cloud := testCloud(t, 8, FirmwareLinuxBoot)
		e, err := NewEnclave(cloud, "t", ProfileCharlie)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Destroy()
		e.IMAWhitelist().AllowContent("/usr/bin/app", []byte("app"))
		if configurePool {
			pol := DefaultPoolPolicy()
			pol.Target = 3
			pol.Airlocks = 1
			pol.RetryBackoff = time.Millisecond
			if err := e.ConfigurePool(pol); err != nil {
				t.Fatal(err)
			}
			// Drain any parked standbys so the batch takes the cold
			// path while the refiller keeps competing for the slot.
			for {
				if st, _ := e.PoolStats(); st.Warm == 0 {
					break
				}
				e.DrainPool()
				time.Sleep(time.Millisecond)
			}
		} else {
			cloud.Scheduler().SetSlots(1)
		}
		start := time.Now()
		res, err := e.AcquireNodes(context.Background(), "fedora28", 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Nodes) != 4 {
			t.Fatalf("batch = %d nodes (failed %d)", len(res.Nodes), len(res.Failed))
		}
		return time.Since(start)
	}
	withRefill := measure(true)
	withoutRefill := measure(false)
	t.Logf("4-node acquire: refilling pool %v, refiller disabled %v", withRefill, withoutRefill)
	if raceEnabled {
		t.Skip("wall-clock bound not meaningful under the race detector")
	}
	// "No worse" with headroom for scheduler noise on loaded CI.
	if withRefill > 2*withoutRefill+time.Second {
		t.Fatalf("refilling pool slowed the foreground acquire: %v vs %v", withRefill, withoutRefill)
	}
}

// TestManagerConcurrentCreateDeleteDuringAcquire races enclave
// lifecycle churn against an in-flight acquire. Any interleaving is
// allowed to win or lose individual CRUD calls — the invariants are
// that only the documented sentinels surface, the in-flight operation
// completes, and the run is clean under -race.
func TestManagerConcurrentCreateDeleteDuringAcquire(t *testing.T) {
	c := testCloud(t, 8, FirmwareLinuxBoot)
	m := NewManager(c)
	if _, err := m.CreateEnclave("tenant", ProfileBob); err != nil {
		t.Fatal(err)
	}
	op, err := m.StartAcquire("tenant", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}

	allowed := func(err error) bool {
		return err == nil ||
			errors.Is(err, ErrExists) ||
			errors.Is(err, ErrConflict) ||
			errors.Is(err, ErrNotFound)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("ghost-%d", g)
				if _, err := m.CreateEnclave(name, ProfileBob); !allowed(err) {
					t.Errorf("CreateEnclave(%s): %v", name, err)
				}
				if err := m.DeleteEnclave(name); !allowed(err) {
					t.Errorf("DeleteEnclave(%s): %v", name, err)
				}
				// Deleting the enclave with a running operation must
				// refuse with ErrConflict, never corrupt the batch.
				if err := m.DeleteEnclave("tenant"); !allowed(err) {
					t.Errorf("DeleteEnclave(tenant): %v", err)
				}
			}
		}(g)
	}
	res, opErr := op.Wait(context.Background())
	wg.Wait()
	if opErr == nil {
		if len(res.Nodes) != 2 {
			t.Fatalf("acquire finished with %d nodes", len(res.Nodes))
		}
	} else if !errors.Is(opErr, ErrNotFound) && !errors.Is(opErr, context.Canceled) {
		// A racing delete may legally have torn the enclave down only
		// if the operation had already finished; anything else is a bug.
		t.Fatalf("op.Wait = %v", opErr)
	}
}
