package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolted/internal/firmware"
)

func TestAcquireNodesBatchHappyPath(t *testing.T) {
	c := testCloud(t, 8, FirmwareLinuxBoot)
	e, err := NewEnclave(c, "batch", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AcquireNodes(context.Background(), "fedora28", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 8 || len(res.Failed) != 0 || len(res.Aborted) != 0 {
		t.Fatalf("nodes=%d failed=%v aborted=%v", len(res.Nodes), res.Failed, res.Aborted)
	}
	// Every member booted the tenant kernel and is tracked as Allocated.
	for _, n := range res.Nodes {
		if n.Machine.Layer() != firmware.LayerTenantKernel {
			t.Fatalf("%s layer = %s", n.Name, n.Machine.Layer())
		}
		if st := e.NodeState(n.Name); st != StateAllocated {
			t.Fatalf("%s state = %s", n.Name, st)
		}
		if st, err := e.Verifier().Status(n.Name); err != nil || st != "verified" {
			t.Fatalf("%s verifier status = %s, %v", n.Name, st, err)
		}
	}
	if free, _ := c.HIL.FreeNodes(); len(free) != 0 {
		t.Fatalf("free pool = %v", free)
	}
	// Per-node journal trails are complete and ordered despite the
	// concurrent pipeline.
	want := []EventKind{EvAllocated, EvAirlocked, EvBooting, EvAttesting, EvAttested, EvProvisioned, EvBooted, EvJoined}
	for _, n := range res.Nodes {
		trail := e.Journal().ByNode(n.Name)
		if len(trail) != len(want) {
			t.Fatalf("%s trail = %v", n.Name, trail)
		}
		for i := range want {
			if trail[i].Kind != want[i] {
				t.Fatalf("%s trail[%d] = %s, want %s", n.Name, i, trail[i].Kind, want[i])
			}
		}
	}
	// The batch reports timings in the simulation's phase vocabulary.
	for _, phase := range []string{PhaseAirlock, PhaseBoot, PhaseAttest, PhaseProvision} {
		pt := res.Timings.ByPhase(phase)
		if pt.Nodes != 8 || pt.Total <= 0 || pt.Max <= 0 {
			t.Fatalf("phase %s timing = %+v", phase, pt)
		}
	}
	if res.Timings.Wall <= 0 {
		t.Fatal("no wall-clock measured")
	}
}

// TestAcquireNodesBatchWallClock is the scalability acceptance check: a
// batch walks its nodes concurrently, strictly better than the paper
// prototype's serial loop. It is shown directly, not by timing: an
// interceptor on the driver's per-node Boot counts the nodes inside it at
// once, and the first to arrive waits (boundedly) for a sibling to join it.
func TestAcquireNodesBatchWallClock(t *testing.T) {
	c := testCloud(t, 8, FirmwareLinuxBoot)
	var (
		inside  atomic.Int32
		first   atomic.Bool
		overlap = make(chan struct{}) // closed once two nodes are inside Boot at once
		once    sync.Once
	)
	c.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		if call.Backend != BackendDriver || call.Method != "Boot" {
			return next(ctx)
		}
		if inside.Add(1) > 1 {
			once.Do(func() { close(overlap) })
		}
		defer inside.Add(-1)
		if first.CompareAndSwap(false, true) {
			select {
			case <-overlap:
			case <-time.After(5 * time.Second): // a serial batch: no sibling ever comes
			}
		}
		return next(ctx)
	})
	e, err := NewEnclave(c, "batch", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AcquireNodes(context.Background(), "fedora28", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 8 {
		t.Fatalf("batch allocated %d nodes", len(res.Nodes))
	}
	select {
	case <-overlap:
	default:
		t.Error("no two nodes of a batch of 8 were booting at once: the batch walks its nodes one at a time")
	}
}

func TestAcquireNodesIsolatesAttestationFailure(t *testing.T) {
	c := testCloud(t, 8, FirmwareLinuxBoot)
	e, err := NewEnclave(c, "batch", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	// A previous tenant implanted node03's firmware.
	m, err := c.Machine("node03")
	if err != nil {
		t.Fatal(err)
	}
	evil := firmware.BuildLinuxBoot("heads-v1.0", []byte("implanted heads"))
	m.ReflashFirmware(firmware.NewLinuxBoot(evil, "m620"))

	res, err := e.AcquireNodes(context.Background(), "fedora28", 8)
	if err != nil {
		t.Fatal(err) // a per-node failure must not fail the batch
	}
	if len(res.Nodes) != 7 {
		t.Fatalf("siblings allocated = %d, want 7", len(res.Nodes))
	}
	if len(res.Failed) != 1 || res.Failed[0].Node != "node03" || res.Failed[0].Phase != PhaseAttest {
		t.Fatalf("failed = %v", res.Failed)
	}
	// The bad node is quarantined in the provider's rejected pool, off
	// every network, and the lifecycle records the rejection.
	if _, ok := c.Rejected()["node03"]; !ok {
		t.Fatalf("rejected pool = %v", c.Rejected())
	}
	if owner, _ := c.HIL.NodeOwner("node03"); owner != RejectedProject {
		t.Fatalf("node03 owner = %q", owner)
	}
	port, _ := c.HIL.NodePort("node03")
	if vlans, _ := c.Fabric.VLANsOf(port); len(vlans) != 0 {
		t.Fatalf("rejected node still on VLANs %v", vlans)
	}
	if st := e.NodeState("node03"); st != StateRejected {
		t.Fatalf("node03 state = %s", st)
	}
	// Siblings are live members: traffic flows between them.
	if _, err := e.Send(res.Nodes[0].Name, res.Nodes[1].Name, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireNodesContextCancelledUpFront(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	e, err := NewEnclave(c, "t", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AcquireNodes(ctx, "fedora28", 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Nothing was reserved or touched.
	if free, _ := c.HIL.FreeNodes(); len(free) != 2 {
		t.Fatalf("free pool = %v", free)
	}
	if got := len(e.Journal().Events()); got != 0 {
		t.Fatalf("journal has %d events", got)
	}
}

// countdownCtx cancels itself after a fixed number of Err checks. The
// pipeline consults ctx at every phase boundary and inside each HIL /
// BMI / Keylime call, so a budget that outlives a few nodes' worth of
// checks cancels the batch mid-flight deterministically — independent
// of goroutine scheduling (a wall-clock cancel is flaky on one CPU).
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestAcquireNodesCancellationMidBatch(t *testing.T) {
	c := testCloud(t, 16, FirmwareLinuxBoot)
	e, err := NewEnclave(c, "t", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	// Reservation and the first few nodes fit the budget; the rest of
	// the 16-node batch hits the exhausted context at a phase boundary.
	ctx := &countdownCtx{Context: context.Background(), left: 150}
	res, err := e.AcquireNodes(ctx, "fedora28", 16)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if total := len(res.Nodes) + len(res.Failed) + len(res.Aborted); total != 16 {
		t.Fatalf("nodes=%d failed=%d aborted=%d, want 16 total", len(res.Nodes), len(res.Failed), len(res.Aborted))
	}
	if len(res.Failed) != 0 {
		t.Fatalf("cancellation must not quarantine healthy nodes: %v", res.Failed)
	}
	if len(res.Aborted) == 0 {
		t.Fatal("no node aborted despite cancellation")
	}
	if len(res.Nodes) == 0 {
		t.Fatal("nodes completed within the budget should have been returned")
	}
	// Aborted nodes are healthy: back in the free pool, not rejected,
	// state Free, and off every network.
	if len(c.Rejected()) != 0 {
		t.Fatalf("rejected pool = %v", c.Rejected())
	}
	for _, f := range res.Aborted {
		if owner, _ := c.HIL.NodeOwner(f.Node); owner != "" {
			t.Fatalf("aborted %s still owned by %q", f.Node, owner)
		}
		if st := e.NodeState(f.Node); st != StateFree {
			t.Fatalf("aborted %s state = %s", f.Node, st)
		}
		port, _ := c.HIL.NodePort(f.Node)
		if vlans, _ := c.Fabric.VLANsOf(port); len(vlans) != 0 {
			t.Fatalf("aborted %s still on VLANs %v", f.Node, vlans)
		}
	}
	// Completed members survive the cancellation.
	for _, n := range res.Nodes {
		if st := e.NodeState(n.Name); st != StateAllocated {
			t.Fatalf("member %s state = %s", n.Name, st)
		}
	}
}

func TestAcquireNodesBatchLargerThanFreePool(t *testing.T) {
	c := testCloud(t, 2, FirmwareLinuxBoot)
	e, err := NewEnclave(c, "t", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AcquireNodes(context.Background(), "fedora28", 3); err == nil {
		t.Fatal("batch larger than free pool accepted")
	}
	// The failed reservation left the pool untouched.
	if free, _ := c.HIL.FreeNodes(); len(free) != 2 {
		t.Fatalf("free pool = %v", free)
	}
}

func TestLifecycleRejectsIllegalTransitions(t *testing.T) {
	var j Journal
	lc := newLifecycle(&j)
	if err := lc.to("n", StateAttesting, ""); err == nil {
		t.Fatal("free -> attesting accepted")
	}
	if err := lc.to("n", StateAirlocked, ""); err != nil {
		t.Fatal(err)
	}
	if err := lc.to("n", StateAllocated, ""); err == nil {
		t.Fatal("airlocked -> allocated accepted")
	}
	if err := lc.to("n", StateBooting, ""); err != nil {
		t.Fatal(err)
	}
	// No-attestation profiles skip Attesting entirely.
	if err := lc.to("n", StateProvisioned, ""); err != nil {
		t.Fatal(err)
	}
	if err := lc.to("n", StateAllocated, ""); err != nil {
		t.Fatal(err)
	}
	if got := lc.state("n"); got != StateAllocated {
		t.Fatalf("state = %s", got)
	}
	// Each legal transition journalled exactly once.
	if got := len(j.Events()); got != 4 {
		t.Fatalf("journal has %d events", got)
	}
}

// TestBatchSharesSimulationPhaseVocabulary pins the contract that real
// batch timings and the Figure-4/5 simulation speak the same phase
// names, so measured and simulated breakdowns can be compared directly.
func TestBatchSharesSimulationPhaseVocabulary(t *testing.T) {
	canonical := map[string]bool{PhaseAirlock: true, PhaseBoot: true, PhaseAttest: true, PhaseProvision: true}
	r := SimulateProvisioning(DefaultProvisionConfig())
	groups := r.ByGroup()
	if len(groups) == 0 {
		t.Fatal("simulation has no phase groups")
	}
	for g := range groups {
		if !canonical[g] {
			t.Fatalf("simulation phase group %q not in canonical vocabulary", g)
		}
	}
	c := testCloud(t, 1, FirmwareLinuxBoot)
	e, err := NewEnclave(c, "t", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AcquireNodes(context.Background(), "fedora28", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Timings.Phases {
		if !canonical[pt.Phase] {
			t.Fatalf("batch phase %q not in canonical vocabulary", pt.Phase)
		}
	}
}
