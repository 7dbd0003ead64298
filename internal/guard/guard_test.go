package guard

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/fault"
	"bolted/internal/ima"
	"bolted/internal/tpm"
)

const testImage = "hardened"

// newRig builds an in-process cloud with a bootable image and an empty
// control plane.
func newRig(t *testing.T, nodes int) (*core.Cloud, *core.Manager) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.BMI.CreateOSImage(testImage, bmi.OSImageSpec{
		KernelID: "hardened-4.17.9",
		Kernel:   []byte("vmlinuz"),
		Initrd:   []byte("initrd"),
		Cmdline:  "root=iscsi ima_policy=tcb",
	}); err != nil {
		t.Fatal(err)
	}
	return cloud, core.NewManager(cloud)
}

// newCharlie creates a continuous-attestation enclave and acquires n
// members.
func newCharlie(t *testing.T, mgr *core.Manager, name string, n int) (*core.Enclave, *core.BatchResult) {
	t.Helper()
	e, err := mgr.CreateEnclave(name, core.ProfileCharlie)
	if err != nil {
		t.Fatal(err)
	}
	e.IMAWhitelist().AllowContent("/usr/bin/app", []byte("app-v1"))
	op, err := mgr.StartAcquire(name, testImage, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := op.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != n {
		t.Fatalf("allocated %d of %d nodes: %v", len(res.Nodes), n, res.Failed)
	}
	return e, res
}

// waitIncidents blocks until mgr tracks at least n terminal incidents
// for the enclave, returning them (oldest first).
func waitIncidents(t *testing.T, mgr *core.Manager, enclave string, n int) []*core.Incident {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		incs := mgr.ListIncidents(enclave)
		terminal := 0
		for _, inc := range incs {
			if inc.State().Terminal() {
				terminal++
			}
		}
		if terminal >= n {
			return incs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d terminal incidents, have %d of %d total", n, terminal, len(incs))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func hasStep(st core.IncidentStatus, name string) bool {
	for _, s := range st.Steps {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestGuardDetectQuarantineRekeyHeal is the full §7.4 kill chain as an
// automated subsystem: the guard's own IMA round detects an
// unauthorized binary, quarantines the node, rotates the enclave PSK,
// and acquires an attested replacement.
func TestGuardDetectQuarantineRekeyHeal(t *testing.T) {
	cloud, mgr := newRig(t, 4)
	e, res := newCharlie(t, mgr, "c", 3)
	g, err := Enable(mgr, "c", Policy{
		Interval:       10 * time.Millisecond,
		CoalesceWindow: 5 * time.Millisecond,
		SelfHeal:       true,
		Image:          testImage,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.DetachGuard("c")

	victim := res.Nodes[0]
	s1, s2 := res.Nodes[1].Name, res.Nodes[2].Name
	victim.IMA.Measure("/tmp/.hidden/exfil.sh", []byte("#!/bin/sh\ncurl attacker"), ima.HookExec, 0)

	incs := waitIncidents(t, mgr, "c", 1)
	st := incs[0].Status()
	if st.State != core.IncidentResolved {
		t.Fatalf("incident state = %s, want %s (%+v)", st.State, core.IncidentResolved, st.Steps)
	}
	if st.Node != victim.Name {
		t.Fatalf("incident names node %s, want %s", st.Node, victim.Name)
	}
	for _, step := range []string{"quarantine", "rekey", "replace"} {
		if !hasStep(st, step) {
			t.Fatalf("incident missing step %q: %+v", step, st.Steps)
		}
	}

	if got := e.NodeState(victim.Name); got != core.StateQuarantined {
		t.Fatalf("victim state = %s, want %s", got, core.StateQuarantined)
	}
	if _, banned := cloud.Rejected()[victim.Name]; !banned {
		t.Fatal("victim not parked in the provider rejected pool")
	}
	j := e.Journal()
	if n := j.Count(core.EvRevoked); n < 1 {
		t.Fatalf("journal has %d revoked events, want >= 1", n)
	}
	if n := j.Count(core.EvQuarantined); n != 1 {
		t.Fatalf("journal has %d quarantined events, want 1", n)
	}
	if n := j.Count(core.EvRekeyed); n != 1 {
		t.Fatalf("journal has %d rekeyed events, want 1", n)
	}
	if n := j.Count(core.EvHealed); n != 1 {
		t.Fatalf("journal has %d healed events, want 1", n)
	}
	if members := len(e.Nodes()); members != 3 {
		t.Fatalf("enclave has %d members after self-heal, want 3", members)
	}
	// Survivors talk over the rotated PSK; the quarantined node's SAs
	// are gone.
	if _, err := e.Send(s1, s2, []byte("still here")); err != nil {
		t.Fatalf("survivor traffic after rekey: %v", err)
	}
	if _, err := e.Send(victim.Name, s1, []byte("exfil")); err == nil {
		t.Fatal("quarantined node can still reach the enclave")
	}
	if got := g.Status(); got.Revocations != 1 {
		t.Fatalf("guard handled %d revocations, want 1", got.Revocations)
	}
}

// gateDriver blocks ExpectedBootPCRs while armed, freezing any
// provisioning pipeline in the Attesting state.
type gateDriver struct {
	core.NodeDriver
	mu    sync.Mutex
	armed bool
	gate  chan struct{}
}

func (d *gateDriver) arm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed = true
	d.gate = make(chan struct{})
}

func (d *gateDriver) open() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.armed {
		d.armed = false
		close(d.gate)
	}
}

func (d *gateDriver) ExpectedBootPCRs(ctx context.Context, node string) (map[int][]tpm.Digest, error) {
	d.mu.Lock()
	armed, gate := d.armed, d.gate
	d.mu.Unlock()
	if armed {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return d.NodeDriver.ExpectedBootPCRs(ctx, node)
}

// TestGuardSkipsNodeStillAttesting injects a revocation against a node
// frozen mid-batch in the Attesting state: the guard must record the
// incident but leave quarantine to the provisioning pipeline — no
// EvQuarantined, no PSK rotation.
func TestGuardSkipsNodeStillAttesting(t *testing.T) {
	cloud, mgr := newRig(t, 3)
	e, _ := newCharlie(t, mgr, "c", 1)
	if _, err := Enable(mgr, "c", Policy{Interval: 10 * time.Millisecond, CoalesceWindow: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer mgr.DetachGuard("c")

	gd := &gateDriver{NodeDriver: cloud.Driver}
	cloud.Driver = gd
	gd.arm()
	defer gd.open()

	op, err := mgr.StartAcquire("c", testImage, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the new node to freeze in Attesting.
	var frozen string
	deadline := time.Now().Add(10 * time.Second)
	for frozen == "" {
		for node, st := range e.NodeStates() {
			if st == core.StateAttesting {
				frozen = node
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no node reached %s: %v", core.StateAttesting, e.NodeStates())
		}
		time.Sleep(2 * time.Millisecond)
	}

	e.Verifier().Revoke(frozen, "IMA violation injected mid-provisioning")
	incs := waitIncidents(t, mgr, "c", 1)
	st := incs[0].Status()
	if st.Node != frozen {
		t.Fatalf("incident names %s, want %s", st.Node, frozen)
	}
	if !hasStep(st, "skip-quarantine") {
		t.Fatalf("incident should record skip-quarantine: %+v", st.Steps)
	}
	if got := e.NodeState(frozen); got != core.StateAttesting {
		t.Fatalf("frozen node state = %s, want %s (guard must not touch it)", got, core.StateAttesting)
	}
	j := e.Journal()
	if n := j.Count(core.EvQuarantined); n != 0 {
		t.Fatalf("journal has %d quarantined events, want 0", n)
	}
	if n := j.Count(core.EvRekeyed); n != 0 {
		t.Fatalf("journal has %d rekeyed events, want 0", n)
	}

	gd.open()
	if _, err := op.Wait(context.Background()); err != nil {
		t.Fatalf("gated batch never finished: %v", err)
	}
}

// TestConcurrentRevocationsRekeyOnce fires two revocations in one
// enclave at the same instant: both nodes are quarantined, but the PSK
// rotates exactly once.
func TestConcurrentRevocationsRekeyOnce(t *testing.T) {
	_, mgr := newRig(t, 5)
	e, res := newCharlie(t, mgr, "c", 4)
	if _, err := Enable(mgr, "c", Policy{
		Interval:       time.Hour, // no background rounds; revocations injected directly
		CoalesceWindow: 200 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer mgr.DetachGuard("c")

	bad1, bad2 := res.Nodes[0].Name, res.Nodes[1].Name
	s1, s2 := res.Nodes[2].Name, res.Nodes[3].Name
	var wg sync.WaitGroup
	for _, node := range []string{bad1, bad2} {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			e.Verifier().Revoke(node, "unauthorized binary executed")
		}(node)
	}
	wg.Wait()

	incs := waitIncidents(t, mgr, "c", 2)
	for _, inc := range incs {
		if st := inc.Status(); st.State != core.IncidentResolved {
			t.Fatalf("incident %s state = %s, want %s", st.ID, st.State, core.IncidentResolved)
		}
	}
	j := e.Journal()
	if n := j.Count(core.EvQuarantined); n != 2 {
		t.Fatalf("journal has %d quarantined events, want 2", n)
	}
	if n := j.Count(core.EvRekeyed); n != 1 {
		t.Fatalf("journal has %d rekeyed events, want exactly 1 for the concurrent burst", n)
	}
	for _, node := range []string{bad1, bad2} {
		if got := e.NodeState(node); got != core.StateQuarantined {
			t.Fatalf("node %s state = %s, want %s", node, got, core.StateQuarantined)
		}
	}
	if _, err := e.Send(s1, s2, []byte("regrouped")); err != nil {
		t.Fatalf("survivor traffic after burst rekey: %v", err)
	}
}

// TestSelfHealFailureDegrades exhausts the free pool so the replacement
// acquisition cannot succeed: the node is still quarantined and the
// enclave rekeyed, but the incident parks in the degraded state and the
// journal says so.
func TestSelfHealFailureDegrades(t *testing.T) {
	_, mgr := newRig(t, 2)
	e, res := newCharlie(t, mgr, "c", 2) // pool now empty
	if _, err := Enable(mgr, "c", Policy{
		Interval:       10 * time.Millisecond,
		CoalesceWindow: 5 * time.Millisecond,
		SelfHeal:       true,
		Image:          testImage,
	}); err != nil {
		t.Fatal(err)
	}
	defer mgr.DetachGuard("c")

	victim := res.Nodes[0]
	victim.IMA.Measure("/tmp/rootkit", []byte("rootkit"), ima.HookExec, 0)

	incs := waitIncidents(t, mgr, "c", 1)
	st := incs[0].Status()
	if st.State != core.IncidentDegraded {
		t.Fatalf("incident state = %s, want %s (%+v)", st.State, core.IncidentDegraded, st.Steps)
	}
	if !hasStep(st, "quarantine") || !hasStep(st, "rekey") {
		t.Fatalf("degraded incident must still quarantine and rekey: %+v", st.Steps)
	}
	j := e.Journal()
	if n := j.Count(core.EvDegraded); n != 1 {
		t.Fatalf("journal has %d degraded events, want 1", n)
	}
	if got := e.NodeState(victim.Name); got != core.StateQuarantined {
		t.Fatalf("victim state = %s, want %s", got, core.StateQuarantined)
	}
	if members := len(e.Nodes()); members != 1 {
		t.Fatalf("enclave has %d members, want 1 (degraded, not healed)", members)
	}
	// Degraded is reported on the enclave resource via open-incident
	// IDs only while non-terminal; the terminal record stays listed.
	if got := len(mgr.ListIncidents("c")); got != 1 {
		t.Fatalf("manager lists %d incidents, want 1", got)
	}
}

// TestUnguardedRevocationRecordedUnhandled: with no guard attached the
// manager must still surface the revocation — as an unhandled incident
// and on the replayable revocation feed.
func TestUnguardedRevocationRecordedUnhandled(t *testing.T) {
	_, mgr := newRig(t, 2)
	e, res := newCharlie(t, mgr, "c", 1)
	e.Verifier().Revoke(res.Nodes[0].Name, "tenant-side detection")

	incs := waitIncidents(t, mgr, "c", 1)
	if st := incs[0].Status(); st.State != core.IncidentUnhandled {
		t.Fatalf("incident state = %s, want %s", st.State, core.IncidentUnhandled)
	}
	revs, _, _, err := mgr.RevocationsSince("c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(revs) != 1 || revs[0].UUID != res.Nodes[0].Name {
		t.Fatalf("revocation feed = %+v, want one event for %s", revs, res.Nodes[0].Name)
	}
	// The node keeps its Allocated state: nobody tore it down.
	if got := e.NodeState(res.Nodes[0].Name); got != core.StateAllocated {
		t.Fatalf("node state = %s, want %s", got, core.StateAllocated)
	}
}

// TestGuardRequiresContinuousAttestation: profiles without an IMA
// whitelist have nothing for the guard to check.
func TestGuardRequiresContinuousAttestation(t *testing.T) {
	_, mgr := newRig(t, 2)
	if _, err := mgr.CreateEnclave("bob", core.ProfileBob); err != nil {
		t.Fatal(err)
	}
	if _, err := Enable(mgr, "bob", Policy{}); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("Enable on bob profile = %v, want ErrConflict", err)
	}
	if _, err := Enable(mgr, "nope", Policy{}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Enable on unknown enclave = %v, want ErrNotFound", err)
	}
}

// TestGuardPolicyValidation: self-heal without an image is rejected at
// enable and at policy update.
func TestGuardPolicyValidation(t *testing.T) {
	_, mgr := newRig(t, 2)
	if _, err := mgr.CreateEnclave("c", core.ProfileCharlie); err != nil {
		t.Fatal(err)
	}
	if _, err := Enable(mgr, "c", Policy{SelfHeal: true}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("Enable with self-heal and no image = %v, want ErrInvalid", err)
	}
	g, err := Enable(mgr, "c", Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.DetachGuard("c")
	if err := g.SetPolicy(Policy{SelfHeal: true}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("SetPolicy with self-heal and no image = %v, want ErrInvalid", err)
	}
	if _, err := Enable(mgr, "c", Policy{}); !errors.Is(err, core.ErrExists) {
		t.Fatalf("second Enable = %v, want ErrExists", err)
	}
}

// TestGuardUnreachableMemberRevoked: a member whose agent stops
// answering is revoked after FailureTolerance consecutive failed
// rounds and then quarantined like any other compromise.
func TestGuardUnreachableMemberRevoked(t *testing.T) {
	cloud, mgr := newRig(t, 3)
	e, res := newCharlie(t, mgr, "c", 2)
	if _, err := Enable(mgr, "c", Policy{
		Interval:         10 * time.Millisecond,
		FailureTolerance: 3,
		CoalesceWindow:   5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer mgr.DetachGuard("c")

	victim := res.Nodes[0].Name
	// Sever the node from the attestation network: every subsequent
	// quote fails its path check, exactly what a compromise that kills
	// the agent (or unplugs the NIC) looks like from the verifier.
	if err := cloud.HIL.DetachNode(context.Background(), "c", victim, core.NetAttestation); err != nil {
		t.Fatal(err)
	}
	incs := waitIncidents(t, mgr, "c", 1)
	st := incs[0].Status()
	if st.Node != victim {
		t.Fatalf("incident names %s, want %s", st.Node, victim)
	}
	if got := e.NodeState(victim); got != core.StateQuarantined {
		t.Fatalf("unreachable member state = %s, want %s", got, core.StateQuarantined)
	}
	if want := "3 consecutive failed attestation rounds"; !strings.Contains(st.Reason, want) {
		t.Fatalf("incident reason %q does not mention %q", st.Reason, want)
	}
}

// TestGuardQuarantinesWarmStandby: a revoked node that is parked in
// the enclave's warm pool is pulled out and quarantined — never handed
// to a tenant, never back into the pool — without the member-grade
// response (no rekey, no self-heal; the pool's refiller replaces it).
func TestGuardQuarantinesWarmStandby(t *testing.T) {
	_, mgr := newRig(t, 4)
	e, _ := newCharlie(t, mgr, "c", 1)
	pol := core.DefaultPoolPolicy()
	pol.Target = 1
	pol.RetryBackoff = 5 * time.Millisecond
	if _, _, err := mgr.ConfigurePool("c", pol); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for " + what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("warm standby", func() bool {
		st, ok := e.PoolStats()
		return ok && st.Warm == 1
	})
	if _, err := Enable(mgr, "c", Policy{
		Interval:       10 * time.Millisecond,
		CoalesceWindow: 5 * time.Millisecond,
		SelfHeal:       true,
		Image:          testImage,
	}); err != nil {
		t.Fatal(err)
	}

	st, _ := e.PoolStats()
	victim := st.WarmNodes[0]
	e.Verifier().Revoke(victim, "standby firmware implant")

	incs := waitIncidents(t, mgr, "c", 1)
	inc := incs[len(incs)-1].Status()
	if inc.Node != victim || inc.State != core.IncidentResolved {
		t.Fatalf("incident = %+v", inc)
	}
	if !hasStep(inc, "quarantine") {
		t.Fatalf("incident has no quarantine step: %+v", inc.Steps)
	}
	if got := e.NodeState(victim); got != core.StateQuarantined {
		t.Fatalf("standby state = %s, want %s", got, core.StateQuarantined)
	}
	j := e.Journal()
	if n := j.Count(core.EvRekeyed); n != 0 {
		t.Fatalf("standby quarantine rotated the PSK %d times; standbys hold no key material", n)
	}
	// The refiller replaces the standby from the remaining free nodes;
	// the quarantined node never re-enters.
	waitFor("replacement standby", func() bool {
		st, _ := e.PoolStats()
		return st.Warm == 1 && st.WarmNodes[0] != victim
	})
}

// TestRegistrarOutagePausesGuard is the degraded-mode arc from the
// guard's side: a registrar outage trips its circuit breaker, and the
// guard must pause its IMA rounds — zero revocations, a healthy enclave
// must never be torn apart because a provider service is down — then
// resume once the breaker lets probes through again.
func TestRegistrarOutagePausesGuard(t *testing.T) {
	cloud, mgr := newRig(t, 3)
	inj := fault.New(11)
	defer inj.Close()
	cloud.Intercept(inj.Intercept)
	if err := cloud.EnableResilience(core.ResiliencePolicy{
		MaxAttempts:      1, // one breaker count per call
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	e, _ := newCharlie(t, mgr, "c", 2)
	g, err := Enable(mgr, "c", Policy{
		Interval:         5 * time.Millisecond,
		FailureTolerance: 1, // any counted quote failure would revoke at once
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("a healthy round", func() bool { return g.Status().Rounds >= 1 })

	// Registrar outage: every call fails at the transport. Two direct
	// calls through the resilient stack trip the breaker.
	inj.Set("registrar", fault.Profile{ErrorRate: 1})
	for i := 0; i < 2; i++ {
		if _, err := cloud.Registrar.AIK("probe-uuid"); err == nil {
			t.Fatalf("outage call %d succeeded", i)
		}
	}
	if !mgr.Health().BackendOpen(core.BackendRegistrar) {
		t.Fatal("registrar breaker not open after outage")
	}
	waitFor("the guard to pause", func() bool { return g.Status().Paused })
	if !mgr.Health().Degraded {
		t.Fatal("cloud not degraded during registrar outage")
	}

	// Heal and hold the outage window open past the cooldown: the guard
	// must resume (half-open admits probes) and the next registrar call
	// closes the breaker. "Unknown uuid" from the real registrar is an
	// application-level response — proof of liveness — so the probe
	// still closes the breaker.
	inj.Set("registrar", fault.Profile{})
	waitFor("the guard to resume", func() bool { return !g.Status().Paused && !mgr.Health().BackendOpen(core.BackendRegistrar) })
	_, _ = cloud.Registrar.AIK("probe-uuid")
	if mgr.Health().Degraded {
		t.Fatal("cloud still degraded after registrar recovered")
	}

	// The outage caused no revocations and both members stay allocated.
	if got := g.Status().Revocations; got != 0 {
		t.Fatalf("guard issued %d revocations during a provider outage", got)
	}
	for node, st := range e.NodeStates() {
		if st != core.StateAllocated && st != core.StateFree {
			t.Fatalf("node %s state = %s after outage", node, st)
		}
	}
	var paused, resumed int
	for _, ev := range e.Journal().Events() {
		if ev.Kind == core.EvGuardPaused {
			if strings.Contains(ev.Detail, "resumed") {
				resumed++
			} else {
				paused++
			}
		}
	}
	if paused != 1 || resumed != 1 {
		t.Fatalf("journal pause/resume transitions = %d/%d, want exactly one each", paused, resumed)
	}
}
