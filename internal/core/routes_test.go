package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bolted/internal/obs"
	"bolted/internal/store"
)

// errProbe is the backend failure routeProbe injects.
var errProbe = errors.New("probe: injected backend failure")

// routeProbe is the interceptor TestNodeRoutes installs on a cloud. Once
// armed, the first call of one backend method whose key contains key
// runs hook (a ban, a cancel) and then fails, hangs until its context
// ends, or passes through. While hold is set, background-class
// AllocateAnyNode calls fail: the refiller cannot take a node a row has
// just sent back to the free pool.
type routeProbe struct {
	mu      sync.Mutex
	method  string
	key     string
	act     string // "fail", "hang", or "" (pass through after hook)
	hook    func()
	fired   bool
	hold    bool
	entered chan struct{}
}

func newRouteProbe() *routeProbe { return &routeProbe{entered: make(chan struct{})} }

func (p *routeProbe) arm(method, key, act string, hook func()) {
	p.mu.Lock()
	p.method, p.key, p.act, p.hook = method, key, act, hook
	p.mu.Unlock()
}

func (p *routeProbe) holdRefills() {
	p.mu.Lock()
	p.hold = true
	p.mu.Unlock()
}

func (p *routeProbe) intercept(ctx context.Context, call Call, next func(context.Context) error) error {
	p.mu.Lock()
	if class, _ := schedRequest(ctx); p.hold && call.Method == "AllocateAnyNode" && class == ClassBackground {
		p.mu.Unlock()
		return errProbe
	}
	hit := !p.fired && p.method != "" && call.Method == p.method && strings.Contains(call.Key, p.key)
	if hit {
		p.fired = true
	}
	act, hook := p.act, p.hook
	p.mu.Unlock()
	if !hit {
		return next(ctx)
	}
	if hook != nil {
		hook()
	}
	close(p.entered)
	switch act {
	case "fail":
		return errProbe
	case "hang":
		<-ctx.Done()
		return ctx.Err()
	}
	return next(ctx)
}

// routeRow is one TestNodeRoutes case: an entry point into the Figure-1
// walk, one event on the way, and where the node must end up.
type routeRow struct {
	name       string
	background string
	logic      string

	entry string // cold, warm, refill, readopt-member, readopt-warm
	at    string // backend method the probe fires on ("" = none)
	act   string // fail, hang, cancel (cancel the caller, then hang)
	ban   string // before-requote, after-requote, after-admit (warm only)

	deadline time.Duration // enclave PhaseDeadline (0 = none)

	state  NodeState
	where  string      // held (member or standby), free, rejected
	events []EventKind // the node's journal from the entry on
	phase  string      // NodeFailure.Phase ("" = none observable)
	rekeys int
}

// Journal kinds of a fresh cold walk up to and including each phase.
var (
	evsAirlock = []EventKind{EvAllocated, EvAirlocked}
	evsBoot    = append(slices.Clone(evsAirlock), EvBooting)
	evsAttest  = append(slices.Clone(evsBoot), EvAttesting)
	evsQuoted  = append(slices.Clone(evsAttest), EvAttested)
	evsJoined  = append(slices.Clone(evsQuoted), EvProvisioned, EvBooted, EvJoined)
)

func evs(base []EventKind, more ...EventKind) []EventKind {
	return append(slices.Clone(base), more...)
}

var routeRows = []routeRow{
	// --- cold: AcquireNodes with an empty warm pool ---
	{
		name:       "cold/success",
		background: "A cold node earns membership by the full chain: airlock, boot, fresh quote, provision.",
		logic:      "Acquire one node on a one-node Charlie cloud; it must be a member with the whole chain journalled.",
		entry:      "cold",
		state:      StateAllocated, where: "held", events: evsJoined,
	},
	{
		name:       "cold/airlock-fault",
		background: "A HIL failure while wiring the airlock strands no node: the provider takes it into the rejected pool, and the journal says so.",
		logic:      "Fail the airlock CreateNetwork. The node never reached airlocked, yet it must be journalled rejected straight from its reservation.",
		entry:      "cold", at: "CreateNetwork", act: "fail",
		state: StateRejected, where: "rejected", events: evs(nil, EvAllocated, EvRejected), phase: PhaseAirlock,
	},
	{
		name:       "cold/boot-fault",
		background: "A node that cannot boot its measured runtime is rejected, never freed.",
		logic:      "Fail Driver.Boot; the node must be rejected at the boot phase.",
		entry:      "cold", at: "Boot", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsBoot, EvRejected), phase: PhaseBoot,
	},
	{
		name:       "cold/attest-fault",
		background: "An attestation that cannot finish is a rejection: no payload, no membership.",
		logic:      "Fail ExpectedBootPCRs inside the quote; the node must be rejected at the attest phase with its airlock slot returned.",
		entry:      "cold", at: "ExpectedBootPCRs", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsAttest, EvRejected), phase: PhaseAttest,
	},
	{
		name:       "cold/provision-fault",
		background: "A node that passed its quote but cannot kexec the payload is still rejected, not admitted.",
		logic:      "Fail KexecAttested; the node must be rejected at the provision phase.",
		entry:      "cold", at: "KexecAttested", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsQuoted, EvProvisioned, EvRejected), phase: PhaseProvision,
	},
	{
		name:       "cold/cancel",
		background: "The caller's own cancellation is the one exit to the free pool: the node is healthy, it just never finished.",
		logic:      "Cancel the acquisition from inside Driver.Boot; the node must be aborted back to free.",
		entry:      "cold", at: "Boot", act: "cancel",
		state: StateFree, where: "free", events: evs(evsBoot, EvReleased), phase: PhaseBoot,
	},

	// --- warm: AcquireNodes takes a parked standby (plus one cold node) ---
	{
		name:       "warm/success",
		background: "A standby takes the kexec fast path: a fresh-nonce re-quote with the tenant payload, then provision.",
		logic:      "Park one Charlie standby and acquire; it must join without re-running airlock or boot.",
		entry:      "warm",
		state:      StateAllocated, where: "held", events: evs(nil, EvAttested, EvProvisioned, EvBooted, EvJoined),
	},
	{
		name:       "warm/requote-fault",
		background: "A standby whose re-quote fails is rejected like a cold node; pre-attestation earned it no membership.",
		logic:      "Fail ExpectedBootPCRs in the re-quote; the standby must be rejected at warm-requote.",
		entry:      "warm", at: "ExpectedBootPCRs", act: "fail",
		state: StateRejected, where: "rejected", events: evs(nil, EvRejected), phase: PhaseWarmRequote,
	},
	{
		name:       "warm/provision-fault",
		background: "A standby that fails after its re-quote is rejected at warm-provision.",
		logic:      "Fail KexecAttested on the standby; it must be rejected, and no key rotates because no ban is involved.",
		entry:      "warm", at: "KexecAttested", act: "fail",
		state: StateRejected, where: "rejected", events: evs(nil, EvAttested, EvProvisioned, EvRejected), phase: PhaseWarmProvision,
	},
	{
		name:       "warm/cancel",
		background: "Cancelling a warm acquisition returns the healthy standby to the provider's free pool.",
		logic:      "Cancel from inside the re-quote; the standby must be aborted to free.",
		entry:      "warm", at: "ExpectedBootPCRs", act: "cancel",
		state: StateFree, where: "free", events: evs(nil, EvReleased), phase: PhaseWarmRequote,
	},
	{
		name:       "warm/ban-before-requote",
		background: "A revocation that lands after the batch took the standby bans it; the first gate stops it before it sees the payload.",
		logic:      "Quarantine the standby while the batch reserves its cold node; it must be rejected at warm-requote with no key rotation.",
		entry:      "warm", ban: "before-requote",
		state: StateRejected, where: "rejected", events: evs(nil, EvRevoked, EvRejected), phase: PhaseWarmRequote,
	},
	{
		name:       "warm/ban-after-requote",
		background: "A ban that lands after the payload carried the enclave PSK to the node must retire that key.",
		logic:      "Quarantine the standby when its provision phase starts; it must be rejected at warm-provision and the PSK rotated once.",
		entry:      "warm", ban: "after-requote",
		state: StateRejected, where: "rejected", events: evs(nil, EvAttested, EvRevoked, EvProvisioned, EvBooted, EvRejected), phase: PhaseWarmProvision, rekeys: 1,
	},
	{
		name:       "warm/ban-after-admit",
		background: "A ban recorded while admission runs is found after it: the new member is quarantined and the PSK rotated.",
		logic:      "Ban the standby from a journal watcher as it joins; it must end quarantined, reported at warm-provision, with one rotation.",
		entry:      "warm", ban: "after-admit",
		state: StateQuarantined, where: "rejected", events: evs(nil, EvAttested, EvProvisioned, EvBooted, EvJoined, EvQuarantined), phase: PhaseWarmProvision, rekeys: 1,
	},

	// --- refill: the background refiller boots a standby ---
	{
		name:       "refill/success",
		background: "The refiller boots a standby to the attested runtime and pre-attests it against the provider whitelist.",
		logic:      "Arm a one-node pool; the node must park warm, observed once as warm-refill and never as a cold phase.",
		entry:      "refill",
		state:      StateWarm, where: "held", events: evs(evsQuoted, EvWarm),
	},
	{
		name:       "refill/airlock-fault",
		background: "A refill that cannot wire its airlock gives its node to the rejected pool, never back to free.",
		logic:      "Fail the airlock CreateNetwork during a refill; the node must be journalled rejected at warm-refill and held rejected.",
		entry:      "refill", at: "CreateNetwork", act: "fail",
		state: StateRejected, where: "rejected", events: evs(nil, EvAllocated, EvRejected), phase: PhaseWarmRefill,
	},
	{
		name:       "refill/boot-fault",
		background: "A refill failure reports warm-refill, whatever step failed.",
		logic:      "Fail Driver.Boot during a refill; the node must be rejected at warm-refill.",
		entry:      "refill", at: "Boot", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsBoot, EvRejected), phase: PhaseWarmRefill,
	},
	{
		name:       "refill/attest-fault",
		background: "Firmware that fails the provider whitelist never waits in warm.",
		logic:      "Fail ExpectedBootPCRs in the pre-attest; the node must be rejected at warm-refill.",
		entry:      "refill", at: "ExpectedBootPCRs", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsAttest, EvRejected), phase: PhaseWarmRefill,
	},
	{
		name:       "refill/cancel",
		background: "Closing the pool cancels an in-flight refill; its healthy node goes back to free.",
		logic:      "Hang Driver.Boot during a refill, then close the pool; the node must be aborted to free.",
		entry:      "refill", at: "Boot", act: "hang",
		state: StateFree, where: "free", events: evs(evsBoot, EvReleased),
	},
	{
		name:       "refill/phase-deadline",
		background: "PhaseDeadline bounds every route, refills included: a hung backend must not hold a MaxRefill slot until the pool closes.",
		logic:      "With an 80 ms PhaseDeadline, hang Driver.Boot during a refill; the node must be rejected with DeadlineExceeded at warm-refill, the deadline counter must move once, and nothing may still be refilling.",
		entry:      "refill", at: "Boot", act: "hang", deadline: 80 * time.Millisecond,
		state: StateRejected, where: "rejected", events: evs(evsBoot, EvRejected), phase: PhaseWarmRefill,
	},

	// --- readopt-member: recovery re-earns a recorded member by a cold walk ---
	{
		name:       "readopt-member/success",
		background: "A recorded member is trusted again only after a fresh quote: recovery walks it through the cold route.",
		logic:      "Crash a one-member Charlie control plane and recover it; the member must rejoin with the whole cold chain journalled.",
		entry:      "readopt-member",
		state:      StateAllocated, where: "held", events: evs(evsJoined, EvRecovered),
	},
	{
		name:       "readopt-member/airlock-fault",
		background: "A recorded member whose airlock cannot be wired is not kept.",
		logic:      "Fail the airlock CreateNetwork during recovery; the node must be journalled rejected at the airlock phase and held rejected.",
		entry:      "readopt-member", at: "CreateNetwork", act: "fail",
		state: StateRejected, where: "rejected", events: evs(nil, EvAllocated, EvRejected), phase: PhaseAirlock,
	},
	{
		name:       "readopt-member/boot-fault",
		background: "A recorded member that cannot boot is rejected at recovery.",
		logic:      "Fail Driver.Boot during recovery; the node must be rejected at the boot phase.",
		entry:      "readopt-member", at: "Boot", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsBoot, EvRejected), phase: PhaseBoot,
	},
	{
		name:       "readopt-member/attest-fault",
		background: "A recorded member whose fresh quote cannot complete is rejected, not trusted by replay.",
		logic:      "Fail ExpectedBootPCRs during recovery; the node must be rejected at the attest phase.",
		entry:      "readopt-member", at: "ExpectedBootPCRs", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsAttest, EvRejected), phase: PhaseAttest,
	},
	{
		name:       "readopt-member/provision-fault",
		background: "A recorded member that fails after its quote is rejected at recovery.",
		logic:      "Fail KexecAttested during recovery; the node must be rejected at the provision phase.",
		entry:      "readopt-member", at: "KexecAttested", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsQuoted, EvProvisioned, EvRejected), phase: PhaseProvision,
	},
	{
		name:       "readopt-member/cancel",
		background: "Cancelling recovery aborts a healthy node back to free, exactly like a cancelled acquisition.",
		logic:      "Cancel the Recover context from inside Driver.Boot; the node must be aborted to free.",
		entry:      "readopt-member", at: "Boot", act: "cancel",
		state: StateFree, where: "free", events: evs(evsBoot, EvReleased),
	},

	// --- readopt-warm: recovery re-earns a recorded standby by a refill walk ---
	{
		name:       "readopt-warm/success",
		background: "A recorded standby is re-booted and pre-attested with a fresh nonce before it is parked again.",
		logic:      "Crash a control plane with one parked Charlie standby and recover it; the standby must be parked warm again.",
		entry:      "readopt-warm",
		state:      StateWarm, where: "held", events: evs(evsQuoted, EvWarm, EvRecovered),
	},
	{
		name:       "readopt-warm/airlock-fault",
		background: "A recorded standby whose airlock cannot be wired is not kept.",
		logic:      "Fail the airlock CreateNetwork during recovery; the node must be journalled rejected at warm-refill and held rejected.",
		entry:      "readopt-warm", at: "CreateNetwork", act: "fail",
		state: StateRejected, where: "rejected", events: evs(nil, EvAllocated, EvRejected), phase: PhaseWarmRefill,
	},
	{
		name:       "readopt-warm/boot-fault",
		background: "A recorded standby that cannot boot is rejected at warm-refill.",
		logic:      "Fail Driver.Boot during recovery; the node must be rejected at warm-refill.",
		entry:      "readopt-warm", at: "Boot", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsBoot, EvRejected), phase: PhaseWarmRefill,
	},
	{
		name:       "readopt-warm/attest-fault",
		background: "A recorded standby that fails its fresh pre-attest is rejected at warm-refill.",
		logic:      "Fail ExpectedBootPCRs during recovery; the node must be rejected at warm-refill.",
		entry:      "readopt-warm", at: "ExpectedBootPCRs", act: "fail",
		state: StateRejected, where: "rejected", events: evs(evsAttest, EvRejected), phase: PhaseWarmRefill,
	},
	{
		name:       "readopt-warm/cancel",
		background: "Cancelling recovery must not reject a healthy standby: the caller's cancellation is never a verdict.",
		logic:      "Cancel the Recover context from inside Driver.Boot; the standby must be aborted to free.",
		entry:      "readopt-warm", at: "Boot", act: "cancel",
		state: StateFree, where: "free", events: evs(evsBoot, EvReleased),
	},
}

// routeRun is what one row's entry point left behind.
type routeRun struct {
	cloud *Cloud
	e     *Enclave
	node  string
	mark  int          // the node's journal length before the entry
	res   *BatchResult // cold and warm only
	pool  PoolStats    // refill only: the pool once its refill settled
}

// TestNodeRoutes drives every entry point of the Figure-1 walk through
// success, a backend failure at each phase its route runs, the caller's
// cancellation and (warm) a ban at each gate, and checks where the node
// went: its state, the provider pool that holds it, its journal, the
// phase reported, the key rotations, and that no airlock slot leaked.
func TestNodeRoutes(t *testing.T) {
	for _, r := range routeRows {
		t.Run(r.name, func(t *testing.T) {
			run := runRouteRow(t, r)
			c, e, node := run.cloud, run.e, run.node

			all := e.Journal().ByNode(node)
			var got []EventKind
			for _, ev := range all[min(run.mark, len(all)):] {
				got = append(got, ev.Kind)
			}
			if !slices.Equal(got, r.events) {
				t.Errorf("journal = %v, want %v", got, r.events)
			}
			if st := e.NodeState(node); st != r.state {
				t.Errorf("state = %s, want %s", st, r.state)
			}
			if w := routeWhere(t, c, node); w != r.where {
				t.Errorf("provider holds the node %s, want %s", w, r.where)
			}
			if p := routePhase(run.res, node, all[min(run.mark, len(all)):]); p != r.phase {
				t.Errorf("failure phase = %q, want %q", p, r.phase)
			}
			if n := e.Journal().Count(EvRekeyed); n != r.rekeys {
				t.Errorf("rekeys = %d, want %d", n, r.rekeys)
			}
			if n := c.Scheduler().Stats().InUse; n != 0 {
				t.Errorf("airlock slots in use = %d, want 0", n)
			}
			if r.entry == "refill" {
				for _, ph := range []string{PhaseAirlock, PhaseBoot, PhaseAttest, PhaseProvision} {
					if n := c.metrics.phase[ph].Count(); n != 0 {
						t.Errorf("a refill observed the cold %s phase %d times", ph, n)
					}
				}
				if n := c.metrics.phase[PhaseWarmRefill].Count(); r.state == StateWarm && n != 1 {
					t.Errorf("warm-refill observations = %d, want 1", n)
				}
			}
			if r.deadline > 0 {
				if n := c.metrics.phaseDeadline.Value(); n != 1 {
					t.Errorf("bolted_phase_deadline_total = %v, want 1", n)
				}
				var cause string
				for _, ev := range all {
					if ev.Kind == EvRejected {
						cause = ev.Detail
					}
				}
				if !strings.Contains(cause, context.DeadlineExceeded.Error()) {
					t.Errorf("rejection cause = %q, want DeadlineExceeded", cause)
				}
				if run.pool.Refilling != 0 || run.pool.Rejected != 1 {
					t.Errorf("pool after the deadline = %+v, want 1 rejected and nothing refilling", run.pool)
				}
			}
		})
	}
}

// runRouteRow builds the row's cloud, drives its entry point to the end
// and returns what is left to inspect.
func runRouteRow(t *testing.T, r routeRow) routeRun {
	t.Helper()
	probe := newRouteProbe()
	newCloud := func(nodes int) *Cloud {
		c := testCloud(t, nodes, FirmwareLinuxBoot)
		c.SetMetrics(obs.NewRegistry())
		c.Intercept(probe.intercept)
		return c
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	arm := func(e *Enclave, node string) {
		switch {
		case r.act == "cancel":
			probe.arm(r.at, node, "hang", cancel)
		case r.at != "":
			probe.arm(r.at, node, r.act, nil)
		case r.ban == "before-requote":
			// The batch reserves its cold node after taking the standby.
			probe.arm("AllocateAnyNode", "", "", func() { _ = e.QuarantineNode(node, "revoked before re-quote") })
		case r.ban == "after-requote":
			probe.arm("DetachNode", node, "", func() { _ = e.QuarantineNode(node, "revoked after re-quote") })
		case r.ban == "after-admit":
			var once sync.Once
			unwatch := e.Journal().Watch(func(ev Event) {
				if ev.Kind == EvJoined && ev.Node == node {
					once.Do(func() { e.banNode(node, "revoked during admission") })
				}
			})
			t.Cleanup(unwatch)
		}
	}

	switch r.entry {
	case "cold":
		c := newCloud(1)
		e, err := NewEnclave(c, "t", ProfileCharlie)
		if err != nil {
			t.Fatal(err)
		}
		arm(e, "node00")
		res, _ := e.AcquireNodes(ctx, "fedora28", 1)
		return routeRun{cloud: c, e: e, node: "node00", res: res}

	case "warm":
		c := newCloud(2)
		e := poolEnclave(t, c, ProfileCharlie, 1)
		t.Cleanup(e.ClosePool)
		st, _ := e.PoolStats()
		node := st.WarmNodes[0]
		probe.holdRefills()
		mark := len(e.Journal().ByNode(node))
		arm(e, node)
		res, _ := e.AcquireNodes(ctx, "fedora28", 2)
		return routeRun{cloud: c, e: e, node: node, mark: mark, res: res}

	case "refill":
		c := newCloud(1)
		e, err := NewEnclave(c, "t", ProfileCharlie)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.ClosePool)
		e.IMAWhitelist().AllowContent("/usr/bin/app", []byte("app"))
		if r.deadline > 0 {
			if err := e.SetResilience(ResiliencePolicy{PhaseDeadline: r.deadline}); err != nil {
				t.Fatal(err)
			}
		}
		arm(e, "node00")
		pol := DefaultPoolPolicy()
		pol.Target = 1
		pol.RetryBackoff = 5 * time.Millisecond
		if err := e.ConfigurePool(pol); err != nil {
			t.Fatal(err)
		}
		run := routeRun{cloud: c, e: e, node: "node00"}
		if r.act == "hang" && r.deadline == 0 {
			select {
			case <-probe.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("the refill never reached the hung call")
			}
			e.ClosePool()
		} else {
			run.pool = waitRefillSettled(t, e)
		}
		return run

	case "readopt-member", "readopt-warm":
		mgr1, dir := durableManager(t, 1)
		if _, err := mgr1.CreateEnclave("t", ProfileCharlie); err != nil {
			t.Fatal(err)
		}
		e1, _ := mgr1.Enclave("t")
		t.Cleanup(e1.ClosePool)
		var node string
		if r.entry == "readopt-member" {
			res, err := e1.AcquireNodes(context.Background(), "fedora28", 1)
			if err != nil || len(res.Nodes) != 1 {
				t.Fatalf("setup acquire: %v %+v", err, res)
			}
			node = res.Nodes[0].Name
		} else {
			pol := DefaultPoolPolicy()
			pol.Target = 1
			pol.RetryBackoff = 5 * time.Millisecond
			if _, _, err := mgr1.ConfigurePool("t", pol); err != nil {
				t.Fatal(err)
			}
			waitWarm(t, e1, 1)
			st, _ := e1.PoolStats()
			node = st.WarmNodes[0]
		}
		// Make every staged event durable, then crash.
		if _, err := e1.Journal().LinesSince(0); err != nil {
			t.Fatal(err)
		}
		mark := len(e1.Journal().ByNode(node))
		st, err := store.Open(copyStoreDir(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		c := newCloud(1)
		probe.holdRefills()
		mgr2 := NewManagerWithStore(c, st)
		// The enclave exists only once Recover rebuilds it; arm on names.
		arm(nil, node)
		if _, err := mgr2.Recover(ctx); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		e2, err := mgr2.Enclave("t")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e2.ClosePool)
		return routeRun{cloud: c, e: e2, node: node, mark: mark}
	}
	t.Fatalf("unknown entry %q", r.entry)
	return routeRun{}
}

// waitRefillSettled waits until the pool's first refill has parked or
// rejected its node with nothing refilling, and returns that snapshot
// (the last one seen if it never settles). Later retries, which find no
// free node, may refill again after it.
func waitRefillSettled(t *testing.T, e *Enclave) PoolStats {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, _ := e.PoolStats()
		if st.Warm+int(st.Rejected) >= 1 && st.Refilling == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Errorf("refill never settled: %+v", st)
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// routeWhere names the provider pool holding node.
func routeWhere(t *testing.T, c *Cloud, node string) string {
	t.Helper()
	if _, ok := c.Rejected()[node]; ok {
		return "rejected"
	}
	free, err := c.HIL.FreeNodes()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(free, node) {
		return "free"
	}
	return "held"
}

// routePhase is the phase the node's exit reported: the batch result's
// when there is one, else the prefix of its rejection detail.
func routePhase(res *BatchResult, node string, evs []Event) string {
	if res != nil {
		for _, f := range append(res.Failed, res.Aborted...) {
			if f.Node == node {
				return f.Phase
			}
		}
		return ""
	}
	for _, ev := range evs {
		if ev.Kind == EvRejected {
			phase, _, _ := strings.Cut(ev.Detail, ": ")
			return phase
		}
	}
	return ""
}

// TestAirlockFaultDistrustSurvives: a node rejected because its airlock
// could not be wired is rejected in the journal as well as at the
// provider, so the operator can reclaim it and a restart restores it
// rejected instead of releasing it to the free pool.
func TestAirlockFaultDistrustSurvives(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := testCloud(t, 1, FirmwareLinuxBoot)
	probe := newRouteProbe()
	c.Intercept(probe.intercept)
	mgr := NewManagerWithStore(c, st)
	if _, err := mgr.CreateEnclave("t", ProfileCharlie); err != nil {
		t.Fatal(err)
	}
	e, _ := mgr.Enclave("t")
	probe.arm("CreateNetwork", "node00", "fail", nil)
	ctx := context.Background()
	res, _ := e.AcquireNodes(ctx, "fedora28", 1)
	if res == nil || len(res.Failed) != 1 || res.Failed[0].Phase != PhaseAirlock {
		t.Fatalf("acquire = %+v, want node00 failed at %s", res, PhaseAirlock)
	}
	// Make every staged event durable before the crash copy.
	if _, err := e.Journal().LinesSince(0); err != nil {
		t.Fatal(err)
	}

	mgr2, rep := recoverFrom(t, dir, 1)
	if !slices.Equal(rep.Quarantined, []string{"t/node00"}) || len(rep.Released) != 0 {
		t.Fatalf("recover report quarantined %v released %v, want [t/node00] and none", rep.Quarantined, rep.Released)
	}
	e2, err := mgr2.Enclave("t")
	if err != nil {
		t.Fatal(err)
	}
	if s := e2.NodeState("node00"); s != StateRejected {
		t.Fatalf("recovered state = %s, want %s", s, StateRejected)
	}
	if w := routeWhere(t, mgr2.cloud, "node00"); w != "rejected" {
		t.Fatalf("recovered provider holds node00 %s, want rejected", w)
	}

	for _, en := range []*Enclave{e, e2} {
		if err := en.ReclaimRejected(ctx, "node00"); err != nil {
			t.Fatalf("reclaim: %v", err)
		}
		if s := en.NodeState("node00"); s != StateFree {
			t.Fatalf("state after reclaim = %s, want %s", s, StateFree)
		}
	}
}
