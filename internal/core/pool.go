package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the warm-pool subsystem: the paper's headline elasticity
// result cut attested provisioning from ~10 min to ~3 min, but every
// acquisition still pays the cold PXE → LinuxBoot → attest chain. The
// warm pool amortizes that chain across acquisitions: a background
// refiller keeps a configurable number of nodes pre-booted into the
// attested Heads runtime and parked in StateWarm (Free → Airlocked →
// Booting → Attesting → Warm), so AcquireNodes can skip straight to the
// kexec fast path — re-quote, rotate onto the enclave network, kexec
// the tenant payload — and fall back to the cold path only when the
// pool is dry. Pre-attestation during refill quotes the parked runtime
// against the provider whitelist, so a node with compromised firmware
// never waits in the pool at all.

// DefaultAirlocks is the number of parallel attestation airlocks an
// enclave pipelines quotes through. The paper's prototype had exactly
// one (§7.3, its acknowledged concurrency limitation); both the real
// provisioner and the timing model take their airlock count from
// PoolPolicy so the two always agree. It matches the batch worker
// pool, so the default bound never throttles a batch below its own
// parallelism.
const DefaultAirlocks = DefaultBatchParallelism

// Warm-pool refill defaults.
const (
	// DefaultMaxRefill bounds concurrent warm boots, so refilling a
	// large pool cannot monopolize the shared HIL/BMI/registrar
	// services against foreground acquisitions.
	DefaultMaxRefill = 2
	// DefaultRefillBackoff is how long the refiller waits after an
	// attempt found no free node (or a warm boot failed) before
	// rescanning.
	DefaultRefillBackoff = 50 * time.Millisecond
)

// PoolPolicy configures an enclave's warm pool. The zero value of any
// field takes its default; Target 0 keeps the pool drained. The struct
// carries its wire tags, so the /v1 surface serves it as-is.
type PoolPolicy struct {
	// Target is the warm occupancy the refiller maintains.
	Target int `json:"target"`
	// Airlocks is how many attestations (cold quotes, warm re-quotes
	// and refill pre-attests) may be in flight at once.
	Airlocks int `json:"airlocks,omitempty"`
	// MaxRefill rate-limits concurrent warm boots.
	MaxRefill int `json:"max_refill,omitempty"`
	// RetryBackoff is the refiller's pause after a failed or empty
	// refill attempt.
	RetryBackoff time.Duration `json:"retry_backoff_ns,omitempty"`
}

// DefaultPoolPolicy returns the default pool configuration: multi-
// airlock pipelining enabled, no warm nodes until Target is raised.
func DefaultPoolPolicy() PoolPolicy {
	return PoolPolicy{
		Airlocks:     DefaultAirlocks,
		MaxRefill:    DefaultMaxRefill,
		RetryBackoff: DefaultRefillBackoff,
	}
}

// withDefaults fills unset fields.
func (p PoolPolicy) withDefaults() PoolPolicy {
	if p.Airlocks <= 0 {
		p.Airlocks = DefaultAirlocks
	}
	if p.MaxRefill <= 0 {
		p.MaxRefill = DefaultMaxRefill
	}
	if p.RetryBackoff <= 0 {
		p.RetryBackoff = DefaultRefillBackoff
	}
	return p
}

// Validate reports policy inconsistencies.
func (p PoolPolicy) Validate() error {
	switch {
	case p.Target < 0:
		return fmt.Errorf("%w: pool target must be >= 0", ErrInvalid)
	case p.Airlocks < 0:
		return fmt.Errorf("%w: airlock count must be >= 0", ErrInvalid)
	case p.MaxRefill < 0:
		return fmt.Errorf("%w: refill concurrency must be >= 0", ErrInvalid)
	case p.RetryBackoff < 0:
		return fmt.Errorf("%w: refill backoff must be >= 0", ErrInvalid)
	default:
		return nil
	}
}

// PoolStats is a point-in-time view of an enclave's warm pool. It
// carries its wire tags: the /v1/pools surface serves it as-is.
type PoolStats struct {
	Enclave   string     `json:"enclave"`
	Policy    PoolPolicy `json:"policy"`
	Warm      int        `json:"warm"`      // nodes parked ready
	Refilling int        `json:"refilling"` // warm boots in flight
	Hits      uint64     `json:"hits"`
	Misses    uint64     `json:"misses"`
	Drained   uint64     `json:"drained"`
	Rejected  uint64     `json:"rejected"`
	WarmNodes []string   `json:"warm_nodes,omitempty"`
}

// WarmPool keeps an enclave's standby nodes and runs the background
// refiller. All methods are safe for concurrent use.
type WarmPool struct {
	e      *Enclave
	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}
	wg     sync.WaitGroup

	mu        sync.Mutex
	policy    PoolPolicy
	ready     []*nodeWork // parked standbys: refill walks paused at StateWarm
	refilling int
	closed    bool
	// recovering holds the refiller idle (no refills, no surplus
	// shedding) while crash recovery re-adopts recorded standbys —
	// otherwise the refiller would race re-adoption for the very nodes
	// the WAL says belong in this pool. resumePool releases it.
	recovering bool
	// reserving counts acquisitions between take and reserved: the
	// refiller holds off while they reserve their cold remainder, or it
	// would claim the free nodes they are about to reserve.
	reserving int
	// failStreak counts consecutive failed refill attempts; the run
	// loop's retry timer backs off exponentially (with jitter) on it,
	// so a dead HIL never sees a synchronized fixed-rate retry storm.
	failStreak int

	hits, misses, drained, rejected uint64

	// metrics is the pool's pre-resolved instrument set (zero-value
	// no-ops when the cloud is uninstrumented).
	metrics poolMetrics
}

// syncWarmLocked refreshes the warm-occupancy gauge. Callers hold p.mu.
func (p *WarmPool) syncWarmLocked() { p.metrics.warm.Set(float64(len(p.ready))) }

// ConfigurePool creates the enclave's warm pool (starting its
// background refiller) or updates the policy of an existing one.
// Raising Target refills toward it; lowering it releases surplus warm
// nodes back to the free pool.
func (e *Enclave) ConfigurePool(p PoolPolicy) error { return e.configurePool(p, false) }

// configurePool is ConfigurePool with a recovery switch: a recovering
// pool starts with its refiller held so crash recovery can park the
// recorded standbys first (resumePool releases it).
func (e *Enclave) configurePool(p PoolPolicy, recovering bool) error {
	if err := p.Validate(); err != nil {
		return err
	}
	p = p.withDefaults()
	e.setAirlocks(p.Airlocks)
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.pool != nil {
		e.pool.setPolicy(p)
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool := &WarmPool{
		e:          e,
		ctx:        ctx,
		cancel:     cancel,
		wake:       make(chan struct{}, 1),
		policy:     p,
		recovering: recovering,
		metrics:    e.cloud.metrics.pool(e.Project),
	}
	e.pool = pool
	pool.wg.Add(1)
	go pool.run()
	return nil
}

// resumePool releases a pool configured in recovery mode; the refiller
// then refills (or sheds) toward the restored target as usual.
func (e *Enclave) resumePool() {
	p := e.warmPool()
	if p == nil {
		return
	}
	p.mu.Lock()
	p.recovering = false
	p.mu.Unlock()
	p.poke()
}

// PoolStats returns the warm pool's current state; ok is false when no
// pool is configured.
func (e *Enclave) PoolStats() (PoolStats, bool) {
	if p := e.warmPool(); p != nil {
		return p.stats(), true
	}
	return PoolStats{}, false
}

// DrainPool releases every parked warm node back to the free pool and
// sets Target to 0 so the refiller idles; the rest of the policy is
// retained. Reconfigure with a non-zero Target to re-arm.
func (e *Enclave) DrainPool() (PoolStats, error) {
	p := e.warmPool()
	if p == nil {
		return PoolStats{}, fmt.Errorf("%w: enclave %q has no warm pool", ErrNotFound, e.Project)
	}
	p.mu.Lock()
	p.policy.Target = 0
	p.mu.Unlock()
	p.drain("pool drained")
	return p.stats(), nil
}

// ClosePool stops the refiller and releases every warm node. It is a
// no-op without a pool; Destroy calls it so warm nodes never outlive
// their enclave.
func (e *Enclave) ClosePool() {
	e.poolMu.Lock()
	p := e.pool
	e.pool = nil
	e.poolMu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cancel()
	// Everything parked before closed flipped is in ready and drains
	// here; refills that finish later see closed under p.mu and
	// self-release, so after wg.Wait nothing is left behind.
	p.drain("pool closed")
	p.wg.Wait()
}

// warmPool returns the enclave's pool (nil when none is configured).
func (e *Enclave) warmPool() *WarmPool {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	return e.pool
}

func (p *WarmPool) setPolicy(pol PoolPolicy) {
	p.mu.Lock()
	p.policy = pol
	p.mu.Unlock()
	p.poke()
}

func (p *WarmPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Enclave:   p.e.Project,
		Policy:    p.policy,
		Warm:      len(p.ready),
		Refilling: p.refilling,
		Hits:      p.hits,
		Misses:    p.misses,
		Drained:   p.drained,
		Rejected:  p.rejected,
	}
	for _, wn := range p.ready {
		st.WarmNodes = append(st.WarmNodes, wn.name)
	}
	sort.Strings(st.WarmNodes)
	return st
}

// poke nudges the refiller without blocking.
func (p *WarmPool) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// take pops up to n warm nodes for an acquisition, counting the
// shortfall as cold-path misses, and holds the refiller until the
// acquisition calls reserved.
func (p *WarmPool) take(n int) []*nodeWork {
	p.mu.Lock()
	k := n
	if k > len(p.ready) {
		k = len(p.ready)
	}
	out := append([]*nodeWork(nil), p.ready[:k]...)
	p.ready = append([]*nodeWork(nil), p.ready[k:]...)
	p.hits += uint64(k)
	p.misses += uint64(n - k)
	p.metrics.hits.Add(float64(k))
	p.metrics.misses.Add(float64(n - k))
	p.syncWarmLocked()
	p.reserving++
	p.mu.Unlock()
	return out
}

// reserved releases take's hold once the acquisition holds its cold
// remainder (or gave up on it), and wakes the refiller to replace what
// take handed out.
func (p *WarmPool) reserved() {
	p.mu.Lock()
	p.reserving--
	p.mu.Unlock()
	p.poke()
}

// putBack rolls an acquisition's take back (a failed batch
// reservation): returned nodes re-enter the pool and the take's
// hit/miss accounting is undone — the batch never happened, so it must
// not skew the ratios capacity planning reads. Nodes banned while out
// of the pool go to quarantine instead, and nodes returned after
// ClosePool are released to the free pool rather than re-parked in a
// detached pool nothing will ever drain.
func (p *WarmPool) putBack(nodes []*nodeWork, misses int) {
	p.mu.Lock()
	p.misses -= uint64(misses)
	p.mu.Unlock()
	if len(nodes) == 0 {
		return
	}
	keep := nodes[:0]
	for _, wn := range nodes {
		if reason, ok := p.e.bannedReason(wn.name); ok {
			p.mu.Lock()
			p.hits--
			p.rejected++
			p.metrics.rejected.Inc()
			p.mu.Unlock()
			_ = p.e.evict(wn.name, StateQuarantined, reason, reason)
			continue
		}
		keep = append(keep, wn)
	}
	p.mu.Lock()
	if p.closed {
		p.drained += uint64(len(keep))
		p.metrics.drained.Add(float64(len(keep)))
		p.hits -= uint64(len(keep))
		p.mu.Unlock()
		for _, wn := range keep {
			p.e.releaseWarmNode(wn.name, "pool closed during rollback")
		}
		return
	}
	p.ready = append(keep, p.ready...)
	p.hits -= uint64(len(keep))
	p.syncWarmLocked()
	p.mu.Unlock()
}

// park re-inserts a standby the caller booted outside the refiller —
// crash recovery re-adopting a recorded warm node. It reports false when
// the pool closed meanwhile (the caller releases the node itself).
func (p *WarmPool) park(wn *nodeWork) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.ready = append(p.ready, wn)
	p.syncWarmLocked()
	p.mu.Unlock()
	p.poke() // surplus above target is the refiller's to shed
	return true
}

// remove pulls one parked node by name (quarantine path). It returns
// nil when the node is not parked — e.g. already taken by a batch.
func (p *WarmPool) remove(name string) *nodeWork {
	p.mu.Lock()
	var got *nodeWork
	for i, wn := range p.ready {
		if wn.name == name {
			p.ready = append(p.ready[:i:i], p.ready[i+1:]...)
			p.rejected++
			p.metrics.rejected.Inc()
			got = wn
			break
		}
	}
	p.syncWarmLocked()
	p.mu.Unlock()
	if got != nil {
		p.poke() // occupancy dropped: the refiller replaces the standby
	}
	return got
}

// drain releases every parked node back to the free pool.
func (p *WarmPool) drain(detail string) {
	p.mu.Lock()
	nodes := p.ready
	p.ready = nil
	p.drained += uint64(len(nodes))
	p.metrics.drained.Add(float64(len(nodes)))
	p.syncWarmLocked()
	p.mu.Unlock()
	for _, wn := range nodes {
		p.e.releaseWarmNode(wn.name, detail)
	}
}

// run is the background refiller: context-cancellable, rate-limited by
// MaxRefill, and target-tracking in both directions.
func (p *WarmPool) run() {
	defer p.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		p.mu.Lock()
		if p.recovering || p.reserving > 0 {
			// Held by crash recovery (neither refill nor shed until the
			// recorded standbys are parked back) or by acquisitions still
			// reserving their cold remainder.
			p.mu.Unlock()
			select {
			case <-p.ctx.Done():
				return
			case <-p.wake:
			}
			continue
		}
		backoff := p.retryDelayLocked()
		if p.e.cloud.CheckDegraded() != nil {
			// Degraded hold: with a backend breaker open, warm boots
			// would be fed straight into a dead service and healthy
			// standbys stranded in the rejected pool — and shedding
			// surplus would fail its teardown calls the same way. Hold
			// everything and re-check once the breaker cooldown can
			// admit probes again.
			p.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(backoff)
			select {
			case <-p.ctx.Done():
				return
			case <-p.wake:
			case <-timer.C:
			}
			continue
		}
		// Surplus first: a lowered target releases parked nodes.
		var surplus []*nodeWork
		for len(p.ready) > p.policy.Target {
			last := len(p.ready) - 1
			surplus = append(surplus, p.ready[last])
			p.ready = p.ready[:last]
			p.drained++
			p.metrics.drained.Inc()
		}
		p.syncWarmLocked()
		deficit := p.policy.Target - len(p.ready) - p.refilling
		slots := p.policy.MaxRefill - p.refilling
		n := deficit
		if n > slots {
			n = slots
		}
		if n < 0 {
			n = 0
		}
		p.refilling += n
		belowTarget := len(p.ready) < p.policy.Target
		p.mu.Unlock()

		for _, wn := range surplus {
			p.e.releaseWarmNode(wn.name, "pool target lowered")
		}
		for i := 0; i < n; i++ {
			p.wg.Add(1)
			go p.refillOne()
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		// Arm the retry timer only while below target: failed refills
		// do not poke (free pool empty would spin hot), so the timer
		// is their retry path. Below-target includes in-flight
		// attempts — an attempt can outlive one backoff period (e.g.
		// parked behind foreground work in the airlock queue, or
		// preempted by it) and then fail, and without a re-armed
		// timer that failure would strand the refiller asleep. At or
		// above target the loop sleeps until take/setPolicy/park poke
		// it — no idle wake-ups.
		var retry <-chan time.Time
		if belowTarget {
			timer.Reset(backoff)
			retry = timer.C
		}
		select {
		case <-p.ctx.Done():
			return
		case <-p.wake:
		case <-retry:
		}
	}
}

// refillOne boots one standby node into the warm state: reserve from
// the free pool, walk the refill route, and park it. The walk routes a
// failed node to the rejected pool exactly like a cold-path phase
// failure — and because rejected (and quarantined) nodes live in the
// provider's rejected project, not the free pool, they can never
// re-enter warm. A pool shutdown, or a scheduler preemption of this
// attempt, is the walk's caller cancelling: the healthy node goes back
// to free.
func (p *WarmPool) refillOne() {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		p.refilling--
		p.mu.Unlock()
	}()
	e := p.e
	// Each attempt runs as background-class work under its own cancel:
	// the airlock scheduler invokes it to preempt an in-flight refill
	// quote when foreground acquisitions are waiting for a slot.
	ctx, cancel := withSchedBackground(p.ctx)
	defer cancel()
	t0 := time.Now()
	name, err := e.cloud.HIL.AllocateAnyNode(ctx, e.Project)
	if err != nil {
		// Free pool empty (or pool closing). No poke: an immediate
		// wake would spin hot against an empty pool, so the retry
		// waits out the loop's backoff timer instead.
		p.noteRefill(false)
		return
	}
	e.journal.record(EvAllocated, name, "warm refill")
	wn := &nodeWork{name: name}
	if _, _, to := e.walk(ctx, wn, routeRefill); to != "" {
		if to != StateFree {
			p.mu.Lock()
			p.rejected++
			p.metrics.rejected.Inc()
			p.mu.Unlock()
		}
		// Both exits back off: a preempted refill means foreground
		// pressure, a rejection means a sick node or service.
		p.noteRefill(false)
		return
	}
	p.metrics.refillSeconds.ObserveSince(t0)
	p.mu.Lock()
	if p.closed || len(p.ready) >= p.policy.Target {
		// The pool closed (or shrank) while this node booted.
		p.drained++
		p.metrics.drained.Inc()
		p.mu.Unlock()
		e.releaseWarmNode(name, "pool closed during refill")
		return
	}
	p.ready = append(p.ready, wn)
	p.failStreak = 0
	p.syncWarmLocked()
	p.mu.Unlock()
	p.poke() // a slot freed up and the park succeeded: keep filling
}

// noteRefill records a refill attempt's outcome for the backoff.
func (p *WarmPool) noteRefill(ok bool) {
	p.mu.Lock()
	if ok {
		p.failStreak = 0
	} else {
		p.failStreak++
		p.metrics.refillFails.Inc()
	}
	p.mu.Unlock()
}

// maxRefillBackoff caps the exponential refill backoff.
const maxRefillBackoff = 5 * time.Second

// retryDelayLocked is the refiller's retry delay: the configured base
// while refills succeed, then the shared capped full-jitter Backoff
// over the failure streak, so a fleet of pools retrying against a dead
// HIL never synchronizes into a storm. Callers hold p.mu.
func (p *WarmPool) retryDelayLocked() time.Duration {
	if p.failStreak == 0 {
		return p.policy.RetryBackoff
	}
	return Backoff(p.policy.RetryBackoff, maxRefillBackoff, p.failStreak)
}

// releaseWarmNode returns a healthy parked node to the provider's free
// pool: stop its agent, free it, unwire its airlock. The life cycle
// lets go first — once the node is free, a reservation in this enclave
// may claim it, and must find it Free here — and the ban check runs
// after that, pairing with quarantineWarm's state check on the other
// side of the race so a revocation landing mid-release is contained
// whichever side loses. A banned standby never reaches the free pool:
// it goes straight to the provider's rejected project.
func (e *Enclave) releaseWarmNode(name, detail string) {
	ctx := context.Background()
	_ = e.cloud.Driver.StopAgent(ctx, name)
	_ = e.lc.to(name, StateFree, detail)
	if reason, ok := e.bannedReason(name); ok {
		e.cloud.MarkRejected(e.Project, name, reason)
		e.journal.record(EvQuarantined, name, "banned during release: "+reason)
	} else {
		_ = e.cloud.HIL.FreeNode(ctx, e.Project, name)
	}
	_ = e.cloud.HIL.DeleteNetwork(ctx, e.Project, airlockNet(name))
}

// quarantineWarm is QuarantineNode's branch for a warm standby: the
// node is pulled from the pool (so no acquisition can ever take it),
// torn down, and parked in the provider's rejected project — it must
// never transit the free pool, where the refiller or a concurrent
// batch could claim it back. A standby already taken by a batch (the
// re-quote window) cannot be torn down here without racing the
// pipeline; it is banned instead — the fast path checks the ban before
// the payload-delivering re-quote and again before admission — and a
// node that already moved past the window is recovered by state.
func (e *Enclave) quarantineWarm(name, reason string) error {
	if p := e.warmPool(); p != nil {
		if wn := p.remove(name); wn != nil {
			return e.evict(wn.name, StateQuarantined, reason, reason)
		}
	}
	e.banNode(name, reason)
	switch st := e.lc.state(name); st {
	case StateWarm, StateProvisioned:
		// Mid-acquisition: the fast path's gates reject it.
		e.journal.record(EvRevoked, name, "banned mid-acquisition: "+reason)
		return nil
	case StateAllocated:
		// Admitted before the ban could land: full member quarantine,
		// and the payload-delivered PSK is retired like any member
		// revocation's would be.
		e.bannedReason(name)
		if err := e.QuarantineNode(name, reason); err != nil {
			return err
		}
		if e.Profile.EncryptNetwork {
			_ = e.RotateNetKey()
		}
		return nil
	case StateFree:
		// A pool drain raced the revocation and released the node to
		// the free pool, where no gate would ever consult the ban —
		// park it in the provider's rejected project directly.
		e.bannedReason(name)
		e.cloud.MarkRejected(e.Project, name, reason)
		e.journal.record(EvQuarantined, name, "banned during release: "+reason)
		return nil
	default:
		// Already rejected or quarantined by the pipeline: contained.
		e.bannedReason(name)
		return fmt.Errorf("%w: node %q is already %s", ErrConflict, name, st)
	}
}

// banNode records a revocation that arrived while the node was out of
// the pool mid-acquisition; bannedReason is checked (and the ban
// consumed) before the node could reach the enclave or the pool again.
func (e *Enclave) banNode(name, reason string) {
	e.banMu.Lock()
	if e.bannedWarm == nil {
		e.bannedWarm = make(map[string]string)
	}
	e.bannedWarm[name] = reason
	e.banMu.Unlock()
}

// bannedReason reports (and clears) a pending mid-acquisition ban.
func (e *Enclave) bannedReason(name string) (string, bool) {
	e.banMu.Lock()
	defer e.banMu.Unlock()
	reason, ok := e.bannedWarm[name]
	if ok {
		delete(e.bannedWarm, name)
	}
	return reason, ok
}
