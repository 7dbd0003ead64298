package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bolted/internal/obs"
)

// This file is the concurrent provisioner: a worker-pool pipeline that
// drives many nodes through the Figure-1 life cycle at once. The
// paper's prototype provisioned one server at a time, so a 16-blade
// enclave paid the full boot+attest latency per node sequentially;
// here the batch pays roughly one node's latency plus contention. Each
// node's failure is isolated: a blade that fails any phase is routed to
// the provider's rejected pool while its siblings continue to
// allocation, and a cancelled batch returns in-flight nodes to the
// free pool instead of leaking switch or storage state.

// DefaultBatchParallelism bounds how many nodes AcquireNodes keeps in
// flight at once. The per-node airlock design means concurrency is not
// limited by a single airlock (the §7.3 prototype limitation) — the
// bound only caps pressure on the shared HIL, BMI and verifier
// services.
const DefaultBatchParallelism = 8

// NodeFailure records a node that left the pipeline before allocation.
type NodeFailure struct {
	Node  string
	Phase string // canonical phase name (PhaseAirlock, ..., timing.go)
	Err   error
}

func (f NodeFailure) String() string {
	return fmt.Sprintf("%s failed %s: %v", f.Node, f.Phase, f.Err)
}

// BatchResult is the outcome of one AcquireNodes call.
type BatchResult struct {
	// Nodes are the new enclave members, sorted by name.
	Nodes []*Node
	// Failed are nodes quarantined in the provider's rejected pool.
	Failed []NodeFailure
	// Aborted are nodes returned to the free pool because the caller's
	// context ended mid-flight. They are healthy; they just never
	// finished.
	Aborted []NodeFailure
	// Timings is the per-phase breakdown, in the same vocabulary as
	// SimulateProvisioning.
	Timings BatchTimings
}

// AcquireNodes provisions n nodes concurrently through the Figure-1
// life cycle. Warm standbys go first: nodes parked in the enclave's
// warm pool take the kexec fast path (re-quote, network move, kexec —
// no PXE/boot/agent chain), and only the remainder is reserved cold
// from the free pool. All remaining nodes are reserved up front — if
// the free pool cannot supply them, nothing is touched (warm standbys
// return to the pool) and an error is returned. After that, per-node
// failures do not abort the batch: the failing node moves to the
// rejected pool and appears in BatchResult.Failed while its siblings
// continue. Cancelling ctx stops the pipeline at the next phase
// boundary and returns unfinished nodes to the free pool; nodes
// already allocated stay allocated and are returned alongside ctx's
// error.
func (e *Enclave) AcquireNodes(ctx context.Context, image string, n int) (*BatchResult, error) {
	if n < 1 {
		return nil, errors.New("core: batch size must be at least 1")
	}
	c := e.cloud
	start := time.Now()

	// Boot info is a property of the image, not the node: extract once
	// per batch instead of once per node.
	bootInfo, err := c.BMI.ExtractBootInfo(ctx, image)
	if err != nil {
		return nil, err
	}

	// Drain the warm pool first; cold reservation covers the shortfall.
	var warm []*nodeWork
	pool := e.warmPool()
	if pool != nil {
		warm = pool.take(n)
	}

	// Reserve the cold remainder (cheap serialized HIL map updates;
	// concurrent AllocateAnyNode calls would race each other for the
	// same free node). Failing here leaves no trace: cold reservations
	// roll back and warm standbys return to the pool.
	names := make([]string, 0, n-len(warm))
	for i := 0; i < n-len(warm); i++ {
		name, err := c.HIL.AllocateAnyNode(ctx, e.Project)
		if err != nil {
			for _, got := range names {
				_ = c.HIL.FreeNode(context.Background(), e.Project, got)
				e.journal.record(EvReleased, got, "batch reservation rolled back")
			}
			if pool != nil {
				pool.putBack(warm, n-len(warm))
				pool.reserved()
			}
			return nil, fmt.Errorf("core: reserved %d of %d nodes (%d warm): %w", len(names)+len(warm), n, len(warm), err)
		}
		e.journal.record(EvAllocated, name, "image="+image)
		names = append(names, name)
	}
	if pool != nil {
		pool.reserved()
	}

	type batchJob struct {
		w     *nodeWork
		route []routeStep
	}
	res := &BatchResult{}
	var mu sync.Mutex // guards res
	workers := DefaultBatchParallelism
	if workers > n {
		workers = n
	}
	jobs := make(chan batchJob)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				spans, fail, to := e.walk(ctx, job.w, job.route)
				mu.Lock()
				for _, sp := range spans {
					res.Timings.observe(sp.phase, sp.d)
				}
				switch to {
				case "":
					res.Nodes = append(res.Nodes, job.w.node)
				case StateFree:
					res.Aborted = append(res.Aborted, fail)
				default:
					res.Failed = append(res.Failed, fail)
				}
				mu.Unlock()
			}
		}()
	}
	for _, w := range warm {
		w.boot = bootInfo // the standby resumes its walk with the tenant's image
		jobs <- batchJob{w, routeWarm}
	}
	for _, name := range names {
		jobs <- batchJob{&nodeWork{name: name, boot: bootInfo}, routeCold}
	}
	close(jobs)
	wg.Wait()

	sort.Slice(res.Nodes, func(i, j int) bool { return res.Nodes[i].Name < res.Nodes[j].Name })
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Node < res.Failed[j].Node })
	sort.Slice(res.Aborted, func(i, j int) bool { return res.Aborted[i].Node < res.Aborted[j].Node })
	res.Timings.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// phaseSpan is one node's measured time in one canonical phase.
type phaseSpan struct {
	phase string
	d     time.Duration
}

// phaseRunner builds the per-phase measurement closure the walk runs
// every phase through: skip when the batch is already cancelled, time the
// phase into *spans (the BatchTimings source) and the phase histogram,
// and — when the context carries a trace (an operation started via the
// Manager) — emit a node×phase span parented under the operation's
// root. Timings, metrics and traces therefore agree by construction.
//
// When the enclave's ResiliencePolicy sets a PhaseDeadline, each phase
// runs under its own deadline-bounded child context: a phase wedged on
// an indefinitely hung backend fails with context.DeadlineExceeded and
// the node is rejected instead of the worker blocking forever.
func (e *Enclave) phaseRunner(ctx context.Context, node string, spans *[]phaseSpan) func(string, func(context.Context) error) error {
	tc := obs.TraceFrom(ctx)
	deadline := e.Resilience().PhaseDeadline
	return func(phase string, fn func(context.Context) error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		pctx := ctx
		cancel := context.CancelFunc(func() {})
		if deadline > 0 {
			pctx, cancel = context.WithTimeout(ctx, deadline)
		}
		t0 := time.Now()
		sp := tc.Start(phase, node)
		err := fn(pctx)
		cancel()
		sp.End(err)
		d := time.Since(t0)
		*spans = append(*spans, phaseSpan{phase, d})
		e.cloud.metrics.observePhase(phase, d)
		if deadline > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			e.cloud.metrics.phaseDeadline.Inc()
		}
		return err
	}
}

// A routeStep is one row of a route: the canonical phase it is timed,
// bounded and reported under, whether only attesting profiles run it,
// and the work.
type routeStep struct {
	phase  string
	attest bool
	step   stepFunc
}

// A stepFunc is one piece of a phase's work on a node.
type stepFunc func(*Enclave, context.Context, *nodeWork) error

// The Figure-1 life cycle as data: one route per entry point, the rows a
// reserved node walks in order. Consecutive rows of one phase run as one
// phase. A standby is a refill walk paused at StateWarm; an acquisition
// resumes it on the warm route.
var (
	routeCold = []routeStep{
		{PhaseAirlock, false, (*Enclave).airlockNode},
		{PhaseBoot, false, (*Enclave).bootNode},
		{PhaseAttest, true, quote(true, "verifier=%s", (*Enclave).deliverPayload)},
		{PhaseProvision, false, (*Enclave).provisionNode},
		{PhaseProvision, false, (*Enclave).admitNode},
	}
	routeWarm = []routeStep{
		{PhaseWarmRequote, true, quote(false, "verifier=%s warm-requote", (*Enclave).deliverPayload)},
		{PhaseWarmProvision, false, (*Enclave).provisionNode},
		{PhaseWarmProvision, false, (*Enclave).admitNode},
	}
	routeRefill = []routeStep{
		{PhaseWarmRefill, false, (*Enclave).airlockNode},
		{PhaseWarmRefill, false, (*Enclave).bootNode},
		{PhaseWarmRefill, true, quote(true, "warm pre-attest verifier=%s", (*Enclave).checkPlatform)},
		{PhaseWarmRefill, false, (*Enclave).parkNode},
	}
)

// walk drives one reserved node along route, one phase at a time through
// phaseRunner, checking for a ban before each phase, and hands whatever
// ends the walk to leave.
func (e *Enclave) walk(ctx context.Context, w *nodeWork, route []routeStep) ([]phaseSpan, NodeFailure, NodeState) {
	if !e.Profile.Attest {
		route = slices.DeleteFunc(slices.Clone(route), func(r routeStep) bool { return r.attest })
	}
	var spans []phaseSpan
	run := e.phaseRunner(ctx, w.name, &spans)
	var phase string
	var err error
	for len(route) > 0 && err == nil {
		n := 1
		for n < len(route) && route[n].phase == route[0].phase {
			n++
		}
		rows := route[:n]
		phase, route = rows[0].phase, route[n:]
		if err = e.gate(w); err == nil {
			err = run(phase, func(ctx context.Context) error {
				for _, r := range rows {
					if err := r.step(e, ctx, w); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	fail, to := e.leave(ctx, w, phase, err)
	return spans, fail, to
}

// gate honours a revocation that banned the node while it was out of the
// pool (quarantineWarm): the walk goes no further.
func (e *Enclave) gate(w *nodeWork) error {
	if reason, ok := e.bannedReason(w.name); ok {
		w.banned = reason
		return fmt.Errorf("core: standby revoked mid-acquisition: %s", reason)
	}
	return nil
}

// leave is the one place that decides where a node leaving the walk
// goes, and returns its failure and that state ("" when it stays). A
// finished node stays: a member, or a standby its caller parks. Only the
// caller's own cancellation of an unbanned node frees it. A node banned
// after its last gate is quarantined, and any other failure — a phase
// error, a gate, a cancellation that merely coincides with a genuine
// failure — rejects it. The rejected and quarantined never transit the
// free pool, where a concurrent batch could claim them. The enclave PSK
// is rotated iff a banned node already received the payload.
func (e *Enclave) leave(ctx context.Context, w *nodeWork, phase string, err error) (NodeFailure, NodeState) {
	late := e.gate(w) // a ban that landed after the last gate
	var to NodeState
	switch ctxErr := ctx.Err(); {
	case err == nil && late == nil:
		return NodeFailure{}, ""
	case err == nil:
		err, to = late, StateQuarantined
		e.dropMember(w.name)
		_ = e.evict(w.name, to, w.banned, w.banned)
	case w.banned == "" && ctxErr != nil && errors.Is(err, ctxErr):
		to = StateFree
		_ = e.evict(w.name, to, "", "aborted: "+err.Error())
	default:
		to = StateRejected
		_ = e.evict(w.name, to, err.Error(), phase+": "+err.Error())
	}
	if w.banned != "" && w.delivered && e.Profile.EncryptNetwork {
		_ = e.RotateNetKey()
	}
	return NodeFailure{Node: w.name, Phase: phase, Err: err}, to
}

// evict tears a node down — verifier (a repaired node starts from
// scratch), agent, storage, airlock; errors from resources it never
// reached are ignored — into state to: the free pool for an abort, else
// straight into the provider's rejected project for reason, which
// detaches its switch port from every network and powers it off.
func (e *Enclave) evict(name string, to NodeState, reason, detail string) error {
	ctx := context.Background()
	if e.verifier != nil {
		e.verifier.StopMonitoring(name)
		e.verifier.RemoveNode(name)
	}
	_ = e.cloud.Driver.StopAgent(ctx, name)
	_ = e.cloud.BMI.Unexport(ctx, name, "")
	_ = e.cloud.BMI.DeleteImage(ctx, e.volName(name))
	if to != StateFree {
		e.cloud.MarkRejected(e.Project, name, reason)
		_ = e.cloud.HIL.DeleteNetwork(ctx, e.Project, airlockNet(name))
		return e.lc.to(name, to, detail)
	}
	// An abort. The life cycle lets go before the provider does: once the
	// node is free, a reservation in this enclave may claim it, and must
	// find it Free here.
	var err error
	if e.lc.state(name) == StateFree {
		// Reserved but never airlocked: journal the return directly.
		e.journal.record(EvReleased, name, detail)
	} else {
		err = e.lc.to(name, StateFree, detail)
	}
	_ = e.cloud.HIL.FreeNode(ctx, e.Project, name)
	_ = e.cloud.HIL.DeleteNetwork(ctx, e.Project, airlockNet(name))
	return err
}
