// Package guard is Bolted's runtime attestation guard: the enforcement
// plane above the Keylime verifier that §7.4 of the paper leaves to the
// tenant's own scripts. The verifier detects a runtime integrity
// violation and revokes a node's keys; the guard turns that detection
// into an automated incident response — quarantine the node (HIL port
// and BMI export torn down, parked in the provider's rejected pool),
// rotate the enclave-wide IPsec PSK on every surviving member, and,
// policy permitting, acquire an attested replacement so the enclave
// self-heals back to its target size. Every response is recorded as a
// core.Incident the tenant can poll, wait on, or stream over /v1.
//
// The guard also *drives* detection: a periodic IMA round checks every
// Allocated member under a configurable policy (interval, quote
// concurrency, failure tolerance), so an enclave is protected even when
// nobody called StartContinuousAttestation per node.
package guard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"bolted/internal/core"
	"bolted/internal/keylime"
	"bolted/internal/obs"
)

// Policy defaults; chosen so a default guard detects within a few
// hundred milliseconds (the paper's detection-to-ban budget is ~3 s on
// real hardware) without saturating the verifier with quotes.
const (
	DefaultInterval         = 250 * time.Millisecond
	DefaultMaxConcurrent    = 4
	DefaultFailureTolerance = 3
	DefaultCoalesceWindow   = 25 * time.Millisecond
)

// maxStatusIncidents bounds how many incident IDs Status retains.
const maxStatusIncidents = 64

// Policy configures one enclave's guard.
type Policy struct {
	// Interval is the cadence of IMA check rounds over Allocated
	// members.
	Interval time.Duration `json:"interval_ns"`
	// MaxConcurrent bounds in-flight CheckIMA quotes per round, capping
	// pressure on the verifier and the attestation network.
	MaxConcurrent int `json:"max_concurrent"`
	// FailureTolerance is how many consecutive failed check rounds
	// (unreachable agent, quote errors) a member survives before the
	// guard revokes it. A violation verdict revokes immediately.
	FailureTolerance int `json:"failure_tolerance"`
	// CoalesceWindow is how long the responder waits after the first
	// revocation for further concurrent revocations, so one PSK
	// rotation covers the whole burst.
	CoalesceWindow time.Duration `json:"coalesce_window_ns"`
	// SelfHeal acquires an attested replacement node per quarantined
	// member, restoring the enclave's size.
	SelfHeal bool `json:"self_heal"`
	// Image is the boot image for replacement nodes (required with
	// SelfHeal).
	Image string `json:"image,omitempty"`
}

// withDefaults fills unset fields.
func (p Policy) withDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = DefaultInterval
	}
	if p.MaxConcurrent <= 0 {
		p.MaxConcurrent = DefaultMaxConcurrent
	}
	if p.FailureTolerance <= 0 {
		p.FailureTolerance = DefaultFailureTolerance
	}
	if p.CoalesceWindow <= 0 {
		p.CoalesceWindow = DefaultCoalesceWindow
	}
	return p
}

// Validate reports policy inconsistencies.
func (p Policy) Validate() error {
	if p.SelfHeal && p.Image == "" {
		return fmt.Errorf("guard: self-healing needs a replacement image")
	}
	return nil
}

// Status is a point-in-time view of a guard.
type Status struct {
	Enclave     string   `json:"enclave"`
	Policy      Policy   `json:"policy"`
	Rounds      uint64   `json:"rounds"`      // completed IMA check rounds
	Checks      uint64   `json:"checks"`      // CheckIMA calls issued
	Revocations uint64   `json:"revocations"` // revocations responded to
	Paused      bool     `json:"paused,omitempty"`
	Incidents   []string `json:"incidents,omitempty"`
}

// Guard is the runtime attestation guard for one enclave. Create with
// Enable; it registers itself with the Manager so revocation events are
// routed to it.
type Guard struct {
	mgr     *core.Manager
	enclave *core.Enclave
	name    string

	ctx    context.Context // cancelled by Stop; bounds heal waits
	cancel context.CancelFunc
	stop   chan struct{}
	queue  chan keylime.RevocationEvent
	wake   chan struct{} // signalled by SetPolicy; re-arms the round timer

	metrics guardMetrics

	loopDone chan struct{}
	respDone chan struct{}
	healWG   sync.WaitGroup // in-flight replacement acquisitions
	healMu   sync.Mutex     // serializes heals (one StartAcquire per enclave)

	mu          sync.Mutex
	policy      Policy
	failures    map[string]int // consecutive failed check rounds per node
	rounds      uint64
	checks      uint64
	revocations uint64
	paused      bool // rounds held while the registrar breaker is open
	incidents   []string
	stopped     bool
}

// guardMetrics are the guard's per-enclave instruments. The zero value
// (uninstrumented manager) is fully usable: every method on a nil
// instrument is a no-op.
type guardMetrics struct {
	roundSeconds *obs.Histogram // duration of one IMA check round
	checks       *obs.Counter   // CheckIMA calls issued
	revocations  *obs.Counter   // revocations responded to
}

func newGuardMetrics(reg *obs.Registry, enclave string) guardMetrics {
	return guardMetrics{
		roundSeconds: reg.HistogramVec("bolted_guard_round_seconds",
			"Duration of one periodic IMA check round over Allocated members.",
			obs.DefLatencyBuckets, "enclave").With(enclave),
		checks: reg.CounterVec("bolted_guard_checks_total",
			"CheckIMA quotes issued by the guard's periodic rounds.",
			"enclave").With(enclave),
		revocations: reg.CounterVec("bolted_guard_revocations_total",
			"Revocation events the guard responded to.",
			"enclave").With(enclave),
	}
}

// PolicyJSON implements core.PolicyReporter: the manager commits the
// returned policy to its durable store when the guard attaches, so a
// restarted control plane can re-enable the guard via Restore.
func (g *Guard) PolicyJSON() (json.RawMessage, error) {
	return json.Marshal(g.Policy())
}

// Restore re-enables every guard whose policy the manager recovered from
// its durable store (Manager.Recover). It returns the guards it started;
// an enclave whose re-enable fails is skipped with its error recorded in
// the second return, so one broken policy does not abandon the rest.
func Restore(mgr *core.Manager) ([]*Guard, map[string]error) {
	var out []*Guard
	errs := make(map[string]error)
	for enclave, raw := range mgr.RecoveredGuardPolicies() {
		var p Policy
		if err := json.Unmarshal(raw, &p); err != nil {
			errs[enclave] = fmt.Errorf("guard: decode recovered policy: %w", err)
			continue
		}
		g, err := Enable(mgr, enclave, p)
		if err != nil {
			errs[enclave] = err
			continue
		}
		out = append(out, g)
	}
	if len(errs) == 0 {
		errs = nil
	}
	return out, errs
}

// Enable builds a guard over a managed enclave under the given policy,
// attaches it to the manager, and starts its monitoring and response
// loops. The enclave's profile must enable continuous attestation (the
// guard is an IMA consumer; without a whitelist there is nothing to
// check).
func Enable(mgr *core.Manager, enclave string, p Policy) (*Guard, error) {
	e, err := mgr.Enclave(enclave)
	if err != nil {
		return nil, err
	}
	if !e.Profile.ContinuousAttest || e.Verifier() == nil {
		return nil, fmt.Errorf("%w: enclave %q profile %q does not enable continuous attestation",
			core.ErrConflict, enclave, e.Profile.Name)
	}
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrInvalid, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &Guard{
		mgr:      mgr,
		enclave:  e,
		name:     enclave,
		ctx:      ctx,
		cancel:   cancel,
		stop:     make(chan struct{}),
		queue:    make(chan keylime.RevocationEvent, 1024),
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
		respDone: make(chan struct{}),
		policy:   p,
		failures: make(map[string]int),
		metrics:  newGuardMetrics(mgr.Metrics(), enclave),
	}
	if err := mgr.AttachGuard(enclave, g); err != nil {
		cancel()
		return nil, err
	}
	go g.monitorLoop()
	go g.respondLoop()
	return g, nil
}

// Enclave returns the guarded enclave's name.
func (g *Guard) Enclave() string { return g.name }

// Policy returns the guard's current policy.
func (g *Guard) Policy() Policy {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.policy
}

// SetPolicy replaces the policy and re-arms the round timer, so a
// tighter interval takes effect immediately rather than after the
// previously scheduled tick.
func (g *Guard) SetPolicy(p Policy) error {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %v", core.ErrInvalid, err)
	}
	g.mu.Lock()
	g.policy = p
	g.mu.Unlock()
	// Commit the new policy so a restarted control plane re-enables the
	// guard with what the tenant last set. Best-effort: the live guard
	// already runs the new policy either way.
	if raw, err := json.Marshal(p); err == nil {
		_ = g.mgr.NoteGuardPolicy(g.name, raw)
	}
	select {
	case g.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
	return nil
}

// Status snapshots the guard's counters.
func (g *Guard) Status() Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Status{
		Enclave:     g.name,
		Policy:      g.policy,
		Rounds:      g.rounds,
		Checks:      g.checks,
		Revocations: g.revocations,
		Paused:      g.paused,
		Incidents:   append([]string(nil), g.incidents...),
	}
}

// Stop halts the monitoring and response loops and waits for them (and
// any in-flight incident response) to finish. Implements
// core.GuardController; DetachGuard and DeleteEnclave call it.
func (g *Guard) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.mu.Unlock()
	close(g.stop)
	g.cancel()
	<-g.loopDone
	<-g.respDone
	g.healWG.Wait()
}

// HandleRevocation implements core.GuardController: it runs inside the
// verifier's synchronous revocation fan-out, so it only enqueues. The
// response loop does the slow work.
func (g *Guard) HandleRevocation(ev keylime.RevocationEvent) {
	select {
	case g.queue <- ev:
	default:
		// The queue holds 1024 events — far beyond any real enclave's
		// node count. If it is somehow full, the enclave's own
		// subscription already revoked the node's SAs; dropping the
		// response beat is the safe overload behavior.
	}
}

// monitorLoop drives periodic IMA rounds until stopped.
func (g *Guard) monitorLoop() {
	defer close(g.loopDone)
	for {
		timer := time.NewTimer(g.Policy().Interval)
		select {
		case <-g.stop:
			timer.Stop()
			return
		case <-g.wake:
			// Policy changed: re-arm from the new interval at once.
			timer.Stop()
			continue
		case <-timer.C:
		}
		g.runRound()
	}
}

// runRound checks every Allocated member once, bounded by the policy's
// quote concurrency. Members mid-pipeline (Attesting, Provisioned) are
// never checked — the provisioner's own attestation path owns them, and
// quarantining a node that was never admitted would be wrong twice
// over.
func (g *Guard) runRound() {
	// Degraded-mode gate: while the registrar's circuit breaker is open,
	// every quote would fail for reasons that say nothing about the
	// members' integrity — revoking on those failures would tear a
	// healthy enclave apart because a provider service is down. Rounds
	// pause (failure counters freeze, nothing is revoked) until the
	// breaker admits probes again.
	if g.mgr.Health().BackendOpen(core.BackendRegistrar) {
		g.setPaused(true)
		return
	}
	g.setPaused(false)
	t0 := time.Now()
	defer g.metrics.roundSeconds.ObserveSince(t0)
	p := g.Policy()
	v := g.enclave.Verifier()
	var members []string
	for node, st := range g.enclave.NodeStates() {
		if st != core.StateAllocated {
			continue
		}
		if status, err := v.Status(node); err != nil || status == keylime.StatusRevoked {
			continue // already revoked (response in flight) or unknown
		}
		members = append(members, node)
	}
	sem := make(chan struct{}, p.MaxConcurrent)
	var wg sync.WaitGroup
	for _, node := range members {
		wg.Add(1)
		sem <- struct{}{}
		go func(node string) {
			defer wg.Done()
			defer func() { <-sem }()
			_, err := v.CheckIMA(node)
			g.noteCheck(node, p, err)
		}(node)
	}
	wg.Wait()
	g.mu.Lock()
	g.rounds++
	g.mu.Unlock()
}

// setPaused flips the degraded-mode hold, journaling each transition
// exactly once so the audit log shows when (and why) rounds stopped
// and resumed.
func (g *Guard) setPaused(paused bool) {
	g.mu.Lock()
	changed := g.paused != paused
	g.paused = paused
	g.mu.Unlock()
	if !changed {
		return
	}
	if paused {
		g.enclave.Journal().Record(core.EvGuardPaused, "",
			"registrar circuit breaker open: IMA rounds paused, no revocations issued")
	} else {
		g.enclave.Journal().Record(core.EvGuardPaused, "",
			"resumed: registrar circuit breaker no longer open")
	}
}

// noteCheck tracks per-node consecutive check failures. A violation
// already revoked the node inside CheckIMA; this path catches the
// quieter failure mode — a member whose agent stopped answering, which
// after FailureTolerance rounds is indistinguishable from a compromise
// that severed the agent. A check that failed because a provider
// service failed (core.ErrDegraded, or a transient fault of the kind
// that trips the breaker) leaves the count alone, as a paused round
// does: a round can start before the registrar's breaker trips (or be
// mid-flight when it does), and the service failing is no evidence
// against the member. A registrar answer about the node itself —
// unknown or not activated — is not a service fault and still counts.
func (g *Guard) noteCheck(node string, p Policy, err error) {
	g.metrics.checks.Inc()
	g.mu.Lock()
	g.checks++
	if err == nil {
		delete(g.failures, node)
		g.mu.Unlock()
		return
	}
	if errors.Is(err, core.ErrDegraded) || core.TransientError(err) {
		g.mu.Unlock()
		return
	}
	g.failures[node]++
	n := g.failures[node]
	g.mu.Unlock()
	if n >= p.FailureTolerance {
		g.mu.Lock()
		delete(g.failures, node)
		g.mu.Unlock()
		g.enclave.Verifier().Revoke(node,
			fmt.Sprintf("guard: %d consecutive failed attestation rounds (last: %v)", n, err))
	}
}

// respondLoop executes incident responses. Revocations arriving within
// the coalesce window are handled as one batch, so a burst of
// concurrent revocations quarantines every node but rotates the
// enclave PSK exactly once.
func (g *Guard) respondLoop() {
	defer close(g.respDone)
	for {
		var first keylime.RevocationEvent
		select {
		case <-g.stop:
			return
		case first = <-g.queue:
		}
		batch := []keylime.RevocationEvent{first}
		timer := time.NewTimer(g.Policy().CoalesceWindow)
	collect:
		for {
			select {
			case ev := <-g.queue:
				batch = append(batch, ev)
			case <-timer.C:
				break collect
			case <-g.stop:
				timer.Stop()
				return
			}
		}
		g.respond(batch)
	}
}

// respond runs the automated incident response for a batch of
// revocations: per-node quarantine, one enclave-wide rekey, then
// (policy permitting) replacement acquisition.
func (g *Guard) respond(batch []keylime.RevocationEvent) {
	p := g.Policy()
	var incs []*core.Incident
	var quarantined []string
	for _, ev := range batch {
		inc := g.mgr.OpenIncident(g.name, ev.UUID, ev.Reason)
		g.metrics.revocations.Inc()
		g.mu.Lock()
		g.revocations++
		g.incidents = append(g.incidents, inc.ID)
		// Same retention discipline as the manager: the status surface
		// lists recent incident IDs, not an unbounded history (the
		// incidents themselves live in the manager registry).
		if over := len(g.incidents) - maxStatusIncidents; over > 0 {
			g.incidents = append([]string(nil), g.incidents[over:]...)
		}
		g.mu.Unlock()

		// Only a full member or a parked warm standby is quarantined
		// (a revoked standby must never be handed to a tenant, and
		// must not re-enter the pool). A node still in the
		// provisioning pipeline (Attesting, Provisioned) fails its
		// phase and is routed to the rejected pool by the provisioner;
		// the guard stepping in would double-tear-down a node that was
		// never admitted.
		st := g.enclave.NodeState(ev.UUID)
		if st != core.StateAllocated && st != core.StateWarm {
			inc.Step("skip-quarantine",
				fmt.Sprintf("node is %q, not %q or %q; the provisioning pipeline owns it", st, core.StateAllocated, core.StateWarm))
			inc.Close(core.IncidentResolved, "no enclave membership to revoke")
			continue
		}
		if st == core.StateWarm {
			// A parked standby never held the enclave PSK or any
			// tenant payload, so there is nothing to rekey and no
			// member to replace: quarantine out of the pool and
			// resolve (the pool's own refiller boots a fresh standby).
			// A standby already taken by a batch is banned instead —
			// the fast path rejects it, rotating the PSK itself if the
			// payload got through — and the incident records which of
			// the two actually happened.
			if err := g.enclave.QuarantineNode(ev.UUID, ev.Reason); err != nil {
				inc.Step("skip-quarantine", "standby already left the pool: "+err.Error())
				inc.Close(core.IncidentResolved, "no warm standby to revoke")
				continue
			}
			if g.enclave.NodeState(ev.UUID) == core.StateQuarantined {
				inc.Step("quarantine", "warm standby pulled from the pool, parked in rejected pool")
			} else {
				inc.Step("quarantine", "standby taken mid-acquisition; banned — the fast path rejects it before it can join")
			}
			inc.Close(core.IncidentResolved, "standby quarantined; refiller replaces it")
			continue
		}
		if err := g.enclave.QuarantineNode(ev.UUID, ev.Reason); err != nil {
			// A release (or a second quarantine) racing this response
			// means the node is already out of the enclave — nothing
			// left to protect against, so the incident resolves rather
			// than paging for manual intervention.
			if errors.Is(err, core.ErrNotFound) || errors.Is(err, core.ErrConflict) {
				inc.Step("skip-quarantine", "node already left the enclave: "+err.Error())
				inc.Close(core.IncidentResolved, "no enclave membership to revoke")
				continue
			}
			inc.StepError("quarantine", err)
			inc.Close(core.IncidentDegraded, "quarantine failed; manual intervention required")
			continue
		}
		inc.Step("quarantine", "SAs revoked, agent stopped, BMI export destroyed, HIL port detached, parked in rejected pool")
		incs = append(incs, inc)
		quarantined = append(quarantined, ev.UUID)
	}
	if len(quarantined) == 0 {
		return
	}

	// One rotation retires every SA the whole batch of compromised
	// nodes ever held key material for.
	if err := g.enclave.RotateNetKey(); err != nil {
		for _, inc := range incs {
			inc.StepError("rekey", err)
			inc.Close(core.IncidentDegraded, "PSK rotation failed; manual intervention required")
		}
		return
	}
	for _, inc := range incs {
		inc.Step("rekey", fmt.Sprintf("enclave PSK rotated once for %d quarantined node(s)", len(quarantined)))
	}

	if !p.SelfHeal {
		for _, inc := range incs {
			inc.Close(core.IncidentResolved, "self-healing disabled by policy; enclave runs smaller")
		}
		return
	}
	// A replacement boot is minutes long on real hardware; it must not
	// hold up the response loop, or the next compromised node would
	// keep its exports and switch port for the whole boot. Heals run
	// in their own goroutine (serialized against each other — the
	// manager allows one acquisition per enclave) while the responder
	// returns to quarantining.
	g.healWG.Add(1)
	go func() {
		defer g.healWG.Done()
		g.healMu.Lock()
		defer g.healMu.Unlock()
		g.heal(p, incs, quarantined)
	}()
}

// heal acquires one attested replacement per quarantined node through
// the manager (so the replacement run is itself a visible Operation).
// Any shortfall parks the incidents — and the enclave — in the
// degraded state, reported but not hidden.
func (g *Guard) heal(p Policy, incs []*core.Incident, quarantined []string) {
	n := len(quarantined)
	degrade := func(why string) {
		g.enclave.Journal().Record(core.EvDegraded, "",
			fmt.Sprintf("self-healing failed for %d node(s): %s", n, why))
		for _, inc := range incs {
			inc.Close(core.IncidentDegraded, "replacement failed: "+why)
		}
	}
	op, err := g.mgr.StartAcquire(g.name, p.Image, n)
	if err != nil {
		degrade(err.Error())
		return
	}
	for _, inc := range incs {
		inc.Step("replace", fmt.Sprintf("replacement operation %s started (%d x %s)", op.ID, n, p.Image))
	}
	res, err := op.Wait(g.ctx)
	if err != nil {
		degrade("replacement wait interrupted: " + err.Error())
		return
	}
	if res == nil || len(res.Nodes) < n {
		got := 0
		var causes []string
		if res != nil {
			got = len(res.Nodes)
			for _, f := range res.Failed {
				causes = append(causes, f.String())
			}
		}
		why := fmt.Sprintf("%d of %d replacements allocated", got, n)
		if len(causes) > 0 {
			why += ": " + strings.Join(causes, "; ")
		}
		degrade(why)
		return
	}
	var names []string
	for _, node := range res.Nodes {
		names = append(names, node.Name)
		g.enclave.Journal().Record(core.EvHealed, node.Name,
			fmt.Sprintf("replacement restored enclave to target size (for %s)", strings.Join(quarantined, ",")))
	}
	for _, inc := range incs {
		inc.Step("replace", "replacement node(s) allocated: "+strings.Join(names, ", "))
		inc.Close(core.IncidentResolved, "enclave restored to target size")
	}
}
