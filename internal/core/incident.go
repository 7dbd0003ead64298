package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"bolted/internal/keylime"
	"bolted/internal/store"
)

// This file is the incident half of the runtime attestation guard
// (§7.4): a revocation detected by the Keylime verifier becomes an
// Incident — a first-class control-plane resource recording the
// automated response (quarantine, export teardown, enclave rekey,
// replacement) step by step, so a tenant on the other side of the /v1
// API can observe and audit the whole kill chain. The guard engine
// itself lives in internal/guard; the Manager only hosts the incident
// and guard registries and fans the verifier revocation feeds out to
// whoever listens (the wire equivalent of Verifier.Subscribe, which a
// remote boltedd would otherwise swallow).

// IncidentState is an incident's position in its response life cycle.
type IncidentState string

// Incident states. Resolved, Degraded and Unhandled are terminal.
const (
	// IncidentDetected: revocation observed, response not yet begun.
	IncidentDetected IncidentState = "detected"
	// IncidentResponding: quarantine / rekey / replacement in progress.
	IncidentResponding IncidentState = "responding"
	// IncidentResolved: response complete; the enclave is back at its
	// pre-incident size (or no replacement was requested).
	IncidentResolved IncidentState = "resolved"
	// IncidentDegraded: the node was quarantined and the enclave
	// rekeyed, but self-healing failed — the enclave runs below its
	// target size until the tenant intervenes.
	IncidentDegraded IncidentState = "degraded"
	// IncidentUnhandled: a revocation arrived on an enclave with no
	// guard enabled; recorded for the tenant, no automated response.
	IncidentUnhandled IncidentState = "unhandled"
)

// Terminal reports whether the state is final.
func (s IncidentState) Terminal() bool {
	return s == IncidentResolved || s == IncidentDegraded || s == IncidentUnhandled
}

// IncidentStep is one completed action of an incident response.
type IncidentStep struct {
	At     time.Time `json:"at"`
	Name   string    `json:"name"`
	Detail string    `json:"detail,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// Incident is one revocation and the automated response to it, tracked
// by a Manager. All methods are safe for concurrent use.
type Incident struct {
	ID      string
	Enclave string
	Node    string
	Reason  string
	Opened  time.Time

	m    *Manager // commits every update and folds it in
	done chan struct{}

	mu     sync.Mutex
	state  IncidentState
	steps  []IncidentStep
	closed time.Time
}

// IncidentStatus is a consistent point-in-time view of an Incident.
type IncidentStatus struct {
	ID      string         `json:"id"`
	Enclave string         `json:"enclave"`
	Node    string         `json:"node"`
	Reason  string         `json:"reason"`
	State   IncidentState  `json:"state"`
	Opened  time.Time      `json:"opened"`
	Closed  time.Time      `json:"closed,omitzero"`
	Steps   []IncidentStep `json:"steps,omitempty"`
}

// State returns the incident's current state.
func (i *Incident) State() IncidentState {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.state
}

// Status snapshots the incident atomically.
func (i *Incident) Status() IncidentStatus {
	i.mu.Lock()
	defer i.mu.Unlock()
	return IncidentStatus{
		ID:      i.ID,
		Enclave: i.Enclave,
		Node:    i.Node,
		Reason:  i.Reason,
		State:   i.state,
		Opened:  i.Opened,
		Closed:  i.closed,
		Steps:   append([]IncidentStep(nil), i.steps...),
	}
}

// Step records a completed response action.
func (i *Incident) Step(name, detail string) {
	i.m.noteIncidentUpdate(i, func(st *IncidentStatus) {
		st.State = IncidentResponding
		st.Steps = append(st.Steps, IncidentStep{At: time.Now(), Name: name, Detail: detail})
	})
}

// StepError records a response action that failed.
func (i *Incident) StepError(name string, err error) {
	i.m.noteIncidentUpdate(i, func(st *IncidentStatus) {
		st.State = IncidentResponding
		st.Steps = append(st.Steps, IncidentStep{At: time.Now(), Name: name, Error: err.Error()})
	})
}

// Close moves the incident to a terminal state (recording a final step
// when detail is non-empty). A terminal incident takes no further update,
// so closing one again is a no-op.
func (i *Incident) Close(state IncidentState, detail string) {
	if !state.Terminal() {
		panic("core: Incident.Close needs a terminal state, got " + string(state))
	}
	i.m.noteIncidentUpdate(i, func(st *IncidentStatus) {
		st.State = state
		st.Closed = time.Now()
		if detail != "" {
			st.Steps = append(st.Steps, IncidentStep{At: st.Closed, Name: string(state), Detail: detail})
		}
	})
}

// set makes a committed status the incident's own.
func (i *Incident) set(st IncidentStatus) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if st.State.Terminal() && !i.state.Terminal() {
		close(i.done)
	}
	i.state, i.steps, i.closed = st.State, st.Steps, st.Closed
}

// Done returns a channel closed when the incident reaches a terminal
// state.
func (i *Incident) Done() <-chan struct{} { return i.done }

// Wait blocks until the incident is terminal (returning its final
// status) or ctx ends.
func (i *Incident) Wait(ctx context.Context) (IncidentStatus, error) {
	select {
	case <-i.done:
		return i.Status(), nil
	case <-ctx.Done():
		return IncidentStatus{}, ctx.Err()
	}
}

// GuardController is the Manager's minimal view of a runtime
// attestation guard (implemented by internal/guard): the manager routes
// the enclave's verifier revocation events to it and stops it when the
// guard is detached or its enclave deleted. Everything richer — policy,
// status — lives on the concrete type.
type GuardController interface {
	// HandleRevocation is invoked, synchronously with the verifier's
	// fan-out, for every revocation on the guarded enclave. It must
	// return quickly (queue, don't respond inline).
	HandleRevocation(ev keylime.RevocationEvent)
	// Stop halts the guard's monitoring and response loops and waits
	// for any in-flight response to finish.
	Stop()
}

// maxIncidentFeed bounds the replayable incident-update feed; older
// updates fall off the front (the incidents themselves are retained
// separately).
const maxIncidentFeed = 4096

// MaxRetainedIncidents bounds how many incidents the manager keeps:
// beyond it, the oldest terminal incidents are forgotten. A long-lived
// boltedd guarding a flapping enclave must not grow memory with every
// revocation it ever answered (same discipline as MaxRetainedOps).
const MaxRetainedIncidents = 256

// maxRevFeed bounds each enclave's replayable revocation feed; older
// events fall off the front and the replay base advances.
const maxRevFeed = 1024

// feed is a bounded, replayable feed — the incident updates, and each
// enclave's revocation events. base is the absolute index of items[0], so
// cursors stay stable as add prunes the oldest items past limit. The
// manager's mu guards it.
type feed[T any] struct {
	items  []T
	base   int
	limit  int
	notify chan struct{} // closes on the next add
}

func newFeed[T any](limit int, items []T, base int) *feed[T] {
	return &feed[T]{items: items, base: base, limit: limit, notify: make(chan struct{})}
}

// add appends v, keeps the newest limit items, and wakes the feed's
// streamers.
func (f *feed[T]) add(v T) {
	f.items = append(f.items, v)
	if over := len(f.items) - f.limit; over > 0 {
		f.items = append([]T(nil), f.items[over:]...)
		f.base += over
	}
	close(f.notify)
	f.notify = make(chan struct{})
}

// since returns a copy of the items past the absolute cursor, a channel
// that closes when the next one arrives, and the cursor to resume from. A
// cursor older than the pruned feed resumes at its base.
func (f *feed[T]) since(cursor int) ([]T, <-chan struct{}, int) {
	cursor = max(cursor, f.base)
	var out []T
	if idx := cursor - f.base; idx < len(f.items) {
		out = append([]T(nil), f.items[idx:]...)
	}
	return out, f.notify, cursor + len(out)
}

// AttachGuard registers a guard for an enclave; subsequent revocations
// on the enclave's verifier are routed to it instead of being recorded
// as unhandled incidents. One guard per enclave. A guard that reports
// its policy (PolicyReporter) has it committed to the store, so Recover
// can hand it back for re-enabling after a restart.
func (m *Manager) AttachGuard(enclave string, g GuardController) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if _, err := m.enclaveLocked(enclave); err != nil {
		return err
	}
	if _, ok := m.guards[enclave]; ok {
		return fmt.Errorf("%w: enclave %q already has a guard", ErrExists, enclave)
	}
	var policy json.RawMessage
	if pr, ok := g.(PolicyReporter); ok {
		raw, err := pr.PolicyJSON()
		if err != nil {
			return fmt.Errorf("%w: guard policy: %v", ErrInvalid, err)
		}
		policy = raw
	}
	apply := func() {
		m.applyGuard(enclave, policy)
		m.guards[enclave] = g
	}
	if err := m.commit(store.KindGuardEnabled, guardRecord{Enclave: enclave, Policy: policy}, apply); err != nil {
		return fmt.Errorf("core: persist guard policy: %w", err)
	}
	return nil
}

// applyGuard folds a guard-enabled (a nil policy is one the guard did not
// report) or guard-detached (nil) record: the policy a restart re-enables
// the enclave's guard under. Callers hold m.mu.
func (m *Manager) applyGuard(enclave string, policy json.RawMessage) {
	if policy == nil {
		delete(m.guardPolicies, enclave)
		return
	}
	m.guardPolicies[enclave] = append(json.RawMessage(nil), policy...)
}

// NoteGuardPolicy commits an attached guard's updated policy to the
// durable store (guard.SetPolicy calls it), so a restart re-enables the
// guard under the policy the tenant last set, not the one it attached
// with.
func (m *Manager) NoteGuardPolicy(enclave string, policy json.RawMessage) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if _, ok := m.guards[enclave]; !ok {
		return fmt.Errorf("%w: enclave %q has no guard", ErrNotFound, enclave)
	}
	if err := m.commit(store.KindGuardEnabled, guardRecord{Enclave: enclave, Policy: policy}, func() { m.applyGuard(enclave, policy) }); err != nil {
		return fmt.Errorf("core: persist guard policy: %w", err)
	}
	return nil
}

// Guard returns the guard attached to an enclave, if any.
func (m *Manager) Guard(enclave string) (GuardController, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.guards[enclave]
	return g, ok
}

// DetachGuard unregisters and stops an enclave's guard. It reports
// whether a guard was attached.
func (m *Manager) DetachGuard(enclave string) bool {
	m.commitMu.Lock()
	g, ok := m.guards[enclave]
	if _, recorded := m.guardPolicies[enclave]; ok || recorded {
		// Best-effort: a lost detach record means a restart re-enables a
		// guard the tenant turned off — safe (over-guarding), and the
		// tenant's detach is replayable. The guard goes either way.
		_ = m.appendRecord(store.KindGuardDetached, enclaveNameRecord{Enclave: enclave})
	}
	m.mu.Lock()
	m.applyGuard(enclave, nil)
	delete(m.guards, enclave)
	m.mu.Unlock()
	m.commitMu.Unlock()
	if ok {
		g.Stop()
	}
	return ok
}

// OpenIncident records a new incident against an enclave and returns
// it. The guard opens one per revocation; revocations on unguarded
// enclaves are recorded as unhandled incidents automatically.
func (m *Manager) OpenIncident(enclave, node, reason string) *Incident {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	return m.commitIncident(IncidentStatus{
		ID:      fmt.Sprintf(incIDPrefix+"%04d", m.incSeq+1),
		Enclave: enclave,
		Node:    node,
		Reason:  reason,
		State:   IncidentDetected,
		Opened:  time.Now(),
	})
}

// noteIncidentUpdate commits one change to an incident and folds it in.
// change edits the incident's next status; a terminal incident takes no
// further change. The update is one mutation, so the replayable feed
// follows the log.
func (m *Manager) noteIncidentUpdate(inc *Incident, change func(*IncidentStatus)) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	st := inc.Status()
	if st.State.Terminal() {
		return
	}
	change(&st)
	m.commitIncident(st)
}

// commitIncident commits an incident status, then applies it. A status
// that cannot commit is applied all the same: an incident update is a
// security signal, and availability wins over durability for it. Callers
// hold m.commitMu.
func (m *Manager) commitIncident(st IncidentStatus) *Incident {
	_ = m.appendRecord(store.KindIncidentUpdate, st)
	m.cloud.metrics.observeIncident(st)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyIncidentUpdate(st)
}

// applyIncidentUpdate folds an incident-update record: a new incident
// joins the registry, and the oldest terminal incidents beyond
// MaxRetainedIncidents are forgotten; the status becomes the incident's
// own and the next entry of the replayable feed, which keeps its newest
// maxIncidentFeed entries. Every update wakes the feed's streamers. The
// record's id parses (replay checks it when decoding). Callers hold m.mu.
func (m *Manager) applyIncidentUpdate(st IncidentStatus) *Incident {
	inc, known := m.incidents[st.ID]
	if !known {
		seq, _ := idSeq(st.ID, incIDPrefix)
		m.incSeq = max(m.incSeq, seq)
		inc = &Incident{ID: st.ID, Enclave: st.Enclave, Node: st.Node, Reason: st.Reason, Opened: st.Opened, m: m, done: make(chan struct{})}
		m.incidents[st.ID] = inc
		m.incOrder = append(m.incOrder, inc)
		keep := m.incOrder[:0]
		over := len(m.incOrder) - MaxRetainedIncidents
		for _, old := range m.incOrder {
			if over > 0 && old.State().Terminal() {
				delete(m.incidents, old.ID)
				over--
				continue
			}
			keep = append(keep, old)
		}
		m.incOrder = keep
	}
	inc.set(st)
	m.incFeed.add(st)
	return inc
}

// Incident returns a tracked incident by ID.
func (m *Manager) Incident(id string) (*Incident, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inc, ok := m.incidents[id]
	if !ok {
		return nil, fmt.Errorf("%w: incident %q", ErrNotFound, id)
	}
	return inc, nil
}

// ListIncidents returns every tracked incident, oldest first (incOrder
// is kept in creation order, so nothing is sorted under m.mu). With a
// non-empty enclave it returns only that enclave's incidents.
func (m *Manager) ListIncidents(enclave string) []*Incident {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Incident, 0, len(m.incOrder))
	for _, inc := range m.incOrder {
		if enclave == "" || inc.Enclave == enclave {
			out = append(out, inc)
		}
	}
	return out
}

// OpenIncidentIDs returns the IDs of an enclave's non-terminal
// incidents, oldest first — what the /v1 enclave resource surfaces so
// tooling can branch on "incident open". Every GET of an enclave runs
// it, so it walks the order in place and builds nothing when all is well.
func (m *Manager) OpenIncidentIDs(enclave string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, inc := range m.incOrder {
		if (enclave == "" || inc.Enclave == enclave) && !inc.State().Terminal() {
			out = append(out, inc.ID)
		}
	}
	return out
}

// IncidentUpdatesSince returns incident-status updates past the
// absolute cursor, a channel that closes on the next update, and the
// cursor to resume from. A streamer loops: emit, advance, wait.
func (m *Manager) IncidentUpdatesSince(cursor int) ([]IncidentStatus, <-chan struct{}, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.incFeed.since(cursor)
}

// noteRevocation is the manager's subscription to an enclave verifier's
// revocation fan-out: append to the enclave's replayable feed, then
// route to the enclave's guard — or record an unhandled incident when
// no guard is enabled, so a remote tenant still finds out.
func (m *Manager) noteRevocation(enclave string, ev keylime.RevocationEvent) {
	m.commitMu.Lock()
	// Same durability stance as incident updates: commit first so the
	// replayable feed survives a crash, but never let a full disk stop a
	// revocation from reaching the guard.
	_ = m.appendRecord(store.KindRevocation, revocationRecord{Enclave: enclave, UUID: ev.UUID, Reason: ev.Reason, At: ev.At})
	m.mu.Lock()
	m.applyRevocation(enclave, ev)
	m.mu.Unlock()
	g := m.guards[enclave]
	m.commitMu.Unlock()

	if g != nil {
		g.HandleRevocation(ev)
		return
	}
	inc := m.OpenIncident(enclave, ev.UUID, ev.Reason)
	inc.Close(IncidentUnhandled, "no guard enabled; no automated response")
}

// applyRevocation folds a revocation record: the event joins its enclave's
// replayable feed, which keeps its newest maxRevFeed events, and wakes the
// feed's streamers. Callers hold m.mu.
func (m *Manager) applyRevocation(enclave string, ev keylime.RevocationEvent) {
	m.revFeed(enclave).add(ev)
}

// revFeed returns an enclave's revocation feed, creating it empty.
// Callers hold m.mu.
func (m *Manager) revFeed(enclave string) *feed[keylime.RevocationEvent] {
	f := m.revFeeds[enclave]
	if f == nil {
		f = newFeed[keylime.RevocationEvent](maxRevFeed, nil, 0)
		m.revFeeds[enclave] = f
	}
	return f
}

// RevocationsSince returns an enclave's revocation events past the
// absolute cursor, a channel that closes when a new one arrives, and
// the cursor to resume from — the wire equivalent of
// Verifier.Subscribe for tenants on the far side of a boltedd. A
// cursor older than the pruned feed resumes at the feed's base.
func (m *Manager) RevocationsSince(enclave string, cursor int) ([]keylime.RevocationEvent, <-chan struct{}, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.enclaves[enclave]; !ok || m.deleting[enclave] {
		return nil, nil, 0, fmt.Errorf("%w: enclave %q", ErrNotFound, enclave)
	}
	evs, notify, next := m.revFeed(enclave).since(cursor)
	return evs, notify, next, nil
}
