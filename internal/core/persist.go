package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bolted/internal/keylime"
	"bolted/internal/obs"
	"bolted/internal/store"
)

// This file is the durable half of the control plane: every Manager
// mutation — enclave create/delete, quotas, pool and guard policies,
// operation begin/end, incident updates, revocations, and every lifecycle
// journal event — commits to a store.Store before it is acknowledged, and
// Recover rebuilds a Manager from the snapshot+WAL after a restart.
//
// Recovery follows the paper's §5/§7.4 primitive: a node's trustworthiness
// is re-established by a fresh attestation quote, never by trusting
// recorded state. Replaying the log tells us which nodes the control plane
// *held*; whether it may keep them is decided by re-running the acquisition
// pipeline (fresh-nonce re-quote against the whitelist) per node. Distrust,
// by contrast, does survive a restart verbatim: recorded Rejected and
// Quarantined nodes come back rejected and quarantined with no new quote.

// Record payloads. The store treats these as opaque JSON; core owns the
// schema so store never imports core.

type enclaveRecord struct {
	Name    string  `json:"name"`
	Profile Profile `json:"profile"`
}

type eventRecord struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   EventKind `json:"kind"`
	Node   string    `json:"node,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

func toEventRecord(ev Event) eventRecord {
	return eventRecord{Seq: ev.Seq, At: ev.At, Kind: ev.Kind, Node: ev.Node, Detail: ev.Detail}
}

func (r eventRecord) event() Event {
	return Event{Seq: r.Seq, At: r.At, Kind: r.Kind, Node: r.Node, Detail: r.Detail}
}

type journalEventRecord struct {
	Enclave string `json:"enclave"`
	eventRecord
}

type quotaRecord struct {
	Tenant string      `json:"tenant"`
	Quota  TenantQuota `json:"quota"`
}

type tenantRecord struct {
	Tenant string `json:"tenant"`
}

type poolRecord struct {
	Enclave string     `json:"enclave"`
	Policy  PoolPolicy `json:"policy"`
}

type enclaveNameRecord struct {
	Enclave string `json:"enclave"`
}

type guardRecord struct {
	Enclave string          `json:"enclave"`
	Policy  json.RawMessage `json:"policy,omitempty"`
}

type opStartedRecord struct {
	ID      string    `json:"id"`
	Enclave string    `json:"enclave"`
	Image   string    `json:"image"`
	Count   int       `json:"count"`
	Created time.Time `json:"created"`
	IdemKey string    `json:"idem_key,omitempty"`
}

type opFinishedRecord struct {
	ID       string    `json:"id"`
	Phase    OpPhase   `json:"phase"`
	Error    string    `json:"error,omitempty"`
	Finished time.Time `json:"finished"`
}

type revocationRecord struct {
	Enclave string    `json:"enclave"`
	UUID    string    `json:"uuid"`
	Reason  string    `json:"reason"`
	At      time.Time `json:"at"`
}

// Snapshot schema: the full control-plane state a Compact captures, so a
// restart replays only the WAL tail written since.

type enclaveSnapshot struct {
	Name     string          `json:"name"`
	Profile  Profile         `json:"profile"`
	Events   []eventRecord   `json:"events,omitempty"`
	WatchSeq int             `json:"watch_seq,omitempty"`
	Pool     *PoolPolicy     `json:"pool,omitempty"`
	Guard    json.RawMessage `json:"guard,omitempty"`
}

type opSnapshot struct {
	opStartedRecord
	Terminal bool      `json:"terminal,omitempty"`
	Phase    OpPhase   `json:"phase,omitempty"`
	Error    string    `json:"error,omitempty"`
	Finished time.Time `json:"finished,omitzero"`

	seq int // parsed from ID at replay; not part of the schema
}

type revFeedSnapshot struct {
	Base   int                       `json:"base"`
	Events []keylime.RevocationEvent `json:"events,omitempty"`
}

type managerSnapshot struct {
	Enclaves    []enclaveSnapshot          `json:"enclaves,omitempty"`
	Quotas      map[string]TenantQuota     `json:"quotas,omitempty"`
	Ops         []opSnapshot               `json:"ops,omitempty"`
	OpSeq       int                        `json:"op_seq,omitempty"`
	Idem        map[string]string          `json:"idem,omitempty"`
	Incidents   []IncidentStatus           `json:"incidents,omitempty"`
	IncSeq      int                        `json:"inc_seq,omitempty"`
	IncFeed     []IncidentStatus           `json:"inc_feed,omitempty"`
	IncFeedBase int                        `json:"inc_feed_base,omitempty"`
	RevFeeds    map[string]revFeedSnapshot `json:"rev_feeds,omitempty"`
}

// PolicyReporter is implemented by guards whose policy should survive a
// restart (internal/guard's Guard). AttachGuard persists the reported
// policy; Recover hands it back via RecoveredGuardPolicies so the guard
// package can re-enable without core importing it.
type PolicyReporter interface {
	PolicyJSON() (json.RawMessage, error)
}

// NewManagerWithStore builds a control plane that commits every mutation to
// st before acknowledging it. A nil store behaves like NewManager (no
// durability). The store is used as-is: call Recover before serving if it
// holds prior state.
func NewManagerWithStore(c *Cloud, st store.Store) *Manager {
	m := NewManager(c)
	if st != nil {
		m.store = st
		// A store that can instrument itself (store.File) records WAL
		// and snapshot latencies into the cloud's registry. Attach the
		// registry (Cloud.SetMetrics) before building the manager.
		if si, ok := st.(interface{ SetMetrics(*obs.Registry) }); ok {
			si.SetMetrics(c.Metrics())
		}
	}
	return m
}

// appendRecord marshals payload and commits one record. The nil return is
// the commit point: callers acknowledge the mutation only after it.
func (m *Manager) appendRecord(kind store.Kind, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("core: encode %s record: %w", kind, err)
	}
	return m.store.Append(store.Record{Kind: kind, At: time.Now(), Data: data})
}

// attachJournalPersist routes an enclave's journal through the store:
// every lifecycle event is staged (in journal order, under the journal
// lock) before it is fanned out to watchers and streams. Events use the
// buffered append — one fsync at the next acknowledgment boundary (an
// operation's op-finished record, or the store sync Journal.LinesSince
// runs before a /v1 feed read) covers the whole run of events, instead of
// one fsync per lifecycle transition. A client can still never hold a feed
// cursor for an event that would not survive a crash: every event a tenant
// reads (and every cursor it hands back) names durable history.
func (m *Manager) attachJournalPersist(name string, e *Enclave) {
	e.journal.setPersist(func(ev Event) error {
		data, err := json.Marshal(journalEventRecord{Enclave: name, eventRecord: toEventRecord(ev)})
		if err != nil {
			return fmt.Errorf("core: encode %s record: %w", store.KindJournalEvent, err)
		}
		return m.store.AppendBuffered(store.Record{Kind: store.KindJournalEvent, At: time.Now(), Data: data})
	}, m.store.Sync)
}

// RecoverReport summarizes what Recover did, node by node.
type RecoverReport struct {
	// Enclaves is how many enclaves were rebuilt.
	Enclaves int
	// Readopted lists nodes re-quoted back into their recorded state
	// ("enclave/node"), Allocated members and Warm standbys alike.
	Readopted []string
	// Rejected lists recorded nodes whose fresh re-quote failed; they sit
	// in the provider's rejected pool.
	Rejected []string
	// Quarantined lists nodes restored directly into quarantine (distrust
	// needs no fresh quote).
	Quarantined []string
	// Interrupted lists operations that were in flight at the crash, now
	// terminal with phase OpInterrupted.
	Interrupted []string
	// Released lists recorded in-flight nodes (mid-pipeline at the crash)
	// released back to the free pool.
	Released []string
}

// replayNode is one node's state as derived from the enclave's journal.
type replayNode struct {
	state  NodeState
	image  string // tenant image, for member re-adoption
	detail string // last transition detail (quarantine/rejection reason)
}

// stateReserved marks a node between EvAllocated and its first lifecycle
// transition — held, but not yet anywhere in Figure 1. Replay-internal.
const stateReserved NodeState = "reserved"

// replayEnclave accumulates one enclave's recorded state during replay.
type replayEnclave struct {
	name      string
	profile   Profile
	events    []Event
	watchSeq  int
	pool      *PoolPolicy
	guard     json.RawMessage
	nodes     map[string]*replayNode
	lastImage string // image of the most recent acquisition, WAL order
}

func (re *replayEnclave) node(name string) *replayNode {
	if re.nodes == nil {
		re.nodes = make(map[string]*replayNode)
	}
	n, ok := re.nodes[name]
	if !ok {
		n = &replayNode{}
		re.nodes[name] = n
	}
	return n
}

// applyEvent folds one journal event into the node-state derivation.
func (re *replayEnclave) applyEvent(ev Event) {
	re.events = append(re.events, ev)
	if ev.Node == "" {
		return
	}
	switch ev.Kind {
	case EvAllocated:
		n := re.node(ev.Node)
		n.state = stateReserved
		n.detail = ev.Detail
		if img, ok := strings.CutPrefix(ev.Detail, "image="); ok {
			n.image = img
		} else if img, ok := strings.CutPrefix(ev.Detail, "readopt image="); ok {
			n.image = img
		}
	case EvReleased:
		delete(re.nodes, ev.Node)
	default:
		state, ok := eventState[ev.Kind]
		if !ok {
			return // not a lifecycle transition (attested, recovered, ...)
		}
		n := re.node(ev.Node)
		n.state = state
		switch state {
		case StateAllocated:
			if n.image == "" {
				n.image = re.lastImage
			}
		case StateRejected, StateQuarantined:
			n.detail = ev.Detail
		}
	}
}

// replayState is the full control plane as derived from snapshot+WAL.
type replayState struct {
	order    []string // enclave creation order
	enclaves map[string]*replayEnclave
	quotas   map[string]TenantQuota
	ops      []*opSnapshot
	opByID   map[string]*opSnapshot
	opSeq    int
	idem     map[string]string
	incident map[string]IncidentStatus // latest status per incident
	incOrder []string
	incSeq   int
	incFeed  []IncidentStatus
	incBase  int
	revFeeds map[string]*revFeedSnapshot
}

func newReplayState() *replayState {
	return &replayState{
		enclaves: make(map[string]*replayEnclave),
		quotas:   make(map[string]TenantQuota),
		opByID:   make(map[string]*opSnapshot),
		idem:     make(map[string]string),
		incident: make(map[string]IncidentStatus),
		revFeeds: make(map[string]*revFeedSnapshot),
	}
}

func (rs *replayState) enclave(name string) *replayEnclave {
	re, ok := rs.enclaves[name]
	if !ok {
		re = &replayEnclave{name: name}
		rs.enclaves[name] = re
		rs.order = append(rs.order, name)
	}
	return re
}

func (rs *replayState) dropEnclave(name string) {
	delete(rs.enclaves, name)
	for i, n := range rs.order {
		if n == name {
			rs.order = append(rs.order[:i:i], rs.order[i+1:]...)
			break
		}
	}
}

func (rs *replayState) loadSnapshot(raw json.RawMessage) error {
	var snap managerSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	for _, es := range snap.Enclaves {
		re := rs.enclave(es.Name)
		re.profile = es.Profile
		re.watchSeq = es.WatchSeq
		re.pool = es.Pool
		re.guard = es.Guard
		for _, er := range es.Events {
			re.applyEvent(er.event())
		}
	}
	for t, q := range snap.Quotas {
		rs.quotas[t] = q
	}
	for _, os := range snap.Ops {
		cp := os
		seq, err := idSeq(cp.ID, opIDPrefix)
		if err != nil {
			return err
		}
		cp.seq = seq
		rs.ops = append(rs.ops, &cp)
		rs.opByID[cp.ID] = &cp
		if cp.IdemKey != "" {
			rs.idem[cp.IdemKey] = cp.ID
		}
		if re, ok := rs.enclaves[cp.Enclave]; ok && cp.Image != "" {
			re.lastImage = cp.Image
		}
	}
	rs.opSeq = snap.OpSeq
	for k, id := range snap.Idem {
		rs.idem[k] = id
	}
	for _, st := range snap.Incidents {
		rs.incident[st.ID] = st
		rs.incOrder = append(rs.incOrder, st.ID)
	}
	rs.incSeq = snap.IncSeq
	rs.incFeed = append(rs.incFeed, snap.IncFeed...)
	rs.incBase = snap.IncFeedBase
	for name, f := range snap.RevFeeds {
		cp := f
		rs.revFeeds[name] = &cp
	}
	return nil
}

// Generated ids are a prefix and a zero-padded sequence number.
const (
	opIDPrefix  = "op-"
	incIDPrefix = "inc-"
)

// idSeq parses the sequence number out of a generated id ("op-0042" is 42).
func idSeq(id, prefix string) (int, error) {
	digits, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, fmt.Errorf("core: recorded id %q lacks the %q prefix", id, prefix)
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return 0, fmt.Errorf("core: recorded id %q: %w", id, err)
	}
	return n, nil
}

// A foldFunc applies one decoded record to the replay state. Replay is two
// stages: decodeRecord is pure — it touches nothing but its record, so every
// record of the log decodes concurrently — and the foldFuncs it returns run
// one after another in log order.
type foldFunc func(*replayState)

// decodeAs unmarshals a record payload as a T and binds it to its fold step.
func decodeAs[T any](data json.RawMessage, fold func(*replayState, T)) (foldFunc, error) {
	var r T
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return func(rs *replayState) { fold(rs, r) }, nil
}

// decodeRecord parses one WAL record into its fold step (nil for a kind this
// version does not know).
func decodeRecord(rec store.Record) (foldFunc, error) {
	switch rec.Kind {
	case store.KindEnclaveCreated:
		return decodeAs(rec.Data, func(rs *replayState, r enclaveRecord) {
			rs.enclave(r.Name).profile = r.Profile
		})
	case store.KindEnclaveDeleted:
		return decodeAs(rec.Data, func(rs *replayState, r enclaveNameRecord) {
			rs.dropEnclave(r.Enclave)
			delete(rs.revFeeds, r.Enclave)
		})
	case store.KindJournalEvent:
		return decodeAs(rec.Data, func(rs *replayState, r journalEventRecord) {
			if re, ok := rs.enclaves[r.Enclave]; ok {
				re.applyEvent(r.event())
			}
		})
	case store.KindQuotaSet:
		return decodeAs(rec.Data, func(rs *replayState, r quotaRecord) {
			rs.quotas[r.Tenant] = r.Quota
		})
	case store.KindQuotaDeleted:
		return decodeAs(rec.Data, func(rs *replayState, r tenantRecord) {
			delete(rs.quotas, r.Tenant)
		})
	case store.KindPoolConfigured:
		return decodeAs(rec.Data, func(rs *replayState, r poolRecord) {
			if re, ok := rs.enclaves[r.Enclave]; ok {
				re.pool = &r.Policy
			}
		})
	case store.KindPoolDetached:
		return decodeAs(rec.Data, func(rs *replayState, r enclaveNameRecord) {
			if re, ok := rs.enclaves[r.Enclave]; ok {
				re.pool = nil
			}
		})
	case store.KindGuardEnabled:
		return decodeAs(rec.Data, func(rs *replayState, r guardRecord) {
			if re, ok := rs.enclaves[r.Enclave]; ok {
				re.guard = r.Policy
			}
		})
	case store.KindGuardDetached:
		return decodeAs(rec.Data, func(rs *replayState, r enclaveNameRecord) {
			if re, ok := rs.enclaves[r.Enclave]; ok {
				re.guard = nil
			}
		})
	case store.KindOpStarted:
		var os opSnapshot
		if err := json.Unmarshal(rec.Data, &os.opStartedRecord); err != nil {
			return nil, err
		}
		var err error
		if os.seq, err = idSeq(os.ID, opIDPrefix); err != nil {
			return nil, err
		}
		return func(rs *replayState) {
			rs.ops = append(rs.ops, &os)
			rs.opByID[os.ID] = &os
			if os.IdemKey != "" {
				rs.idem[os.IdemKey] = os.ID
			}
			rs.opSeq = max(rs.opSeq, os.seq)
			if re, ok := rs.enclaves[os.Enclave]; ok && os.Image != "" {
				re.lastImage = os.Image
			}
		}, nil
	case store.KindOpFinished:
		return decodeAs(rec.Data, func(rs *replayState, r opFinishedRecord) {
			if os, ok := rs.opByID[r.ID]; ok {
				os.Terminal = true
				os.Phase = r.Phase
				os.Error = r.Error
				os.Finished = r.Finished
			}
		})
	case store.KindIncidentUpdate:
		var st IncidentStatus
		if err := json.Unmarshal(rec.Data, &st); err != nil {
			return nil, err
		}
		seq, err := idSeq(st.ID, incIDPrefix)
		if err != nil {
			return nil, err
		}
		return func(rs *replayState) {
			if _, ok := rs.incident[st.ID]; !ok {
				rs.incOrder = append(rs.incOrder, st.ID)
			}
			rs.incident[st.ID] = st
			rs.incFeed = append(rs.incFeed, st)
			rs.incSeq = max(rs.incSeq, seq)
		}, nil
	case store.KindRevocation:
		return decodeAs(rec.Data, func(rs *replayState, r revocationRecord) {
			f, ok := rs.revFeeds[r.Enclave]
			if !ok {
				f = &revFeedSnapshot{}
				rs.revFeeds[r.Enclave] = f
			}
			f.Events = append(f.Events, keylime.RevocationEvent{UUID: r.UUID, Reason: r.Reason, At: r.At})
		})
	}
	return nil, nil
}

// replay folds the WAL records onto the state, in log order. A record that
// does not decode fails the whole replay, named by the first such record.
func (rs *replayState) replay(recs []store.Record) error {
	folds := make([]foldFunc, len(recs))
	if _, err := store.Parallel(len(recs), func(i int) (err error) {
		if folds[i], err = decodeRecord(recs[i]); err != nil {
			return fmt.Errorf("core: replay %s record: %w", recs[i].Kind, err)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, fold := range folds {
		if fold != nil {
			fold(rs)
		}
	}
	return nil
}

// Recover rebuilds the control plane from the store: load snapshot+WAL,
// re-create every recorded enclave over the (fresh) cloud, restore journals
// with their sequence numbers so feed cursors survive, restore quotas,
// operations (in-flight ones become OpInterrupted), incidents and
// revocation feeds, restart warm pools from their persisted policies — and
// then re-adopt recorded nodes by re-quoting them into their recorded
// states. It must run before the manager serves traffic.
func (m *Manager) Recover(ctx context.Context) (*RecoverReport, error) {
	t0 := time.Now()
	snap, recs, err := m.store.Load()
	if err != nil {
		return nil, fmt.Errorf("core: load store: %w", err)
	}
	rs := newReplayState()
	if snap != nil {
		if err := rs.loadSnapshot(snap.State); err != nil {
			return nil, err
		}
	}
	if err := rs.replay(recs); err != nil {
		return nil, err
	}

	rep := &RecoverReport{}

	// Control-plane scalars and registries first, under one lock.
	m.mu.Lock()
	for t, q := range rs.quotas {
		m.quotas[t] = q
	}
	if rs.opSeq > m.opSeq {
		m.opSeq = rs.opSeq
	}
	for k, id := range rs.idem {
		m.idem[k] = id
	}
	for _, os := range rs.ops {
		phase, errMsg, finished := os.Phase, os.Error, os.Finished
		if !os.Terminal {
			phase = OpInterrupted
			errMsg = "operation interrupted by control-plane restart; partially-held nodes were released"
			finished = time.Now()
			rep.Interrupted = append(rep.Interrupted, os.ID)
		}
		op := newRestoredOperation(os.ID, os.Enclave, os.Image, os.Count, os.Created, phase, errMsg, finished)
		op.seq = os.seq
		m.ops[op.ID] = op
		m.opOrder = append(m.opOrder, op)
		m.byencl[os.Enclave] = append(m.byencl[os.Enclave], op)
	}
	for _, id := range rs.incOrder {
		inc, err := restoreIncident(rs.incident[id], m.noteIncidentUpdate)
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
		m.incidents[id] = inc
		m.incOrder = append(m.incOrder, inc)
	}
	if rs.incSeq > m.incSeq {
		m.incSeq = rs.incSeq
	}
	m.incFeed = append(m.incFeed, rs.incFeed...)
	m.incFeedBase = rs.incBase
	if over := len(m.incFeed) - maxIncidentFeed; over > 0 {
		m.incFeed = append([]IncidentStatus(nil), m.incFeed[over:]...)
		m.incFeedBase += over
	}
	for name, f := range rs.revFeeds {
		m.revFeeds[name] = &revFeed{
			events: append([]keylime.RevocationEvent(nil), f.Events...),
			base:   f.Base,
			notify: make(chan struct{}),
		}
		if over := len(m.revFeeds[name].events) - maxRevFeed; over > 0 {
			m.revFeeds[name].events = append([]keylime.RevocationEvent(nil), m.revFeeds[name].events[over:]...)
			m.revFeeds[name].base += over
		}
	}
	m.mu.Unlock()

	// An incident whose response was in flight at the crash has lost its
	// responder (the guard restarts from policy, but its queued work died
	// with the process): close it explicitly rather than leaving a
	// never-terminal incident.
	for _, inc := range m.ListIncidents("") {
		if !inc.State().Terminal() {
			inc.Close(IncidentUnhandled, "control-plane restart interrupted the response")
		}
	}

	replayed := time.Now()
	m.cloud.metrics.recoveryReplaySeconds.Set(replayed.Sub(t0).Seconds())

	// Rebuild enclaves in creation order, then re-adopt their nodes, every
	// enclave's at once.
	restored := make([]*Enclave, len(rs.order))
	for i, name := range rs.order {
		e, err := m.restoreEnclave(name, rs.enclaves[name])
		if err != nil {
			return nil, fmt.Errorf("core: restore enclave %q: %w", name, err)
		}
		restored[i] = e
	}
	rep.Enclaves = len(restored)
	ro := &readoption{rep: rep, sem: make(chan struct{}, DefaultBatchParallelism)}
	for i, e := range restored {
		m.readoptNodes(ctx, e, rs.enclaves[rs.order[i]], ro)
	}
	ro.requotes.Wait()
	// Re-adoption done (recorded standbys parked): let the refillers top up
	// or shed toward the restored targets. Not before — a refiller takes any
	// free node, and a node another enclave's log records is free until that
	// enclave has re-adopted it.
	for _, e := range restored {
		e.resumePool()
	}

	sort.Strings(rep.Readopted)
	sort.Strings(rep.Rejected)
	sort.Strings(rep.Quarantined)
	sort.Strings(rep.Released)
	m.cloud.metrics.recoveryReadoptSeconds.Set(time.Since(replayed).Seconds())
	m.cloud.metrics.recoveredEnclave.Set(float64(rep.Enclaves))
	return rep, nil
}

// restoreEnclave re-creates one recorded enclave over the fresh cloud:
// project, network, verifier, restored journal (events, seqs, watcher-id
// seed) with the persist hook re-attached, warm pool from its persisted
// policy, and the recovered guard policy parked for RecoveredGuardPolicies.
func (m *Manager) restoreEnclave(name string, re *replayEnclave) (*Enclave, error) {
	e, err := NewEnclave(m.cloud, name, re.profile)
	if err != nil {
		return nil, err
	}
	// Watcher-id seed: at least the checkpointed value, floored at the
	// event count — registrations never outnumber events, so an id handed
	// out before the crash can never be reissued even when only the WAL
	// tail (no checkpoint) survived.
	watchSeq := re.watchSeq
	if n := len(re.events); n > watchSeq {
		watchSeq = n
	}
	e.journal.restore(re.events, watchSeq)
	m.attachJournalPersist(name, e)
	m.mu.Lock()
	m.enclaves[name] = e
	if v := e.Verifier(); v != nil {
		m.revUnsubs[name] = v.Subscribe(func(ev keylime.RevocationEvent) {
			m.noteRevocation(name, ev)
		})
	}
	if re.guard != nil {
		m.guardPolicies[name] = append(json.RawMessage(nil), re.guard...)
	}
	m.mu.Unlock()
	if re.pool != nil {
		// Start the pool held: its refiller must not race readoptNodes for
		// the very nodes the WAL records as this pool's standbys. Recover
		// resumes it once re-adoption has parked them.
		if err := e.configurePool(*re.pool, true); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// readoption is what the enclaves of one recovery share while their recorded
// nodes are re-adopted side by side.
type readoption struct {
	mu  sync.Mutex // guards rep's lists
	rep *RecoverReport

	requotes sync.WaitGroup // re-adoptions in flight
	sem      chan struct{}  // bounds them, over all enclaves
}

func (ro *readoption) note(list *[]string, e *Enclave, node string) {
	ro.mu.Lock()
	*list = append(*list, e.Project+"/"+node)
	ro.mu.Unlock()
}

// readoptNodes re-establishes every recorded node of one enclave:
//
//   - Allocated members and Warm standbys are re-adopted by re-running the
//     acquisition pipeline — fresh-nonce re-quote against the whitelist; a
//     node that fails lands in the rejected pool exactly like a cold-path
//     phase failure. These run in the background, bounded by ro.sem; the
//     caller waits on ro.requotes.
//   - Quarantined and Rejected nodes are restored as-is: distrust survives
//     a restart without a new quote.
//   - Nodes recorded mid-pipeline (reserved/airlocked/booting/attesting/
//     provisioned) belonged to an operation that is now OpInterrupted;
//     they are released (journalled), never silently kept.
func (m *Manager) readoptNodes(ctx context.Context, e *Enclave, re *replayEnclave, ro *readoption) {
	names := make([]string, 0, len(re.nodes))
	for n := range re.nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		rn := re.nodes[name]
		switch rn.state {
		case StateQuarantined, StateRejected:
			// Distrust is restored verbatim: park the node in the
			// provider's rejected project and reinstate its state, no
			// quote involved.
			e.lc.restore(name, rn.state)
			m.cloud.MarkRejected(e.Project, name, "restored at recovery: "+rn.detail)
			e.journal.record(EvRecovered, name, "restored "+string(rn.state))
			ro.note(&ro.rep.Quarantined, e, name)
		case StateAllocated, StateWarm:
			ro.requotes.Add(1)
			ro.sem <- struct{}{}
			go func() {
				defer ro.requotes.Done()
				defer func() { <-ro.sem }()
				var err error
				if rn.state == StateAllocated {
					err = m.readoptMember(ctx, e, name, rn.image)
				} else {
					err = m.readoptWarm(ctx, e, name)
				}
				if err != nil {
					ro.note(&ro.rep.Rejected, e, name)
					return
				}
				ro.note(&ro.rep.Readopted, e, name)
			}()
		default:
			// Mid-pipeline at the crash: the operation driving it is now
			// interrupted; in the fresh cloud the node is already free —
			// journal the release so the audit trail says where it went.
			e.journal.record(EvReleased, name, "released at recovery: interrupted mid-"+string(rn.state))
			ro.note(&ro.rep.Released, e, name)
		}
	}
}

// readoptMember re-adopts one recorded Allocated member: reserve the same
// named node, then run the full cold pipeline — airlock, boot, fresh-nonce
// attest, provision, admit. The recorded state only nominates the node;
// membership is earned again by the quote.
func (m *Manager) readoptMember(ctx context.Context, e *Enclave, name, image string) error {
	if image == "" {
		e.journal.record(EvReleased, name, "released at recovery: no image recorded")
		return fmt.Errorf("core: node %s has no recorded image", name)
	}
	boot, err := e.cloud.BMI.ExtractBootInfo(ctx, image)
	if err != nil {
		e.journal.record(EvReleased, name, "released at recovery: image "+image+": "+err.Error())
		return err
	}
	if err := e.cloud.HIL.AllocateNode(ctx, e.Project, name); err != nil {
		e.journal.record(EvReleased, name, "released at recovery: "+err.Error())
		return err
	}
	e.journal.record(EvAllocated, name, "readopt image="+image)
	if _, _, fail := e.provisionOne(ctx, name, boot); fail != nil {
		return fail.Err
	}
	e.journal.record(EvRecovered, name, "readopted member image="+image)
	return nil
}

// readoptWarm re-adopts one recorded Warm standby: reserve the same named
// node, drive it through the warm pipeline (airlock, boot, pre-attest with
// a fresh nonce), and park it back in the pool. Without a pool (policy was
// detached before the crash) the node stays free.
func (m *Manager) readoptWarm(ctx context.Context, e *Enclave, name string) error {
	pool := e.warmPool()
	if pool == nil {
		e.journal.record(EvReleased, name, "released at recovery: no warm pool")
		return fmt.Errorf("core: enclave %s has no warm pool for standby %s", e.Project, name)
	}
	if err := e.cloud.HIL.AllocateNode(ctx, e.Project, name); err != nil {
		e.journal.record(EvReleased, name, "released at recovery: "+err.Error())
		return err
	}
	e.journal.record(EvAllocated, name, "warm readopt")
	wn, err := e.warmOne(ctx, name)
	if err != nil {
		e.rejectNode(name, PhaseWarmRefill, err)
		return err
	}
	if !pool.park(wn) {
		e.releaseWarmNode(name, "pool closed during recovery")
		return fmt.Errorf("core: pool closed during recovery")
	}
	e.journal.record(EvRecovered, name, "readopted warm standby")
	return nil
}

// restoreIncident rebuilds an Incident from its last recorded status.
func restoreIncident(st IncidentStatus, onUpdate func(*Incident)) (*Incident, error) {
	// An ID that does not parse fails recovery: the next incident's ID is
	// derived from the ones restored.
	if _, err := idSeq(st.ID, incIDPrefix); err != nil {
		return nil, err
	}
	inc := &Incident{
		ID:       st.ID,
		Enclave:  st.Enclave,
		Node:     st.Node,
		Reason:   st.Reason,
		Opened:   st.Opened,
		onUpdate: onUpdate,
		done:     make(chan struct{}),
		state:    st.State,
		steps:    append([]IncidentStep(nil), st.Steps...),
		closed:   st.Closed,
	}
	if st.State.Terminal() {
		close(inc.done)
	}
	return inc, nil
}

// RecoveredGuardPolicies returns the raw guard policies recovered from the
// store for enclaves that do not currently have a guard attached. The
// guard package (which core cannot import) uses this to re-enable guards
// after Recover.
func (m *Manager) RecoveredGuardPolicies() map[string]json.RawMessage {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]json.RawMessage)
	for name, p := range m.guardPolicies {
		if _, attached := m.guards[name]; !attached {
			out[name] = append(json.RawMessage(nil), p...)
		}
	}
	return out
}

// Checkpoint writes a compacting snapshot of the full control-plane state
// and truncates the WAL. boltedd calls it on graceful shutdown so the next
// start replays a short tail instead of the full history.
func (m *Manager) Checkpoint() error {
	snap := managerSnapshot{
		Quotas:   make(map[string]TenantQuota),
		Idem:     make(map[string]string),
		RevFeeds: make(map[string]revFeedSnapshot),
	}

	for _, name := range m.ListEnclaves() {
		e, err := m.Enclave(name)
		if err != nil {
			continue
		}
		es := enclaveSnapshot{Name: name, Profile: e.Profile}
		for _, ev := range e.journal.Events() {
			es.Events = append(es.Events, toEventRecord(ev))
		}
		_, es.WatchSeq = e.journal.seqs()
		if st, ok := e.PoolStats(); ok {
			p := st.Policy
			es.Pool = &p
		}
		m.mu.Lock()
		if g, ok := m.guardPolicies[name]; ok {
			es.Guard = append(json.RawMessage(nil), g...)
		}
		m.mu.Unlock()
		snap.Enclaves = append(snap.Enclaves, es)
	}

	m.mu.Lock()
	for t, q := range m.quotas {
		snap.Quotas[t] = q
	}
	snap.OpSeq = m.opSeq
	for k, id := range m.idem {
		snap.Idem[k] = id
	}
	ops := append([]*Operation(nil), m.opOrder...)
	snap.IncSeq = m.incSeq
	snap.IncFeed = append([]IncidentStatus(nil), m.incFeed...)
	snap.IncFeedBase = m.incFeedBase
	incs := append([]*Incident(nil), m.incOrder...)
	for name, f := range m.revFeeds {
		snap.RevFeeds[name] = revFeedSnapshot{
			Base:   f.base,
			Events: append([]keylime.RevocationEvent(nil), f.events...),
		}
	}
	m.mu.Unlock()

	for _, op := range ops {
		st := op.Status()
		os := opSnapshot{opStartedRecord: opStartedRecord{
			ID: op.ID, Enclave: op.Enclave, Image: op.Image, Count: op.Count, Created: op.Created,
		}}
		if st.Phase.Terminal() {
			os.Terminal = true
			os.Phase = st.Phase
			os.Finished = st.Finished
			if st.Err != nil {
				os.Error = st.Err.Error()
			}
		}
		snap.Ops = append(snap.Ops, os)
	}
	for _, inc := range incs {
		snap.Incidents = append(snap.Incidents, inc.Status())
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return m.store.Compact(&store.Snapshot{Taken: time.Now(), State: raw})
}

// Close checkpoints the control plane and closes the store. The manager
// must not serve mutations afterwards.
func (m *Manager) Close() error {
	err := m.Checkpoint()
	if cerr := m.store.Close(); err == nil {
		err = cerr
	}
	return err
}
