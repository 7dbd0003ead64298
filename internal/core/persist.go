package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bolted/internal/flatjson"
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
// The manager's state is one fold over its records. Each record kind has
// one apply (applyOpStarted, applyIncidentUpdate, ...), next to the live
// mutation that writes it: live, the record commits, then the apply runs,
// then the caller is answered. Mutations run one at a time under
// m.commitMu, so the log order is the fold order; an apply runs under m.mu,
// which readers take, after the record's fsync. Replay runs the same
// applies on the snapshot and on each record. Every retention rule lives in
// an apply, so it exists once.
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

// A journal event is nearly every frame of a long log, so its payload has a
// codec written for its fixed shape: appendJournalEvent writes and
// readJournalEvent reads exactly the bytes json.Marshal writes for a
// journalEventRecord. Anything else — a string json.Marshal escapes, a time
// AppendText refuses, bytes laid out any other way — goes through
// encoding/json, as every other record kind does.

func encodeJournalEvent(r journalEventRecord) ([]byte, error) {
	if b, ok := appendJournalEvent(make([]byte, 0, 128+len(r.Detail)), r); ok {
		return b, nil
	}
	return json.Marshal(r)
}

func decodeJournalEvent(data []byte) (journalEventRecord, error) {
	if r, ok := readJournalEvent(data); ok {
		return r, nil
	}
	var r journalEventRecord
	err := json.Unmarshal(data, &r)
	return r, err
}

func appendJournalEvent(dst []byte, r journalEventRecord) ([]byte, bool) {
	w := flatjson.NewWriter(dst)
	w.Literal(`{"enclave":`)
	w.String(r.Enclave)
	w.Literal(`,"seq":`)
	w.Uint(r.Seq)
	w.Literal(`,"at":`)
	w.Time(r.At)
	w.Literal(`,"kind":`)
	w.String(string(r.Kind))
	if r.Node != "" {
		w.Literal(`,"node":`)
		w.String(r.Node)
	}
	if r.Detail != "" {
		w.Literal(`,"detail":`)
		w.String(r.Detail)
	}
	w.Literal(`}`)
	return w.Bytes()
}

func readJournalEvent(p []byte) (journalEventRecord, bool) {
	var r journalEventRecord
	rd := flatjson.NewReader(p)
	rd.Literal(`{"enclave":`)
	r.Enclave = rd.String()
	rd.Literal(`,"seq":`)
	r.Seq = rd.Uint()
	rd.Literal(`,"at":`)
	r.At = rd.Time()
	rd.Literal(`,"kind":`)
	r.Kind = EventKind(rd.String())
	if rd.Optional(`,"node":`) {
		r.Node = rd.String()
	}
	if rd.Optional(`,"detail":`) {
		r.Detail = rd.String()
	}
	rd.Literal(`}`)
	return r, rd.End()
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
	Name    string          `json:"name"`
	Profile Profile         `json:"profile"`
	Events  []eventRecord   `json:"events,omitempty"`
	Pool    *PoolPolicy     `json:"pool,omitempty"`
	Guard   json.RawMessage `json:"guard,omitempty"`
}

type opSnapshot struct {
	opStartedRecord
	Terminal bool      `json:"terminal,omitempty"`
	Phase    OpPhase   `json:"phase,omitempty"`
	Error    string    `json:"error,omitempty"`
	Finished time.Time `json:"finished,omitzero"`
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

// commit commits one record and, once it is durable, applies it under
// m.mu. Callers hold m.commitMu, so the log order is the apply order. A
// record that does not commit is not applied.
func (m *Manager) commit(kind store.Kind, payload any, apply func()) error {
	if err := m.appendRecord(kind, payload); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	apply()
	return nil
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
		data, err := encodeJournalEvent(journalEventRecord{Enclave: name, eventRecord: toEventRecord(ev)})
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
	// Rejected lists recorded nodes whose walk back failed; they sit in
	// the provider's rejected pool.
	Rejected []string
	// Quarantined lists nodes restored directly into quarantine (distrust
	// needs no fresh quote).
	Quarantined []string
	// Interrupted lists operations that were in flight at the crash, now
	// terminal with phase OpInterrupted.
	Interrupted []string
	// Released lists recorded nodes returned to the free pool instead of
	// re-adopted ("enclave/node").
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

// journalRoom is the capacity a recovered journal of n events is allocated
// with, once: the fold appends the n into it, the restored journal keeps it,
// and what is left over holds the events recovery itself records and the
// live journal's next growth — a quarter more, as append would grow a slice
// this long — so no one copies the history again.
func journalRoom(n int) int { return n + n/4 + 64 }

// replayEnclave accumulates one enclave's recorded state during replay.
type replayEnclave struct {
	name      string
	profile   Profile
	events    []Event
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

// replay is what a recovery folds beside the manager's own state: the
// recorded enclave set, in creation order, each enclave with its journal
// and the node states it derives. The enclaves themselves are rebuilt from
// it once the fold is done.
type replay struct {
	m        *Manager
	order    []string
	enclaves map[string]*replayEnclave
	counts   map[string]int // journal events recorded per enclave name, snapshot and log
}

func (rp *replay) enclave(name string) *replayEnclave {
	re, ok := rp.enclaves[name]
	if !ok {
		re = &replayEnclave{name: name, events: make([]Event, 0, journalRoom(rp.counts[name]))}
		rp.enclaves[name] = re
		rp.order = append(rp.order, name)
	}
	return re
}

// loadSnapshot folds a checkpoint through the same applies as the records.
func (rp *replay) loadSnapshot(snap *managerSnapshot) error {
	m := rp.m
	for _, es := range snap.Enclaves {
		rp.enclave(es.Name).profile = es.Profile
		m.applyPool(es.Name, es.Pool)
		m.applyGuard(es.Name, es.Guard)
	}
	// Operations and journal events fold interleaved by timestamp: each
	// operation folds after the events stamped before its Created and
	// before the rest, so a member that joined from the warm pool takes
	// its image from the acquisition it joined. The snapshot keeps no
	// log positions, so this is the log's order only approximately: an
	// event stamped between an operation's Created and its record's
	// commit, or across a backward clock step, folds on the other side
	// of that operation, and a warm join there can take a different
	// acquisition's image than a WAL-only replay gives it.
	next := make([]int, len(snap.Enclaves)) // per enclave: first unfolded event
	foldEvents := func(before time.Time, all bool) {
		for i, es := range snap.Enclaves {
			re := rp.enclaves[es.Name]
			for ; next[i] < len(es.Events) && (all || es.Events[next[i]].At.Before(before)); next[i]++ {
				re.applyEvent(es.Events[next[i]].event())
			}
		}
	}
	for t, q := range snap.Quotas {
		m.applyQuota(t, &q)
	}
	keyOf := make(map[string]string, len(snap.Idem)) // op ID -> its idempotency key
	for k, id := range snap.Idem {
		keyOf[id] = k
	}
	for _, os := range snap.Ops {
		seq, err := idSeq(os.ID, opIDPrefix)
		if err != nil {
			return err
		}
		if k, ok := keyOf[os.ID]; ok {
			os.IdemKey = k
		}
		foldEvents(os.Created, false)
		rp.opStarted(os.opStartedRecord, seq)
		if os.Terminal {
			m.applyOpFinished(opFinishedRecord{ID: os.ID, Phase: os.Phase, Error: os.Error, Finished: os.Finished}, nil, errorOf(os.Error))
		}
	}
	foldEvents(time.Time{}, true)
	m.opSeq = max(m.opSeq, snap.OpSeq)
	for _, st := range snap.Incidents {
		if _, err := idSeq(st.ID, incIDPrefix); err != nil {
			return err
		}
		m.applyIncidentUpdate(st)
	}
	m.incSeq = max(m.incSeq, snap.IncSeq)
	// The feeds are state of their own: the incidents' applies rebuilt
	// the registry, and the feed comes back as it was checkpointed.
	m.incFeed.items, m.incFeed.base = snap.IncFeed, snap.IncFeedBase
	for name, f := range snap.RevFeeds {
		m.revFeeds[name] = newFeed(maxRevFeed, f.Events, f.Base)
	}
	return nil
}

// opStarted folds an op-started record: the manager's apply, and the
// image a member whose journal names none was acquired with.
func (rp *replay) opStarted(r opStartedRecord, seq int) {
	rp.m.applyOpStarted(newOperation(r, seq, nil))
	if re, ok := rp.enclaves[r.Enclave]; ok && r.Image != "" {
		re.lastImage = r.Image
	}
}

// errorOf rebuilds a recorded error from its text.
func errorOf(msg string) error {
	if msg == "" {
		return nil
	}
	return errors.New(msg)
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

// A foldStep is one decoded record, applied in log order. decodeRecord,
// which makes it, is pure — it touches nothing but its record — so the
// store's open-time scan runs it on every record as it checks the log, on
// every CPU at once (scanPayload); the fold then applies the steps one
// after another. A journal event is its own step, so the fold can count
// each enclave's events before it applies any.
type foldStep interface{ apply(*replay) }

// A foldFunc is the fold step of every record kind but the journal event.
type foldFunc func(*replay)

func (f foldFunc) apply(rp *replay) { f(rp) }

func (r *journalEventRecord) apply(rp *replay) {
	if re, ok := rp.enclaves[r.Enclave]; ok {
		re.applyEvent(r.event())
	}
}

// decodeAs unmarshals a record payload as a T and binds it to its fold step.
func decodeAs[T any](data json.RawMessage, fold func(*replay, T)) (foldStep, error) {
	var r T
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return foldFunc(func(rp *replay) { fold(rp, r) }), nil
}

// decodeRecord parses one WAL record's payload into its fold step (nil for
// a kind this version does not know). A step decoded without error came
// from valid JSON: the journal event's fixed-shape reader accepts nothing
// else, and json.Unmarshal checks its input before it decodes.
func decodeRecord(kind store.Kind, data json.RawMessage) (foldStep, error) {
	switch kind {
	case store.KindEnclaveCreated:
		return decodeAs(data, func(rp *replay, r enclaveRecord) {
			rp.enclave(r.Name).profile = r.Profile
		})
	case store.KindEnclaveDeleted:
		return decodeAs(data, func(rp *replay, r enclaveNameRecord) {
			delete(rp.enclaves, r.Enclave)
			rp.order = slices.DeleteFunc(rp.order, func(n string) bool { return n == r.Enclave })
			rp.m.applyEnclaveDeleted(r.Enclave)
		})
	case store.KindJournalEvent:
		r, err := decodeJournalEvent(data)
		if err != nil {
			return nil, err
		}
		return &r, nil
	case store.KindQuotaSet:
		return decodeAs(data, func(rp *replay, r quotaRecord) { rp.m.applyQuota(r.Tenant, &r.Quota) })
	case store.KindQuotaDeleted:
		return decodeAs(data, func(rp *replay, r tenantRecord) { rp.m.applyQuota(r.Tenant, nil) })
	case store.KindPoolConfigured:
		return decodeAs(data, func(rp *replay, r poolRecord) { rp.m.applyPool(r.Enclave, &r.Policy) })
	case store.KindPoolDetached:
		return decodeAs(data, func(rp *replay, r enclaveNameRecord) { rp.m.applyPool(r.Enclave, nil) })
	case store.KindGuardEnabled:
		return decodeAs(data, func(rp *replay, r guardRecord) { rp.m.applyGuard(r.Enclave, r.Policy) })
	case store.KindGuardDetached:
		return decodeAs(data, func(rp *replay, r enclaveNameRecord) { rp.m.applyGuard(r.Enclave, nil) })
	case store.KindOpStarted:
		var r opStartedRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, err
		}
		seq, err := idSeq(r.ID, opIDPrefix)
		if err != nil {
			return nil, err
		}
		return foldFunc(func(rp *replay) { rp.opStarted(r, seq) }), nil
	case store.KindOpFinished:
		return decodeAs(data, func(rp *replay, r opFinishedRecord) { rp.m.applyOpFinished(r, nil, errorOf(r.Error)) })
	case store.KindIncidentUpdate:
		var st IncidentStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
		if _, err := idSeq(st.ID, incIDPrefix); err != nil {
			return nil, err
		}
		return foldFunc(func(rp *replay) { rp.m.applyIncidentUpdate(st) }), nil
	case store.KindRevocation:
		return decodeAs(data, func(rp *replay, r revocationRecord) {
			rp.m.applyRevocation(r.Enclave, keylime.RevocationEvent{UUID: r.UUID, Reason: r.Reason, At: r.At})
		})
	}
	return nil, nil
}

func init() { store.InstallDecoder(scanPayload) }

var errNotJSON = errors.New("core: record payload is not JSON")

// scanPayload is the payload decoder of the store's open-time scan:
// decodeRecord, whose typed decode is also the check that the payload is
// JSON. A payload it does not turn into a step — an unknown kind's, which
// it does not read, or one that does not decode — is checked by json.Valid.
// JSON keeps its frame and carries no step: the fold skips an unknown kind,
// and decodes a known kind again, to fail recovery on it by name. Anything
// else ends the log's valid prefix at its frame.
func scanPayload(kind store.Kind, data json.RawMessage) (any, error) {
	if step, err := decodeRecord(kind, data); err == nil && step != nil {
		return step, nil
	}
	if !json.Valid(data) {
		return nil, errNotJSON
	}
	return nil, nil
}

// stepsOf returns the fold step of each record, in log order — the one the
// store's scan decoded, else decodeRecord's — and how many journal events
// the log holds for each enclave. A record that does not decode fails the
// whole replay, named by the first such record.
func stepsOf(recs []store.Record) ([]foldStep, map[string]int, error) {
	steps := make([]foldStep, len(recs))
	counts := make(map[string]int)
	for i, rec := range recs {
		step, ok := rec.Decoded.(foldStep)
		if !ok {
			var err error
			if step, err = decodeRecord(rec.Kind, rec.Data); err != nil {
				return nil, nil, fmt.Errorf("core: replay %s record: %w", rec.Kind, err)
			}
		}
		if ev, ok := step.(*journalEventRecord); ok {
			counts[ev.Enclave]++
		}
		steps[i] = step
	}
	return steps, counts, nil
}

// fold folds the store's snapshot and log into the manager through the
// applies the live path runs, and returns the recorded enclave set.
func (m *Manager) fold() (*replay, error) {
	snap, recs, err := m.store.Load()
	if err != nil {
		return nil, fmt.Errorf("core: load store: %w", err)
	}
	steps, counts, err := stepsOf(recs)
	if err != nil {
		return nil, err
	}
	var ms *managerSnapshot
	if snap != nil {
		ms = new(managerSnapshot)
		if err := json.Unmarshal(snap.State, ms); err != nil {
			return nil, fmt.Errorf("core: decode snapshot: %w", err)
		}
		for _, es := range ms.Enclaves {
			counts[es.Name] += len(es.Events)
		}
	}
	rp := &replay{m: m, enclaves: make(map[string]*replayEnclave), counts: counts}
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if ms != nil {
		if err := rp.loadSnapshot(ms); err != nil {
			return nil, err
		}
	}
	for _, step := range steps {
		if step != nil {
			step.apply(rp)
		}
	}
	return rp, nil
}

// Recover rebuilds the control plane from the store: fold snapshot+WAL
// into the manager, end the operations the crash interrupted and the
// incident responses it orphaned, re-create every recorded enclave over
// the (fresh) cloud with its journal and its sequence numbers, so feed
// cursors survive, restart warm pools from their committed policies — and
// then re-adopt recorded nodes by re-quoting them into their recorded
// states. It must run before the manager serves traffic.
func (m *Manager) Recover(ctx context.Context) (*RecoverReport, error) {
	t0 := time.Now()
	rp, err := m.fold()
	if err != nil {
		return nil, err
	}
	rep := &RecoverReport{}
	for _, op := range m.ListOperations() {
		if !op.Phase().Terminal() {
			op.finish(OpInterrupted, nil, errors.New("operation interrupted by control-plane restart; partially-held nodes were released"), time.Now())
			rep.Interrupted = append(rep.Interrupted, op.ID)
		}
	}

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
	restored := make([]*Enclave, len(rp.order))
	for i, name := range rp.order {
		e, err := m.restoreEnclave(name, rp.enclaves[name])
		if err != nil {
			return nil, fmt.Errorf("core: restore enclave %q: %w", name, err)
		}
		restored[i] = e
	}
	rep.Enclaves = len(restored)
	ro := &readoption{rep: rep, sem: make(chan struct{}, DefaultBatchParallelism)}
	for i, e := range restored {
		m.readoptNodes(ctx, e, rp.enclaves[rp.order[i]], ro)
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
// project, network, verifier, restored journal (events and their seqs)
// with the persist hook re-attached, and its warm pool from the committed
// policy.
func (m *Manager) restoreEnclave(name string, re *replayEnclave) (*Enclave, error) {
	e, err := NewEnclave(m.cloud, name, re.profile)
	if err != nil {
		return nil, err
	}
	e.journal.restore(re.events)
	m.commitMu.Lock()
	m.mu.Lock()
	m.addEnclave(name, e)
	pool, ok := m.poolPolicies[name]
	m.mu.Unlock()
	m.commitMu.Unlock()
	if ok {
		// Start the pool held: its refiller must not race readoptNodes for
		// the very nodes the WAL records as this pool's standbys. Recover
		// resumes it once re-adoption has parked them.
		if err := e.configurePool(pool, true); err != nil {
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
//   - Allocated members and Warm standbys are re-adopted by walking their
//     route again (readopt) — a fresh-nonce quote; the walk routes a node
//     that fails exactly like any other. These run in the background,
//     bounded by ro.sem; the caller waits on ro.requotes.
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
				ro.note(readopt(ctx, e, name, rn, ro.rep), e, name)
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

// readopt re-adopts one recorded node and names the report list it lands
// on: reserve the same named node, then walk the cold route (an Allocated
// member) or the refill route (a Warm standby, parked back in its pool).
// The recorded state only nominates the node; it is trusted again by the
// walk's fresh quote.
func readopt(ctx context.Context, e *Enclave, name string, rn *replayNode, rep *RecoverReport) *[]string {
	release := func(why string) *[]string {
		e.journal.record(EvReleased, name, "released at recovery: "+why)
		return &rep.Released
	}
	w := &nodeWork{name: name}
	route, reserved, recovered := routeCold, "readopt image="+rn.image, "readopted member image="+rn.image
	pool := e.warmPool()
	switch {
	case rn.state == StateWarm && pool == nil:
		return release("no warm pool") // the policy was detached before the crash
	case rn.state == StateWarm:
		route, reserved, recovered = routeRefill, "warm readopt", "readopted warm standby"
	case rn.image == "":
		return release("no image recorded")
	default:
		boot, err := e.cloud.BMI.ExtractBootInfo(ctx, rn.image)
		if err != nil {
			return release("image " + rn.image + ": " + err.Error())
		}
		w.boot = boot
	}
	if err := e.cloud.HIL.AllocateNode(ctx, e.Project, name); err != nil {
		return release(err.Error())
	}
	e.journal.record(EvAllocated, name, reserved)
	switch _, _, to := e.walk(ctx, w, route); {
	case to == StateFree:
		return &rep.Released
	case to != "":
		return &rep.Rejected
	case rn.state == StateWarm && !pool.park(w):
		e.releaseWarmNode(name, "pool closed during recovery")
		return &rep.Released
	}
	e.journal.record(EvRecovered, name, recovered)
	return &rep.Readopted
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

// Checkpoint writes the folded state as a compacting snapshot and
// truncates the WAL. Nothing commits while it runs: from the first read to
// the truncation it holds m.commitMu, under which every manager record
// commits, and each enclave's journal lock, under which every journal
// event commits, so the snapshot holds exactly what the log it replaces
// held. boltedd calls it on graceful shutdown so the next start replays a
// short tail instead of the full history.
func (m *Manager) Checkpoint() error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.mu.Lock()
	snap := managerSnapshot{
		Quotas:      m.quotas,
		OpSeq:       m.opSeq,
		Idem:        m.idem,
		IncSeq:      m.incSeq,
		IncFeed:     m.incFeed.items,
		IncFeedBase: m.incFeed.base,
		RevFeeds:    make(map[string]revFeedSnapshot, len(m.revFeeds)),
	}
	names := slices.Sorted(maps.Keys(m.enclaves))
	for _, name := range names {
		e := m.enclaves[name]
		e.journal.mu.Lock()
		defer e.journal.mu.Unlock()
		es := enclaveSnapshot{Name: name, Profile: e.Profile, Guard: m.guardPolicies[name]}
		for _, ev := range e.journal.events {
			es.Events = append(es.Events, toEventRecord(ev))
		}
		if p, ok := m.poolPolicies[name]; ok {
			es.Pool = &p
		}
		snap.Enclaves = append(snap.Enclaves, es)
	}
	for _, op := range m.opOrder {
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
	for _, inc := range m.incOrder {
		snap.Incidents = append(snap.Incidents, inc.Status())
	}
	for name, f := range m.revFeeds {
		snap.RevFeeds[name] = revFeedSnapshot{Base: f.base, Events: f.items}
	}
	raw, err := json.Marshal(snap)
	m.mu.Unlock()
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
