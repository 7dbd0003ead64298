package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bolted/internal/keylime"
	"bolted/internal/obs"
	"bolted/internal/store"
)

// This file is the server side of the tenant control plane: where PR 2
// left every tenant embedding the orchestrator and blocking on a
// multi-minute AcquireNodes call, the Manager holds named enclaves as
// server-side resources and runs acquisitions as asynchronous
// Operations the tenant polls, streams, or cancels through the /v1
// API (internal/remote). The same state machine and provisioner from
// the in-process path do the work; the Manager only adds naming,
// lifecycle, and journal fan-out.

// Control-plane sentinel errors, mapped onto typed wire envelopes by
// internal/remote and back into errors.Is-compatible values client-side.
var (
	// ErrNotFound names an enclave, operation or node the manager does
	// not know.
	ErrNotFound = errors.New("core: not found")
	// ErrExists rejects creating a resource under a taken name.
	ErrExists = errors.New("core: already exists")
	// ErrConflict rejects an action the resource's current state
	// forbids (e.g. deleting an enclave with a running operation).
	ErrConflict = errors.New("core: conflict")
	// ErrInvalid rejects a malformed argument (e.g. an inconsistent
	// guard policy).
	ErrInvalid = errors.New("core: invalid argument")
)

// MaxRetainedOps bounds how many operations the manager keeps per
// enclave: beyond it, the oldest terminal operations are forgotten. A
// long-running boltedd must not grow memory with every acquisition it
// ever served.
const MaxRetainedOps = 64

// Manager is the control-plane registry: named enclaves and the
// operations running against them. One Manager serves all tenants of a
// boltedd; it is safe for concurrent use.
type Manager struct {
	cloud *Cloud
	// store is the durable control-plane log (persist.go): every
	// mutation commits here before it is acknowledged. Defaults to
	// store.Discard for managers built without durability.
	store store.Store

	// tracer records one trace per operation (trace ID = operation ID),
	// retention mirroring MaxRetainedOps. Always non-nil.
	tracer *obs.Tracer

	// commitMu runs mutations one at a time: a mutation takes it, checks,
	// commits its record and applies it (commit), so the log order is the
	// apply order. Every write to the fields below holds commitMu and mu,
	// so a mutation reads them under commitMu alone, and a reader under mu
	// alone — readers never wait on a commit's fsync. (revFeeds is the
	// exception: a reader may add an empty feed under mu.) An acquisition's
	// completion is the one mutation that takes commitMu for reading, so
	// the completions of acquisitions in different enclaves share a group
	// commit: each touches only its own operation, which nothing reads
	// while its enclave's acquisition is in flight, so they commute.
	commitMu sync.RWMutex
	mu       sync.Mutex
	enclaves map[string]*Enclave
	deleting map[string]bool // enclaves mid-Destroy; refuse new work
	ops      map[string]*Operation
	opOrder  []*Operation            // creation order (ascending seq): what a list route copies
	byencl   map[string][]*Operation // enclave -> its operations
	opSeq    int
	// idem maps a client Idempotency-Key to the operation it started, so
	// a retried acquire (including across a restart) returns the
	// existing operation instead of starting a duplicate batch. A key
	// lives exactly as long as its operation: forgetOpsLocked drops both.
	idem map[string]string
	// guardPolicies holds the raw policy JSON of attached (or recovered,
	// not-yet-reattached) guards, keyed by enclave.
	guardPolicies map[string]json.RawMessage
	// poolPolicies holds each enclave's committed warm-pool policy; the
	// enclave's running pool follows it.
	poolPolicies map[string]PoolPolicy

	// Tenant QoS state (sched.go): per-tenant quotas and the global
	// queue-depth admission bound. Violations surface as ErrOverQuota,
	// which /v1 maps to 429 + Retry-After.
	quotas        map[string]TenantQuota
	maxSchedQueue int

	// Runtime-guard state (incident.go): attached guards, tracked
	// incidents with their replayable update feed, per-enclave verifier
	// revocation feeds, and the verifier unsubscribe hooks.
	guards      map[string]GuardController
	incidents   map[string]*Incident
	incOrder    []*Incident // creation order, for retention pruning
	incSeq      int
	incFeed     []IncidentStatus
	incFeedBase int
	incNotify   chan struct{}
	revFeeds    map[string]*revFeed
	revUnsubs   map[string]func()
}

// NewManager builds an empty control plane over a cloud.
func NewManager(c *Cloud) *Manager {
	return &Manager{
		cloud:         c,
		store:         store.Discard{},
		tracer:        obs.NewTracer(MaxRetainedOps),
		enclaves:      make(map[string]*Enclave),
		deleting:      make(map[string]bool),
		ops:           make(map[string]*Operation),
		byencl:        make(map[string][]*Operation),
		idem:          make(map[string]string),
		guardPolicies: make(map[string]json.RawMessage),
		poolPolicies:  make(map[string]PoolPolicy),
		quotas:        make(map[string]TenantQuota),
		maxSchedQueue: DefaultMaxSchedQueue,
		guards:        make(map[string]GuardController),
		incidents:     make(map[string]*Incident),
		incNotify:     make(chan struct{}),
		revFeeds:      make(map[string]*revFeed),
		revUnsubs:     make(map[string]func()),
	}
}

// CreateEnclave creates a named enclave resource under a profile.
func (m *Manager) CreateEnclave(name string, p Profile) (*Enclave, error) {
	if name == "" {
		return nil, fmt.Errorf("core: enclave needs a name")
	}
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if _, ok := m.enclaves[name]; ok {
		return nil, fmt.Errorf("%w: enclave %q", ErrExists, name)
	}
	e, err := NewEnclave(m.cloud, name, p)
	if err != nil {
		return nil, err
	}
	// If the record cannot be made durable the enclave must not exist —
	// tear the just-created project back down and refuse the mutation.
	if err := m.commit(store.KindEnclaveCreated, enclaveRecord{Name: name, Profile: p}, func() { m.addEnclave(name, e) }); err != nil {
		_ = e.Destroy()
		return nil, fmt.Errorf("core: persist enclave %q: %w", name, err)
	}
	return e, nil
}

// addEnclave registers a created (or, at recovery, rebuilt) enclave: its
// journal commits through the store, and the verifier's in-process
// revocation fan-out is mirrored into the manager so it reaches the wire —
// the /v1 revocation stream, the incident registry, and (when enabled) the
// runtime guard. A remote tenant would otherwise never learn a node was
// revoked. Callers hold m.mu.
func (m *Manager) addEnclave(name string, e *Enclave) {
	m.attachJournalPersist(name, e)
	m.enclaves[name] = e
	if v := e.Verifier(); v != nil {
		m.revUnsubs[name] = v.Subscribe(func(ev keylime.RevocationEvent) {
			m.noteRevocation(name, ev)
		})
	}
}

// applyEnclaveDeleted folds an enclave-deleted record: the enclave leaves
// the registry, and its operations (all terminal) with their keys, its
// revocation feed and its pool and guard policies go with it. Callers hold
// m.mu.
func (m *Manager) applyEnclaveDeleted(name string) {
	delete(m.enclaves, name)
	m.forgetOpsLocked(m.byencl[name])
	delete(m.byencl, name)
	if unsub := m.revUnsubs[name]; unsub != nil {
		delete(m.revUnsubs, name)
		unsub()
	}
	delete(m.revFeeds, name)
	delete(m.guardPolicies, name)
	delete(m.poolPolicies, name)
}

// Enclave returns a named enclave. An enclave mid-delete is already
// gone from the control plane's point of view.
func (m *Manager) Enclave(name string) (*Enclave, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enclaveLocked(name)
}

// enclaveLocked is Enclave for callers holding m.commitMu or m.mu.
func (m *Manager) enclaveLocked(name string) (*Enclave, error) {
	e, ok := m.enclaves[name]
	if !ok || m.deleting[name] {
		return nil, fmt.Errorf("%w: enclave %q", ErrNotFound, name)
	}
	return e, nil
}

// ListEnclaves returns the enclave names, sorted.
func (m *Manager) ListEnclaves() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.enclaves))
	for n := range m.enclaves {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DeleteEnclave releases every node and removes the enclave. It
// refuses while an operation on the enclave is still in flight — the
// tenant must cancel (and wait out) the operation first. The enclave
// is marked deleting before the lock drops, so a concurrent
// StartAcquire cannot begin a batch that races the destroy.
func (m *Manager) DeleteEnclave(name string) error {
	m.commitMu.Lock()
	e, err := m.enclaveLocked(name)
	if err != nil {
		m.commitMu.Unlock()
		return err
	}
	for _, op := range m.byencl[name] {
		if !op.Phase().Terminal() {
			m.commitMu.Unlock()
			return fmt.Errorf("%w: enclave %q has running operation %s", ErrConflict, name, op.ID)
		}
	}
	m.mu.Lock()
	m.deleting[name] = true
	guard := m.guards[name]
	delete(m.guards, name)
	m.mu.Unlock()
	m.commitMu.Unlock()

	// The guard goes first: its monitoring rounds and incident
	// responses must not race the teardown of the enclave they drive.
	if guard != nil {
		guard.Stop()
	}
	err = e.Destroy()
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.deleting, name)
	if err != nil {
		// The enclave lives on, but its guard stays detached (and
		// stopped): the tenant re-enables explicitly.
		return err
	}
	// Destroy first, then commit: a crash in between replays an enclave
	// whose journal already released every node — it comes back empty,
	// never as orphaned hardware. Its hardware is gone either way, so the
	// deletion applies even when the record cannot commit.
	perr := m.appendRecord(store.KindEnclaveDeleted, enclaveNameRecord{Enclave: name})
	m.applyEnclaveDeleted(name)
	if perr != nil {
		return fmt.Errorf("core: enclave %q deleted but not committed: %w", name, perr)
	}
	return nil
}

// applyOpStarted folds an op-started record: the operation joins the
// registry, under its idempotency key if it has one, and the oldest
// terminal operations of its enclave beyond MaxRetainedOps are forgotten.
// Callers hold m.mu.
func (m *Manager) applyOpStarted(op *Operation) {
	m.opSeq = max(m.opSeq, op.seq)
	m.ops[op.ID] = op
	m.opOrder = append(m.opOrder, op)
	if op.idemKey != "" {
		m.idem[op.idemKey] = op.ID
	}
	ops := append(m.byencl[op.Enclave], op)
	i := 0
	for len(ops)-i > MaxRetainedOps && ops[i].Phase().Terminal() {
		i++
	}
	m.forgetOpsLocked(ops[:i])
	m.byencl[op.Enclave] = ops[i:]
}

// applyOpFinished folds an op-finished record into its operation, if the
// manager still holds it. Live, the worker hands in the batch result and
// the run's own error; replay has only the error's text.
func (m *Manager) applyOpFinished(r opFinishedRecord, res *BatchResult, err error) {
	if op, ok := m.ops[r.ID]; ok {
		op.finish(r.Phase, res, err, r.Finished)
	}
}

// forgetOpsLocked drops operations from the ID index and from the creation
// order, which keeps its order, and their idempotency keys with them: a
// retry under a forgotten key starts a new operation. opOrder ascends by
// seq, so each is found by bisection: StartAcquireIdem prunes under m.mu
// and must not walk every operation the manager holds. Callers hold m.mu.
func (m *Manager) forgetOpsLocked(ops []*Operation) {
	for _, op := range ops {
		delete(m.ops, op.ID)
		if op.idemKey != "" && m.idem[op.idemKey] == op.ID {
			delete(m.idem, op.idemKey)
		}
		i, found := slices.BinarySearchFunc(m.opOrder, op.seq, func(o *Operation, seq int) int { return cmp.Compare(o.seq, seq) })
		if found {
			m.opOrder = slices.Delete(m.opOrder, i, i+1)
		}
	}
}

// StartAcquire begins an asynchronous batch acquisition against a
// named enclave and returns its Operation immediately. The batch runs
// under the manager's own cancellable context — Operation.Cancel (or
// the /v1 cancel endpoint) stops it at the next phase boundary, and
// the enclave's lifecycle journal fans out to the operation's event
// stream for as long as it runs. One acquisition runs per enclave at
// a time: the journal is enclave-scoped, so a second concurrent batch
// would contaminate the first operation's event stream and progress —
// it is refused with ErrConflict (tenants wanting parallel batches use
// parallel enclaves).
func (m *Manager) StartAcquire(enclave, image string, n int) (*Operation, error) {
	op, _, err := m.StartAcquireIdem(enclave, image, n, "")
	return op, err
}

// StartAcquireIdem is StartAcquire with an optional client idempotency
// key. A non-empty key is committed with the operation record; retrying
// with the same key — before or after a control-plane restart — returns
// the original operation (replayed=true) instead of starting a duplicate
// batch. A retried operation that the restart interrupted comes back with
// phase OpInterrupted, so the client sees the interruption explicitly and
// re-submits under a fresh key. A key lives exactly as long as its
// operation: once the operation is forgotten (beyond MaxRetainedOps of its
// enclave, or with its deleted enclave), a retry under the key starts a new
// one.
func (m *Manager) StartAcquireIdem(enclave, image string, n int, idemKey string) (op *Operation, replayed bool, err error) {
	if n < 1 {
		return nil, false, fmt.Errorf("core: batch size must be at least 1")
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Lookup and registration are one mutation: once the operation is in
	// byencl, DeleteEnclave cannot pass its in-flight check and destroy
	// the enclave under the batch.
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	e, err := m.enclaveLocked(enclave)
	if err != nil {
		cancel()
		return nil, false, err
	}
	if id, ok := m.idem[idemKey]; ok {
		cancel()
		return m.ops[id], true, nil
	}
	for _, prev := range m.byencl[enclave] {
		if !prev.Phase().Terminal() {
			cancel()
			return nil, false, fmt.Errorf("%w: enclave %q already has operation %s in flight", ErrConflict, enclave, prev.ID)
		}
	}
	// Degraded fail-fast: with a backend breaker open the batch would
	// only burn its retry budget into a dead service and strand nodes in
	// the rejected pool. The typed error carries a Retry-After hint; the
	// /v1 surface maps it to 503.
	if err := m.cloud.CheckDegraded(); err != nil {
		cancel()
		return nil, false, err
	}
	if err := m.admitAcquireLocked(enclave, e, n); err != nil {
		cancel()
		if errors.Is(err, ErrOverQuota) {
			m.cloud.metrics.quotaRejections.With(enclave).Inc()
		}
		return nil, false, err
	}
	// The operation record (with its idempotency key) must be durable
	// before the tenant learns the op ID, or a crash could orphan a batch
	// no retry can find.
	rec := opStartedRecord{ID: fmt.Sprintf(opIDPrefix+"%04d", m.opSeq+1), Enclave: enclave, Image: image, Count: n, Created: time.Now(), IdemKey: idemKey}
	op = newOperation(rec, m.opSeq+1, cancel)
	op.journal = e.Journal()
	if err := m.commit(store.KindOpStarted, rec, func() { m.applyOpStarted(op) }); err != nil {
		cancel()
		return nil, false, fmt.Errorf("core: persist operation: %w", err)
	}

	// The trace shares the operation's ID and lifetime: one root span
	// for the whole acquisition, node×phase children emitted by the
	// provisioner through the context.
	root := m.tracer.StartTrace(op.ID, "acquire "+enclave)
	runCtx := obs.WithTrace(ctx, obs.TraceContext{Tracer: m.tracer, Trace: op.ID, Parent: root.ID()})
	unwatch := e.Journal().Watch(op.observe)
	go func() {
		defer cancel()
		defer unwatch()
		op.setRunning()
		res, err := e.AcquireNodes(runCtx, image, n)
		root.End(err)
		// The manager owns ctx, so a context.Canceled outcome can only
		// mean the tenant's cancel — the operation's own terminal state,
		// not a failure.
		fin := opFinishedRecord{ID: op.ID, Phase: OpDone, Finished: time.Now()}
		if errors.Is(err, context.Canceled) {
			fin.Phase = OpCancelled
		}
		if err != nil {
			fin.Error = err.Error()
		}
		// The outcome commits before any waiter hears it; the commit also
		// makes the batch's staged journal events durable. An outcome
		// that cannot commit is reported as a restart would report it —
		// interrupted, with the commit error. The members stay in the
		// enclave; a restart re-adopts those whose journal reached the log.
		m.commitMu.RLock()
		if cerr := m.appendRecord(store.KindOpFinished, fin); cerr != nil {
			fin.Phase = OpInterrupted
			err = fmt.Errorf("core: operation outcome not committed: %w", cerr)
		}
		m.mu.Lock()
		m.applyOpFinished(fin, res, err)
		m.mu.Unlock()
		m.commitMu.RUnlock()
	}()
	return op, false, nil
}

// admitAcquireLocked is the /v1 admission gate: global queue-depth
// backpressure first, then the tenant's own in-flight and footprint
// caps. Callers hold m.commitMu. Rejections are QuotaErrors, so they cross
// the wire as 429 + Retry-After and match ErrOverQuota.
func (m *Manager) admitAcquireLocked(tenant string, e *Enclave, n int) error {
	if lim := m.maxSchedQueue; lim > 0 {
		if q := m.cloud.Scheduler().Queued(); q >= lim {
			return &QuotaError{
				Tenant:     tenant,
				Detail:     fmt.Sprintf("airlock queue depth %d at admission limit %d", q, lim),
				RetryAfter: DefaultRetryAfter,
			}
		}
	}
	q, ok := m.quotas[tenant]
	if !ok {
		return nil
	}
	inflight := m.inflightLocked(tenant)
	if q.MaxInFlight > 0 && inflight+n > q.MaxInFlight {
		return &QuotaError{
			Tenant:     tenant,
			Detail:     fmt.Sprintf("tenant %q would have %d nodes in flight, cap is %d", tenant, inflight+n, q.MaxInFlight),
			RetryAfter: DefaultRetryAfter,
		}
	}
	if q.MaxNodes > 0 {
		members := len(e.Nodes())
		if members+inflight+n > q.MaxNodes {
			return &QuotaError{
				Tenant:     tenant,
				Detail:     fmt.Sprintf("tenant %q would hold %d nodes, quota is %d", tenant, members+inflight+n, q.MaxNodes),
				RetryAfter: DefaultRetryAfter,
			}
		}
	}
	return nil
}

// inflightLocked counts the tenant's nodes mid-acquisition (requested
// by operations that have not reached a terminal phase). Callers hold
// m.commitMu or m.mu.
func (m *Manager) inflightLocked(tenant string) int {
	n := 0
	for _, op := range m.byencl[tenant] {
		if !op.Phase().Terminal() {
			n += op.Count
		}
	}
	return n
}

// SetBackpressureLimit replaces the global admission bound on the
// airlock queue depth (0 disables backpressure).
func (m *Manager) SetBackpressureLimit(n int) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxSchedQueue = n
}

// SetQuota creates or replaces a tenant's quota and applies its
// weight to the airlock scheduler. The tenant need not have an
// enclave yet — quotas commonly precede the first acquire. created
// reports whether this call added a new quota.
func (m *Manager) SetQuota(tenant string, q TenantQuota) (QuotaStatus, bool, error) {
	if tenant == "" {
		return QuotaStatus{}, false, fmt.Errorf("%w: quota needs a tenant name", ErrInvalid)
	}
	if err := q.Validate(); err != nil {
		return QuotaStatus{}, false, err
	}
	m.commitMu.Lock()
	_, had := m.quotas[tenant]
	err := m.commit(store.KindQuotaSet, quotaRecord{Tenant: tenant, Quota: q}, func() { m.applyQuota(tenant, &q) })
	m.commitMu.Unlock()
	if err != nil {
		return QuotaStatus{}, false, fmt.Errorf("core: persist quota: %w", err)
	}
	st, err := m.Quota(tenant)
	return st, !had, err
}

// applyQuota folds a quota-set (q non-nil) or quota-deleted record; the
// tenant's airlock-scheduler weight follows it. Callers hold m.mu.
func (m *Manager) applyQuota(tenant string, q *TenantQuota) {
	if q == nil {
		delete(m.quotas, tenant)
		m.cloud.Scheduler().SetWeight(tenant, 1)
		return
	}
	m.quotas[tenant] = *q
	m.cloud.Scheduler().SetWeight(tenant, q.weight())
}

// Quota returns a tenant's quota with live usage (ErrNotFound when no
// quota is set).
func (m *Manager) Quota(tenant string) (QuotaStatus, error) {
	m.mu.Lock()
	q, ok := m.quotas[tenant]
	if !ok {
		m.mu.Unlock()
		return QuotaStatus{}, fmt.Errorf("%w: tenant %q has no quota", ErrNotFound, tenant)
	}
	st := QuotaStatus{Tenant: tenant, Quota: q, InFlight: m.inflightLocked(tenant)}
	e := m.enclaves[tenant]
	m.mu.Unlock()
	if e != nil {
		st.Nodes = len(e.Nodes())
	}
	return st, nil
}

// ListQuotas returns every tenant quota with usage, sorted by tenant.
func (m *Manager) ListQuotas() []QuotaStatus {
	m.mu.Lock()
	names := make([]string, 0, len(m.quotas))
	for t := range m.quotas {
		names = append(names, t)
	}
	m.mu.Unlock()
	sort.Strings(names)
	out := make([]QuotaStatus, 0, len(names))
	for _, t := range names {
		if st, err := m.Quota(t); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// DeleteQuota removes a tenant's quota, resetting its scheduler
// weight to the default.
func (m *Manager) DeleteQuota(tenant string) error {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if _, ok := m.quotas[tenant]; !ok {
		return fmt.Errorf("%w: tenant %q has no quota", ErrNotFound, tenant)
	}
	if err := m.commit(store.KindQuotaDeleted, tenantRecord{Tenant: tenant}, func() { m.applyQuota(tenant, nil) }); err != nil {
		return fmt.Errorf("core: persist quota delete: %w", err)
	}
	return nil
}

// SchedStats returns the cloud airlock scheduler's live state.
func (m *Manager) SchedStats() SchedStats {
	return m.cloud.Scheduler().Stats()
}

// ConfigurePool creates (or reconfigures) an enclave's warm pool and
// returns its stats. created reports whether this call attached a new
// pool rather than updating an existing one's policy.
func (m *Manager) ConfigurePool(enclave string, p PoolPolicy) (PoolStats, bool, error) {
	if err := p.Validate(); err != nil {
		return PoolStats{}, false, err
	}
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	e, err := m.enclaveLocked(enclave)
	if err != nil {
		return PoolStats{}, false, err
	}
	_, had := m.poolPolicies[enclave]
	if err := m.commit(store.KindPoolConfigured, poolRecord{Enclave: enclave, Policy: p}, func() { m.applyPool(enclave, &p) }); err != nil {
		return PoolStats{}, false, fmt.Errorf("core: persist pool policy: %w", err)
	}
	st, _ := e.PoolStats()
	return st, !had, nil
}

// applyPool folds a pool-configured (p non-nil, validated) or pool-detached
// record; the enclave's running pool, if the enclave is running, follows
// it. Callers hold m.mu.
func (m *Manager) applyPool(enclave string, p *PoolPolicy) {
	e := m.enclaves[enclave]
	if p == nil {
		delete(m.poolPolicies, enclave)
		if e != nil {
			e.ClosePool()
		}
		return
	}
	m.poolPolicies[enclave] = p.withDefaults()
	if e != nil {
		_ = e.configurePool(*p, false)
	}
}

// PoolStats returns an enclave's warm-pool stats (ErrNotFound when the
// enclave is unknown or has no pool).
func (m *Manager) PoolStats(enclave string) (PoolStats, error) {
	e, err := m.Enclave(enclave)
	if err != nil {
		return PoolStats{}, err
	}
	st, ok := e.PoolStats()
	if !ok {
		return PoolStats{}, fmt.Errorf("%w: enclave %q has no warm pool", ErrNotFound, enclave)
	}
	return st, nil
}

// ListPools returns the stats of every configured warm pool, sorted by
// enclave name.
func (m *Manager) ListPools() []PoolStats {
	var out []PoolStats
	for _, name := range m.ListEnclaves() {
		e, err := m.Enclave(name)
		if err != nil {
			continue
		}
		if st, ok := e.PoolStats(); ok {
			out = append(out, st)
		}
	}
	return out
}

// DrainPool empties an enclave's warm pool back into the provider's
// free pool and idles the refiller (Target drops to 0).
func (m *Manager) DrainPool(enclave string) (PoolStats, error) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	e, err := m.enclaveLocked(enclave)
	if err != nil {
		return PoolStats{}, err
	}
	p, ok := m.poolPolicies[enclave]
	if !ok {
		return PoolStats{}, fmt.Errorf("%w: enclave %q has no warm pool", ErrNotFound, enclave)
	}
	// A drain is a policy change (Target=0): commit it so a restart does
	// not refill a pool the tenant emptied.
	p.Target = 0
	if err := m.commit(store.KindPoolConfigured, poolRecord{Enclave: enclave, Policy: p}, func() { m.applyPool(enclave, &p) }); err != nil {
		return PoolStats{}, fmt.Errorf("core: persist pool drain: %w", err)
	}
	pool := e.warmPool()
	pool.drain("pool drained")
	return pool.stats(), nil
}

// DetachPool stops and removes an enclave's warm pool entirely; its
// standbys return to the free pool. It reports whether a pool existed.
func (m *Manager) DetachPool(enclave string) (bool, error) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	if _, err := m.enclaveLocked(enclave); err != nil {
		return false, err
	}
	if _, had := m.poolPolicies[enclave]; !had {
		return false, nil
	}
	if err := m.commit(store.KindPoolDetached, enclaveNameRecord{Enclave: enclave}, func() { m.applyPool(enclave, nil) }); err != nil {
		return true, fmt.Errorf("core: persist pool detach: %w", err)
	}
	return true, nil
}

// Health returns the cloud's degraded-mode snapshot: per-backend
// circuit-breaker states, degraded while any is open. This is the
// /v1/health body.
func (m *Manager) Health() HealthStatus { return m.cloud.Health() }

// ConfigureResilience sets a resilience policy. An empty enclave name
// configures the cloud-wide layer (installing it when absent);
// otherwise the named enclave gets a per-enclave override. Phase
// deadlines act per enclave; retry and breaker parameters apply where
// the shared backends are wrapped, cloud-wide. The policy is
// operational tuning, deliberately outside the durable log: a restart
// returns to the boltedd defaults.
func (m *Manager) ConfigureResilience(enclave string, pol ResiliencePolicy) (ResiliencePolicy, error) {
	if enclave == "" {
		if err := m.cloud.EnableResilience(pol); err != nil {
			return ResiliencePolicy{}, err
		}
		return m.cloud.Resilience(), nil
	}
	e, err := m.Enclave(enclave)
	if err != nil {
		return ResiliencePolicy{}, err
	}
	if err := e.SetResilience(pol); err != nil {
		return ResiliencePolicy{}, err
	}
	return e.Resilience(), nil
}

// ResiliencePolicyFor returns the effective policy: the enclave's
// override when set, the cloud's otherwise ("" asks for the cloud's).
func (m *Manager) ResiliencePolicyFor(enclave string) (ResiliencePolicy, error) {
	if enclave == "" {
		return m.cloud.Resilience(), nil
	}
	e, err := m.Enclave(enclave)
	if err != nil {
		return ResiliencePolicy{}, err
	}
	return e.Resilience(), nil
}

// ReclaimNode is the operator's scrub-and-return path for one of an
// enclave's rejected-pool nodes: the repaired node is powered off,
// freed back into the provider's free pool, and the recovery
// journaled.
func (m *Manager) ReclaimNode(ctx context.Context, enclave, node string) error {
	e, err := m.Enclave(enclave)
	if err != nil {
		return err
	}
	return e.ReclaimRejected(ctx, node)
}

// Tracer returns the manager's operation tracer (never nil).
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// Metrics returns the cloud's metrics registry (nil when the cloud is
// uninstrumented).
func (m *Manager) Metrics() *obs.Registry { return m.cloud.Metrics() }

// OperationTrace returns the recorded spans of an operation's trace,
// creation order: the root acquire span first, then one span per
// node × phase. ErrNotFound covers both an unknown operation and one
// whose trace has been evicted (restored operations have no trace —
// spans are runtime observations, not durable state).
func (m *Manager) OperationTrace(id string) ([]obs.SpanData, error) {
	if _, err := m.Operation(id); err != nil {
		return nil, err
	}
	spans, ok := m.tracer.Spans(id)
	if !ok {
		return nil, fmt.Errorf("%w: operation %q has no recorded trace", ErrNotFound, id)
	}
	return spans, nil
}

// Operation returns a tracked operation by ID.
func (m *Manager) Operation(id string) (*Operation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	op, ok := m.ops[id]
	if !ok {
		return nil, fmt.Errorf("%w: operation %q", ErrNotFound, id)
	}
	return op, nil
}

// ListOperations returns every tracked operation, oldest first: a copy of
// the creation order, which is kept as operations come and go, so a list
// costs no sort under the mutex acquisitions commit under.
func (m *Manager) ListOperations() []*Operation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Operation(nil), m.opOrder...)
}
