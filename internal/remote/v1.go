// v1.go is the versioned tenant control plane: Enclave, node
// acquisition and Operation as server-side REST resources. Where the
// raw service plane (remote.go) exposes the provider's HIL/BMI/
// registrar wire APIs for tenants who run their own orchestrator, /v1
// hosts the orchestrator server-side: POST /v1/enclaves creates a
// named enclave, nodes:acquire starts a batch and returns immediately
// with an Operation the tenant polls, streams or cancels, and DELETE
// releases nodes and enclaves. Errors cross the wire as typed JSON
// envelopes mapped onto the packages' sentinel errors at both ends.
package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/guard"
	"bolted/internal/hil"
	"bolted/internal/httpjson"
	"bolted/internal/keylime"
	"bolted/internal/obs"
)

// prefixV1 mounts the tenant control plane beside the raw plane.
const prefixV1 = "/v1"

// errInvalid marks malformed tenant requests (HTTP 400).
var errInvalid = errors.New("remote: invalid argument")

// apiError is the typed error payload inside every non-2xx response.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the v1 wire form of a failure.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// Wire error codes and the sentinel each maps onto.
const (
	codeNotFound     = "not_found"
	codeExists       = "already_exists"
	codeConflict     = "conflict"
	codeUnauthorized = "permission_denied"
	codeInvalid      = "invalid_argument"
	codeExhausted    = "resource_exhausted"
	codeUnavailable  = "unavailable"
	codeInternal     = "internal"
)

// EnclaveInfo is the wire form of an enclave resource.
type EnclaveInfo struct {
	Name    string            `json:"name"`
	Profile string            `json:"profile"`
	Nodes   map[string]string `json:"nodes"` // node -> lifecycle state
	// Incidents lists the enclave's open (non-terminal) incident IDs;
	// tooling branches on "incident open" without a second round trip.
	Incidents []string `json:"incidents,omitempty"`
}

// GuardPolicyInfo is the wire form of a runtime-guard policy. Zero
// fields take the guard's defaults. guard.Policy already carries its
// wire tags, so the wire form IS the policy — no converter to forget a
// field in.
type GuardPolicyInfo = guard.Policy

// GuardInfo is the wire form of an enclave's runtime attestation guard.
// Like its policy, guard.Status carries its own wire tags, so the wire
// form IS the status.
type GuardInfo = guard.Status

// IncidentStepInfo is one recorded response action of an incident.
type IncidentStepInfo struct {
	At     time.Time `json:"at"`
	Name   string    `json:"name"`
	Detail string    `json:"detail,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// IncidentInfo is the wire form of an incident resource. Seq is set
// only on incident-stream items (GET /incidents?watch=1): the update's
// 1-based feed position, stable across restarts, usable as ?after=.
type IncidentInfo struct {
	Seq     uint64             `json:"seq,omitempty"`
	ID      string             `json:"id"`
	Enclave string             `json:"enclave"`
	Node    string             `json:"node"`
	Reason  string             `json:"reason"`
	State   string             `json:"state"`
	Opened  time.Time          `json:"opened"`
	Closed  time.Time          `json:"closed,omitzero"`
	Steps   []IncidentStepInfo `json:"steps,omitempty"`
}

// Terminal reports whether the incident has reached a final state.
func (i *IncidentInfo) Terminal() bool { return core.IncidentState(i.State).Terminal() }

func incidentInfo(st core.IncidentStatus) *IncidentInfo {
	info := &IncidentInfo{
		ID:      st.ID,
		Enclave: st.Enclave,
		Node:    st.Node,
		Reason:  st.Reason,
		State:   string(st.State),
		Opened:  st.Opened,
		Closed:  st.Closed,
	}
	for _, s := range st.Steps {
		info.Steps = append(info.Steps, IncidentStepInfo{At: s.At, Name: s.Name, Detail: s.Detail, Error: s.Error})
	}
	return info
}

// RevocationInfo is the wire form of one verifier revocation event —
// the HTTP equivalent of keylime.Verifier.Subscribe. Seq is the event's
// 1-based position in the enclave's feed; it is stable across
// control-plane restarts, so ?after=<seq> resumes exactly past it.
type RevocationInfo struct {
	Seq    uint64    `json:"seq"`
	Node   string    `json:"node"`
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
}

func revocationInfo(seq uint64, ev keylime.RevocationEvent) RevocationInfo {
	return RevocationInfo{Seq: seq, Node: ev.UUID, Reason: ev.Reason, At: ev.At}
}

// TenantQuotaInfo is the wire form of a tenant quota. core.TenantQuota
// carries its wire tags, so the wire form IS the quota.
type TenantQuotaInfo = core.TenantQuota

// QuotaInfo is the wire form of a tenant quota plus its live usage.
type QuotaInfo = core.QuotaStatus

// SchedInfo is the wire form of the airlock scheduler's state: slot
// occupancy, queue depth, and per-tenant grant/wait/preemption
// counters.
type SchedInfo = core.SchedStats

// PoolPolicyInfo is the wire form of a warm-pool policy. Zero fields
// take server-side defaults. core.PoolPolicy already carries its wire
// tags, so the wire form IS the policy.
type PoolPolicyInfo = core.PoolPolicy

// PoolInfo is the wire form of an enclave's warm pool: its policy plus
// live occupancy and hit/miss counters. Like the policy, core.PoolStats
// carries its own wire tags, so the wire form IS the stats.
type PoolInfo = core.PoolStats

// HealthInfo is the wire form of the cloud's degraded-mode snapshot:
// per-backend circuit-breaker states, degraded while any is open.
// core.HealthStatus carries its wire tags, so the wire form IS the
// status.
type HealthInfo = core.HealthStatus

// ResiliencePolicyInfo is the wire form of a resilience policy. Zero
// fields take server-side defaults; core.ResiliencePolicy carries its
// wire tags, so the wire form IS the policy.
type ResiliencePolicyInfo = core.ResiliencePolicy

// NodeFailureInfo is the wire form of a per-node batch failure.
type NodeFailureInfo struct {
	Node  string `json:"node"`
	Phase string `json:"phase"`
	Error string `json:"error"`
}

// PhaseTimingInfo is one canonical phase's aggregate across a batch.
type PhaseTimingInfo struct {
	Phase string        `json:"phase"`
	Nodes int           `json:"nodes"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// BatchResultInfo is the wire form of a finished acquisition.
type BatchResultInfo struct {
	Nodes   []string          `json:"nodes"`
	Failed  []NodeFailureInfo `json:"failed,omitempty"`
	Aborted []NodeFailureInfo `json:"aborted,omitempty"`
	Wall    time.Duration     `json:"wall_ns"`
	Phases  []PhaseTimingInfo `json:"phases,omitempty"`
}

// OperationInfo is the wire form of an Operation resource.
type OperationInfo struct {
	ID       string            `json:"id"`
	Enclave  string            `json:"enclave"`
	Image    string            `json:"image"`
	Count    int               `json:"count"`
	Phase    string            `json:"phase"`
	Created  time.Time         `json:"created"`
	Finished time.Time         `json:"finished,omitzero"`
	Progress map[string]string `json:"progress,omitempty"` // node -> latest lifecycle event
	Result   *BatchResultInfo  `json:"result,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// Terminal reports whether the operation has reached a final phase.
func (o *OperationInfo) Terminal() bool { return core.OpPhase(o.Phase).Terminal() }

// EventInfo is the wire form of one lifecycle journal event. Seq is the
// event's 1-based journal sequence number — stable across control-plane
// restarts, so a client that saw seq N before a crash resumes the feed
// with ?after=N and misses nothing, duplicates nothing.
type EventInfo struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Node   string    `json:"node"`
	Detail string    `json:"detail,omitempty"`
}

// createEnclaveRequest is the POST /v1/enclaves body.
type createEnclaveRequest struct {
	Name    string `json:"name"`
	Profile string `json:"profile"`
}

// acquireRequest is the POST /v1/enclaves/{name}/nodes:acquire body.
type acquireRequest struct {
	Image string `json:"image"`
	Count int    `json:"count"`
}

func batchResultInfo(res *core.BatchResult) *BatchResultInfo {
	if res == nil {
		return nil
	}
	out := &BatchResultInfo{Wall: res.Timings.Wall}
	for _, n := range res.Nodes {
		out.Nodes = append(out.Nodes, n.Name)
	}
	fails := func(fs []core.NodeFailure) []NodeFailureInfo {
		var w []NodeFailureInfo
		for _, f := range fs {
			w = append(w, NodeFailureInfo{Node: f.Node, Phase: f.Phase, Error: f.Err.Error()})
		}
		return w
	}
	out.Failed = fails(res.Failed)
	out.Aborted = fails(res.Aborted)
	for _, p := range res.Timings.Phases {
		out.Phases = append(out.Phases, PhaseTimingInfo{Phase: p.Phase, Nodes: p.Nodes, Total: p.Total, Max: p.Max})
	}
	return out
}

// operationInfo renders one atomic Status snapshot: "done" always
// carries its result.
func operationInfo(op *core.Operation, st core.OpStatus) *OperationInfo {
	info := &OperationInfo{
		ID:       op.ID,
		Enclave:  op.Enclave,
		Image:    op.Image,
		Count:    op.Count,
		Phase:    string(st.Phase),
		Created:  op.Created,
		Finished: st.Finished,
		Progress: make(map[string]string),
		Result:   batchResultInfo(st.Result),
	}
	for n, k := range st.Progress {
		info.Progress[n] = string(k)
	}
	if st.Err != nil {
		info.Error = st.Err.Error()
	}
	return info
}

// enclaveInfo renders an enclave with its open incident IDs, the control
// plane's "something is wrong here" flag.
func enclaveInfo(e *core.Enclave, incidents []string) *EnclaveInfo {
	info := &EnclaveInfo{Name: e.Project, Profile: e.Profile.Name, Nodes: make(map[string]string), Incidents: incidents}
	for n, st := range e.NodeStates() {
		info.Nodes[n] = string(st)
	}
	return info
}

// marshalOperation renders the resource exactly as json.Encoder would send
// it, newline included.
func marshalOperation(op *core.Operation, st core.OpStatus) ([]byte, error) {
	b, err := json.Marshal(operationInfo(op, st))
	return append(b, '\n'), err
}

// opWires keeps what marshalOperation made of terminal operations: a finished
// operation never changes, so its bytes are handed out by reference from
// then on (never modify them), while a running one is rendered from a fresh
// Status every time. Every GET /operations builds the memo anew, so it
// holds nothing the Manager has since pruned; a GET of one operation reads
// it and adds nothing. A map is never written once it is stored here.
type opWires struct {
	mu   sync.Mutex
	kept map[*core.Operation][]byte
}

func (ws *opWires) last() map[*core.Operation][]byte {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.kept
}

// one renders op and reports whether the bytes may be kept.
func (ws *opWires) one(op *core.Operation) ([]byte, bool, error) {
	return renderOperation(ws.last(), op)
}

func renderOperation(kept map[*core.Operation][]byte, op *core.Operation) (b []byte, keep bool, err error) {
	if b = kept[op]; b != nil {
		return b, true, nil
	}
	st := op.Status()
	b, err = marshalOperation(op, st)
	return b, err == nil && st.Phase.Terminal(), err
}

// list renders ops as the elements of an array (an element carries no
// newline of its own) and keeps the terminal ones.
func (ws *opWires) list(ops []*core.Operation) ([][]byte, error) {
	prev := ws.last()
	parts := make([][]byte, len(ops))
	kept := make(map[*core.Operation][]byte, len(ops))
	for i, op := range ops {
		b, keep, err := renderOperation(prev, op)
		if err != nil {
			return nil, err
		}
		if keep {
			kept[op] = b
		}
		parts[i] = b[:len(b)-1]
	}
	ws.mu.Lock()
	ws.kept = kept
	ws.mu.Unlock()
	return parts, nil
}

// writeV1Error maps an error onto the typed envelope: sentinel errors
// keep their identity across the wire (the client maps codes back), and
// everything else is an internal error.
func writeV1Error(w http.ResponseWriter, err error) {
	code, status := codeInternal, http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrNotFound), errors.Is(err, hil.ErrNotFound), errors.Is(err, bmi.ErrNotFound):
		code, status = codeNotFound, http.StatusNotFound
	case errors.Is(err, core.ErrExists):
		code, status = codeExists, http.StatusConflict
	case errors.Is(err, core.ErrConflict), errors.Is(err, hil.ErrInUse):
		code, status = codeConflict, http.StatusConflict
	case errors.Is(err, hil.ErrUnauthorized):
		code, status = codeUnauthorized, http.StatusForbidden
	case errors.Is(err, errInvalid), errors.Is(err, core.ErrInvalid):
		code, status = codeInvalid, http.StatusBadRequest
	case errors.Is(err, core.ErrOverQuota):
		// Admission-control rejection: 429 with a Retry-After hint so
		// well-behaved clients (V1Client does this transparently) back
		// off instead of hammering the control plane.
		code, status = codeExhausted, http.StatusTooManyRequests
		qe := new(core.QuotaError) // stays zero, so the default, when As finds none
		errors.As(err, &qe)
		setRetryAfter(w, qe.RetryAfter, core.DefaultRetryAfter)
	case errors.Is(err, core.ErrDegraded):
		// Degraded-mode fail-fast: a backend circuit breaker is open and
		// the control plane refuses new work rather than feeding it into
		// a dead service. 503 + Retry-After (the breaker's cooldown) so
		// clients back off until a probe can close it.
		code, status = codeUnavailable, http.StatusServiceUnavailable
		de := new(core.DegradedError)
		errors.As(err, &de)
		setRetryAfter(w, de.RetryAfter, time.Second)
	}
	httpjson.Reply(w, status, errorEnvelope{Error: apiError{Code: code, Message: err.Error()}})
}

// setRetryAfter sends a back-off hint in whole seconds, never fewer than
// one; an error that carries none (hint <= 0) gets def.
func setRetryAfter(w http.ResponseWriter, hint, def time.Duration) {
	if hint <= 0 {
		hint = def
	}
	w.Header().Set("Retry-After", strconv.Itoa(max(1, int(hint/time.Second))))
}

// clearWriteDeadline exempts one long-lived response (operation wait,
// event stream) from the server's WriteTimeout without loosening the
// bound for the rest of the surface.
func clearWriteDeadline(w http.ResponseWriter) {
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
}

// awaitIfAsked is the ?wait=1 long poll: it blocks until done closes. When
// the request ends first it answers with the typed error and reports false.
func awaitIfAsked(w http.ResponseWriter, r *http.Request, done <-chan struct{}) bool {
	if r.URL.Query().Get("wait") == "" {
		return true
	}
	// A long poll outlives any server WriteTimeout: an attested batch
	// boot is minutes long on real hardware.
	clearWriteDeadline(w)
	select {
	case <-done:
		return true
	case <-r.Context().Done():
		writeV1Error(w, fmt.Errorf("%w: wait interrupted: %v", errInvalid, r.Context().Err()))
		return false
	}
}

// bodyBufs recycles the buffers immutable history is assembled in.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJoined sends open + parts joined by sep + end in one Write of one
// pooled buffer. The parts are shared, immutable bytes (journal lines,
// terminal operations): they are copied here and nowhere else. A complete
// body goes out with its Content-Length instead of chunked.
func writeJoined(w http.ResponseWriter, complete bool, open string, parts [][]byte, sep, end string) error {
	bp := bodyBufs.Get().(*[]byte)
	buf := append((*bp)[:0], open...)
	for i, p := range parts {
		if i > 0 {
			buf = append(buf, sep...)
		}
		buf = append(buf, p...)
	}
	buf = append(buf, end...)
	if complete {
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	}
	_, err := w.Write(buf)
	*bp = buf
	bodyBufs.Put(bp)
	return err
}

// marshalLine is one NDJSON line of a feed whose items are not kept
// marshalled (revocations, incident updates).
func marshalLine(lines [][]byte, v any) [][]byte {
	b, _ := json.Marshal(v) // plain structs of strings, numbers and times
	return append(lines, append(b, '\n'))
}

// serveFeed is the one NDJSON feed writer. next yields what lies past the
// source's cursor: the lines to send (a journal's arrive already durable),
// a channel that wakes the feed when there may be more, and whether this
// batch is the last (a terminal operation, a read that does not follow).
// Every batch is one Write; a feed that follows flushes after each and is
// counted as a stream watcher; one that is complete after its first batch
// carries Content-Length. An error gets the typed envelope only while
// nothing — not even the header a flush commits — has gone out; after that
// the feed just ends.
func (vm v1Metrics) serveFeed(w http.ResponseWriter, r *http.Request, follow bool,
	next func() (lines [][]byte, notify <-chan struct{}, last bool, err error)) {
	w.Header().Set("Content-Type", "application/x-ndjson") // an envelope replaces it
	flush := func() {}
	if follow {
		// The stream follows live — possibly for minutes.
		clearWriteDeadline(w)
		var done func()
		flush, done = vm.stream(r.Pattern, w)
		defer done()
	}
	for first := true; ; first = false {
		lines, notify, last, err := next()
		if err != nil {
			if first {
				writeV1Error(w, err)
			}
			return
		}
		if writeJoined(w, first && last, "", lines, "", "") != nil || last {
			return
		}
		flush()
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// v1 is what the /v1 handlers share: the Manager they serve, the stream
// instruments (resolved from the manager's registry; no-ops without one)
// and the kept bytes of terminal operations.
type v1 struct {
	mgr   *core.Manager
	vm    v1Metrics
	wires opWires
}

// handlerFunc is a typed row of the route table: it answers a request
// with a status and a JSON body (nil for none), or with an error, and
// never sees the ResponseWriter — ServeHTTP below is the one place a
// typed row's reply, success or envelope, is written.
type handlerFunc func(r *http.Request) (status int, body any, err error)

// located is a reply body that also says where the resource it shows
// lives: ServeHTTP sends Location beside it.
type located struct {
	at   string
	body any
}

func (h handlerFunc) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	status, body, err := h(r)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	if l, ok := body.(located); ok {
		w.Header().Set("Location", l.at)
		body = l.body
	}
	httpjson.Reply(w, status, body)
}

// withBody adapts a row that takes a JSON request body: the body is read
// under httpjson's size cap, and one that is malformed or too large is
// the typed invalid_argument envelope.
func withBody[T any](h func(r *http.Request, req T) (int, any, error)) handlerFunc {
	return func(r *http.Request) (int, any, error) {
		var req T
		if err := httpjson.Decode(r, &req); err != nil {
			return 0, nil, fmt.Errorf("%w: %v", errInvalid, err)
		}
		return h(r, req)
	}
}

// verb splits a custom-verb segment ("op-0001:cancel"): the ServeMux
// wildcard spans the whole segment, so the verb is cut off by hand. noun
// names the resource in the error for any verb but want.
func verb(r *http.Request, wildcard, want, noun string) (string, error) {
	name, v, ok := strings.Cut(r.PathValue(wildcard), ":")
	if !ok || v != want {
		return "", fmt.Errorf("%w: unknown %s verb %q", errInvalid, noun, v)
	}
	return name, nil
}

// createdOr200 is the status of a PUT that creates or updates.
func createdOr200(created bool) int {
	if created {
		return http.StatusCreated
	}
	return http.StatusOK
}

// route is one row of the /v1 route table: a ServeMux pattern and its
// handler — a typed handlerFunc, or a raw http.HandlerFunc for the rows
// that send kept bytes, stream, or hold the connection for a long poll.
type route struct {
	pattern string
	h       http.Handler
}

// routes is the whole /v1 surface. Adding a route is one row here and
// one row in a README route table (TestV1RouteTable checks both).
func (s *v1) routes() []route {
	return []route{
		{"POST /enclaves", withBody(s.createEnclave)},
		{"GET /enclaves", handlerFunc(s.listEnclaves)},
		{"GET /enclaves/{name}", handlerFunc(s.getEnclave)},
		{"DELETE /enclaves/{name}", handlerFunc(s.deleteEnclave)},
		{"POST /enclaves/{name}/nodes:acquire", withBody(s.acquire)},
		{"DELETE /enclaves/{name}/nodes/{node}", handlerFunc(s.releaseNode)},
		{"POST /enclaves/{name}/nodes/{nodeverb}", handlerFunc(s.reclaimNode)},

		{"GET /operations", http.HandlerFunc(s.listOperations)},
		{"GET /operations/{id}", http.HandlerFunc(s.getOperation)},
		{"POST /operations/{idverb}", handlerFunc(s.cancelOperation)},
		{"GET /operations/{id}/events", http.HandlerFunc(s.operationEvents)},
		{"GET /operations/{id}/trace", http.HandlerFunc(s.operationTrace)},

		{"PUT /pools/{enclave}", withBody(s.putPool)},
		{"GET /pools", handlerFunc(s.listPools)},
		{"GET /pools/{enclave}", handlerFunc(s.getPool)},
		{"POST /pools/{enclaveverb}", handlerFunc(s.drainPool)},
		{"DELETE /pools/{enclave}", handlerFunc(s.deletePool)},

		{"PUT /quotas/{tenant}", withBody(s.putQuota)},
		{"GET /quotas", handlerFunc(s.listQuotas)},
		{"GET /quotas/{tenant}", handlerFunc(s.getQuota)},
		{"DELETE /quotas/{tenant}", handlerFunc(s.deleteQuota)},
		{"GET /sched", handlerFunc(s.sched)},

		{"GET /health", handlerFunc(s.health)},
		{"GET /resilience", handlerFunc(s.getResilience)},
		{"PUT /resilience", withBody(s.putResilience)},
		{"GET /enclaves/{name}/resilience", handlerFunc(s.getResilience)},
		{"PUT /enclaves/{name}/resilience", withBody(s.putResilience)},

		{"PUT /enclaves/{name}/guard", withBody(s.putGuard)},
		{"GET /enclaves/{name}/guard", handlerFunc(s.getGuard)},
		{"DELETE /enclaves/{name}/guard", handlerFunc(s.deleteGuard)},
		{"GET /enclaves/{name}/revocations", http.HandlerFunc(s.revocations)},
		{"GET /enclaves/{name}/events", http.HandlerFunc(s.enclaveEvents)},
		{"GET /incidents", http.HandlerFunc(s.incidents)},
		{"GET /incidents/{id}", http.HandlerFunc(s.getIncident)},
	}
}

// NewV1Handler serves the tenant control plane for one Manager. Mount
// it under /v1 (NewHandler does this for a full-surface boltedd).
func NewV1Handler(mgr *core.Manager) http.Handler {
	s := &v1{mgr: mgr, vm: newV1Metrics(mgr.Metrics())}
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.pattern, rt.h)
	}
	// Per-route request latency/status wraps the whole surface; with no
	// registry attached this returns the mux untouched.
	return instrumentMux(mgr.Metrics(), mux)
}

// --- enclaves and acquisitions ---

func (s *v1) createEnclave(r *http.Request, req createEnclaveRequest) (int, any, error) {
	if req.Name == "" {
		return 0, nil, fmt.Errorf("%w: enclave needs a name", errInvalid)
	}
	profile, ok := core.ProfileByName(req.Profile)
	if !ok {
		return 0, nil, fmt.Errorf("%w: unknown profile %q (want alice, bob or charlie)", errInvalid, req.Profile)
	}
	e, err := s.mgr.CreateEnclave(req.Name, profile)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusCreated, enclaveInfo(e, nil), nil
}

func (s *v1) listEnclaves(*http.Request) (int, any, error) {
	out := []*EnclaveInfo{} // empty list is [], never null, on the wire
	for _, name := range s.mgr.ListEnclaves() {
		if e, err := s.mgr.Enclave(name); err == nil {
			out = append(out, enclaveInfo(e, s.mgr.OpenIncidentIDs(e.Project)))
		}
	}
	return http.StatusOK, out, nil
}

func (s *v1) getEnclave(r *http.Request) (int, any, error) {
	e, err := s.mgr.Enclave(r.PathValue("name"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, enclaveInfo(e, s.mgr.OpenIncidentIDs(e.Project)), nil
}

func (s *v1) deleteEnclave(r *http.Request) (int, any, error) {
	return http.StatusNoContent, nil, s.mgr.DeleteEnclave(r.PathValue("name"))
}

// acquire is the custom verb POST /enclaves/{name}/nodes:acquire: it
// starts a batch and answers 202 with the Operation — the multi-minute
// pipeline never blocks the request. An Idempotency-Key header makes the
// submission replay-safe: a retry of a key the durable store already
// maps to an operation answers 200 with that operation instead of
// starting a second batch.
func (s *v1) acquire(r *http.Request, req acquireRequest) (int, any, error) {
	if req.Image == "" || req.Count < 1 {
		return 0, nil, fmt.Errorf("%w: acquisition needs an image and a count >= 1", errInvalid)
	}
	op, replayed, err := s.mgr.StartAcquireIdem(r.PathValue("name"), req.Image, req.Count, r.Header.Get("Idempotency-Key"))
	if err != nil {
		return 0, nil, err
	}
	status := http.StatusAccepted
	if replayed {
		status = http.StatusOK
	}
	return status, located{at: prefixV1 + "/operations/" + op.ID, body: operationInfo(op, op.Status())}, nil
}

func (s *v1) releaseNode(r *http.Request) (int, any, error) {
	e, err := s.mgr.Enclave(r.PathValue("name"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusNoContent, nil, e.ReleaseNode(r.PathValue("node"), r.URL.Query().Get("saveAs"))
}

// reclaimNode is the custom verb POST /enclaves/{name}/nodes/{node}:reclaim,
// the operator's scrub-and-return path for a rejected-pool node — after
// repair, the node is powered off, freed back to the provider's free
// pool, and the recovery journaled.
func (s *v1) reclaimNode(r *http.Request) (int, any, error) {
	node, err := verb(r, "nodeverb", "reclaim", "node")
	if err != nil {
		return 0, nil, err
	}
	return http.StatusNoContent, nil, s.mgr.ReclaimNode(r.Context(), r.PathValue("name"), node)
}

// --- operations ---
//
// Operation reads serve bytes: a terminal operation is marshalled once
// (opWires), a running one afresh on every request.

func (s *v1) listOperations(w http.ResponseWriter, r *http.Request) {
	parts, err := s.wires.list(s.mgr.ListOperations())
	if err != nil {
		writeV1Error(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = writeJoined(w, true, "[", parts, ",", "]\n") // no operations is [], never null
}

// getOperation polls; ?wait=1 long-polls until the operation is terminal
// (or the request context ends).
func (s *v1) getOperation(w http.ResponseWriter, r *http.Request) {
	op, err := s.mgr.Operation(r.PathValue("id"))
	if err != nil {
		writeV1Error(w, err)
		return
	}
	if !awaitIfAsked(w, r, op.Done()) {
		return
	}
	b, _, err := s.wires.one(op)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
}

// cancelOperation is the custom verb POST /operations/{id}:cancel.
func (s *v1) cancelOperation(r *http.Request) (int, any, error) {
	id, err := verb(r, "idverb", "cancel", "operation")
	if err != nil {
		return 0, nil, err
	}
	op, err := s.mgr.Operation(id)
	if err != nil {
		return 0, nil, err
	}
	op.Cancel()
	return http.StatusOK, operationInfo(op, op.Status()), nil
}

// operationEvents streams the operation's lifecycle journal as NDJSON:
// replay from ?from=N, then follow live until the operation is terminal.
// The journal fan-out guarantees no event is lost between a snapshot and
// the wait for the next.
func (s *v1) operationEvents(w http.ResponseWriter, r *http.Request) {
	op, err := s.mgr.Operation(r.PathValue("id"))
	if err != nil {
		writeV1Error(w, err)
		return
	}
	cursor, err := cursorParam(r)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	s.vm.serveFeed(w, r, true, func() ([][]byte, <-chan struct{}, bool, error) {
		lines, notify, terminal, err := op.LinesSince(cursor)
		cursor += len(lines)
		return lines, notify, terminal, err
	})
}

// operationTrace returns the operation's span tree as NDJSON: one root
// span for the operation plus one span per node × pipeline phase, each
// carrying start/end timestamps and any error. The tracer retains the
// most recent MaxRetainedOps traces; an evicted or restored-from-WAL
// operation answers 404.
func (s *v1) operationTrace(w http.ResponseWriter, r *http.Request) {
	spans, err := s.mgr.OperationTrace(r.PathValue("id"))
	if err != nil {
		writeV1Error(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteNDJSON(w, spans)
}

// --- warm pools ---

// putPool creates the enclave's warm pool or updates an existing one's
// policy; zero fields take defaults. 201 on create, 200 on update.
func (s *v1) putPool(r *http.Request, req PoolPolicyInfo) (int, any, error) {
	st, created, err := s.mgr.ConfigurePool(r.PathValue("enclave"), req)
	if err != nil {
		return 0, nil, err
	}
	return createdOr200(created), st, nil
}

func (s *v1) listPools(*http.Request) (int, any, error) {
	// empty list is [], never null, on the wire
	return http.StatusOK, append([]PoolInfo{}, s.mgr.ListPools()...), nil
}

func (s *v1) getPool(r *http.Request) (int, any, error) {
	st, err := s.mgr.PoolStats(r.PathValue("enclave"))
	return http.StatusOK, st, err
}

// drainPool is the custom verb POST /pools/{enclave}:drain: it releases
// every parked standby back to the free pool and idles the refiller.
func (s *v1) drainPool(r *http.Request) (int, any, error) {
	enclave, err := verb(r, "enclaveverb", "drain", "pool")
	if err != nil {
		return 0, nil, err
	}
	st, err := s.mgr.DrainPool(enclave)
	return http.StatusOK, st, err
}

func (s *v1) deletePool(r *http.Request) (int, any, error) {
	name := r.PathValue("enclave")
	had, err := s.mgr.DetachPool(name)
	if err == nil && !had {
		err = fmt.Errorf("%w: enclave %q has no warm pool", core.ErrNotFound, name)
	}
	return http.StatusNoContent, nil, err
}

// --- tenant QoS: quotas and the scheduler ---

// putQuota creates or replaces a tenant's quota (weight, node cap,
// in-flight cap). 201 on create, 200 on update.
func (s *v1) putQuota(r *http.Request, req TenantQuotaInfo) (int, any, error) {
	st, created, err := s.mgr.SetQuota(r.PathValue("tenant"), req)
	if err != nil {
		return 0, nil, err
	}
	return createdOr200(created), st, nil
}

func (s *v1) listQuotas(*http.Request) (int, any, error) {
	// empty list is [], never null, on the wire
	return http.StatusOK, append([]QuotaInfo{}, s.mgr.ListQuotas()...), nil
}

func (s *v1) getQuota(r *http.Request) (int, any, error) {
	st, err := s.mgr.Quota(r.PathValue("tenant"))
	return http.StatusOK, st, err
}

func (s *v1) deleteQuota(r *http.Request) (int, any, error) {
	return http.StatusNoContent, nil, s.mgr.DeleteQuota(r.PathValue("tenant"))
}

// sched exposes the airlock scheduler: slot occupancy, queue depth,
// per-tenant grants/waits and preemption counters — the observability
// half of the fairness story.
func (s *v1) sched(*http.Request) (int, any, error) {
	return http.StatusOK, s.mgr.SchedStats(), nil
}

// --- resilience and degraded mode ---

// health is the degraded-mode snapshot: per-backend breaker states,
// degraded while any is open. Always 200 — the body says whether the
// cloud is degraded; the endpoint answering at all says the control
// plane is up.
func (s *v1) health(*http.Request) (int, any, error) {
	return http.StatusOK, s.mgr.Health(), nil
}

// getResilience and putResilience read and replace a resilience policy
// (retry budget, backoff, breaker thresholds, phase deadline): the
// cloud-wide one on /resilience, where there is no {name}, and one
// enclave's override on /enclaves/{name}/resilience (phase deadlines act
// per enclave; retry and breaker parameters stay cloud-wide where the
// backends are wrapped). Zero fields in a PUT take server defaults.
func (s *v1) getResilience(r *http.Request) (int, any, error) {
	pol, err := s.mgr.ResiliencePolicyFor(r.PathValue("name"))
	return http.StatusOK, pol, err
}

func (s *v1) putResilience(r *http.Request, req ResiliencePolicyInfo) (int, any, error) {
	pol, err := s.mgr.ConfigureResilience(r.PathValue("name"), req)
	return http.StatusOK, pol, err
}

// --- runtime attestation guard and incident response ---

// attachedGuard resolves an enclave's guard to the concrete type the /v1
// surface serves (the manager registry is interface-typed).
func (s *v1) attachedGuard(name string) (*guard.Guard, error) {
	gc, ok := s.mgr.Guard(name)
	if !ok {
		return nil, fmt.Errorf("%w: enclave %q has no guard enabled", core.ErrNotFound, name)
	}
	g, ok := gc.(*guard.Guard)
	if !ok {
		return nil, fmt.Errorf("remote: enclave %q has a non-standard guard controller", name)
	}
	return g, nil
}

// putGuard enables the guard (or updates the policy of an already-enabled
// one); zero fields take defaults. Idempotent: a retried or concurrent
// PUT that loses the enable race degrades to a policy update.
func (s *v1) putGuard(r *http.Request, req GuardPolicyInfo) (int, any, error) {
	name := r.PathValue("name")
	if _, ok := s.mgr.Guard(name); !ok {
		g, err := guard.Enable(s.mgr, name, req)
		if err == nil {
			return http.StatusCreated, g.Status(), nil
		}
		if !errors.Is(err, core.ErrExists) {
			return 0, nil, err
		}
		// Lost an enable race; fall through to the update path.
	}
	g, err := s.attachedGuard(name)
	if err != nil {
		return 0, nil, err
	}
	if err := g.SetPolicy(req); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, g.Status(), nil
}

func (s *v1) getGuard(r *http.Request) (int, any, error) {
	g, err := s.attachedGuard(r.PathValue("name"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, g.Status(), nil
}

func (s *v1) deleteGuard(r *http.Request) (int, any, error) {
	name := r.PathValue("name")
	if !s.mgr.DetachGuard(name) {
		return 0, nil, fmt.Errorf("%w: enclave %q has no guard enabled", core.ErrNotFound, name)
	}
	return http.StatusNoContent, nil, nil
}

// revocations is the wire form of the verifier's revocation feed
// (keylime.Verifier.Subscribe): a JSON snapshot from ?from=N, or — with
// ?watch=1 — an NDJSON stream that replays and then follows live.
func (s *v1) revocations(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("watch") == "" {
		handlerFunc(s.listRevocations).ServeHTTP(w, r)
		return
	}
	name := r.PathValue("name")
	cursor, err := cursorParam(r)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	// A bad name fails the first batch, which still gets the typed
	// envelope; a later failure is the enclave deleted mid-stream.
	s.vm.serveFeed(w, r, true, func() ([][]byte, <-chan struct{}, bool, error) {
		evs, notify, next, err := s.mgr.RevocationsSince(name, cursor)
		var lines [][]byte
		for i, ev := range evs {
			lines = marshalLine(lines, revocationInfo(uint64(next-len(evs)+i+1), ev))
		}
		cursor = next
		return lines, notify, false, err
	})
}

func (s *v1) listRevocations(r *http.Request) (int, any, error) {
	cursor, err := cursorParam(r)
	if err != nil {
		return 0, nil, err
	}
	evs, _, next, err := s.mgr.RevocationsSince(r.PathValue("name"), cursor)
	if err != nil {
		return 0, nil, err
	}
	out := []RevocationInfo{}
	for i, ev := range evs {
		out = append(out, revocationInfo(uint64(next-len(evs)+i+1), ev))
	}
	return http.StatusOK, out, nil
}

// enclaveEvents exposes the enclave lifecycle journal itself — unlike
// /operations/{id}/events it is not scoped to one acquisition, so runtime
// events (revoked, quarantined, rekeyed, healed) recorded long after a
// batch finished remain observable. NDJSON; ?from=N replays from a
// cursor, ?follow=1 keeps following live.
func (s *v1) enclaveEvents(w http.ResponseWriter, r *http.Request) {
	e, err := s.mgr.Enclave(r.PathValue("name"))
	if err != nil {
		writeV1Error(w, err)
		return
	}
	cursor, err := cursorParam(r)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	follow := r.URL.Query().Get("follow") != ""
	j := e.Journal()
	var notify chan struct{}
	if follow {
		// Watch before the first read, so no event falls between a
		// batch and the wait for the next.
		notify = make(chan struct{}, 1)
		defer j.Watch(func(core.Event) {
			select {
			case notify <- struct{}{}:
			default:
			}
		})()
	}
	s.vm.serveFeed(w, r, follow, func() ([][]byte, <-chan struct{}, bool, error) {
		lines, err := j.LinesSince(cursor)
		cursor += len(lines)
		return lines, notify, !follow, err
	})
}

// incidents lists incident resources (?enclave= filters); with ?watch=1
// it becomes an NDJSON stream of incident-status updates, replaying from
// ?from=N and then following live. The cursor counts feed positions, so
// it stays meaningful with and without a filter.
func (s *v1) incidents(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("watch") == "" {
		handlerFunc(s.listIncidents).ServeHTTP(w, r)
		return
	}
	cursor, err := cursorParam(r)
	if err != nil {
		writeV1Error(w, err)
		return
	}
	enclave := r.URL.Query().Get("enclave")
	s.vm.serveFeed(w, r, true, func() ([][]byte, <-chan struct{}, bool, error) {
		updates, notify, next := s.mgr.IncidentUpdatesSince(cursor)
		var lines [][]byte
		for i, st := range updates {
			if enclave != "" && st.Enclave != enclave {
				continue // filtered out; cursor still advances
			}
			info := incidentInfo(st)
			info.Seq = uint64(next - len(updates) + i + 1)
			lines = marshalLine(lines, info)
		}
		cursor = next
		return lines, notify, false, nil
	})
}

func (s *v1) listIncidents(r *http.Request) (int, any, error) {
	if _, err := cursorParam(r); err != nil {
		return 0, nil, err
	}
	out := []*IncidentInfo{} // empty list is [], never null
	for _, inc := range s.mgr.ListIncidents(r.URL.Query().Get("enclave")) {
		out = append(out, incidentInfo(inc.Status()))
	}
	return http.StatusOK, out, nil
}

// getIncident polls; ?wait=1 long-polls until the incident reaches a
// terminal state.
func (s *v1) getIncident(w http.ResponseWriter, r *http.Request) {
	inc, err := s.mgr.Incident(r.PathValue("id"))
	if err != nil {
		writeV1Error(w, err)
		return
	}
	if !awaitIfAsked(w, r, inc.Done()) {
		return
	}
	httpjson.Reply(w, http.StatusOK, incidentInfo(inc.Status()))
}

// cursorParam parses the replay cursor: ?from=N (0-based feed
// position, 0 when absent) or its alias ?after=N ("resume past seq N").
// Seqs are 1-based and contiguous, so the two coincide numerically —
// after=7 means "I have seqs 1..7", which is exactly from=7 — and
// because seqs are restored from the durable store, an after= cursor
// taken before a crash resumes the same feed after a restart.
func cursorParam(r *http.Request) (int, error) {
	q := r.URL.Query()
	val, name := q.Get("from"), "from"
	if after := q.Get("after"); after != "" {
		if val != "" {
			return 0, fmt.Errorf("%w: give either from= or after=, not both", errInvalid)
		}
		val, name = after, "after"
	}
	if val == "" {
		return 0, nil
	}
	cursor, err := strconv.Atoi(val)
	if err != nil || cursor < 0 {
		return 0, fmt.Errorf("%w: bad %s cursor %q", errInvalid, name, val)
	}
	return cursor, nil
}
