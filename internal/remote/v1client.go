package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"bolted/internal/core"
	"bolted/internal/hil"
	"bolted/internal/httpjson"
	"bolted/internal/obs"
)

// ErrTransport marks a control-plane response that never came from
// boltedd's typed error surface: a proxy 502, a load balancer's HTML
// error page, a truncated body. Client code can branch on it with
// errors.Is instead of string-matching raw statuses.
var ErrTransport = errors.New("remote: transport error")

// TransportError is an ErrTransport carrying the raw HTTP evidence.
type TransportError struct {
	StatusCode int
	Status     string
	Body       string // sanitized non-JSON error body (truncated)
}

func (e *TransportError) Error() string {
	if e.Body == "" {
		return fmt.Sprintf("remote: transport error: %s", e.Status)
	}
	return fmt.Sprintf("remote: transport error: %s: %s", e.Status, e.Body)
}

// Is makes errors.Is(err, ErrTransport) true for every TransportError.
func (e *TransportError) Is(target error) bool { return target == ErrTransport }

// Transient marks transport errors retryable for the resilience layer:
// a proxy 502 or a truncated body says nothing about whether the
// operation can succeed on a re-send, so callers may try again.
func (e *TransportError) Transient() bool { return true }

// V1Client is the typed binding for the /v1 tenant control plane: the
// enclave, acquisition and operation resources as Go calls, with wire
// error envelopes decoded back into the same sentinel errors the
// in-process API returns (errors.Is works identically against either
// surface).
type V1Client struct {
	base string
	http *http.Client

	// MaxQuotaRetries overrides how many times a quota-rejected (429)
	// request is transparently re-sent before ErrOverQuota surfaces.
	// nil means the default (3); point at 0 to disable retries.
	MaxQuotaRetries *int

	// Client-side instruments (SetMetrics). Nil without a registry;
	// every method on a nil instrument is a no-op.
	quotaRetries *obs.Counter
	redials      *obs.Counter

	// listed memoises ListOperations: the last reply's elements by their
	// exact bytes.
	listMu sync.Mutex
	listed map[string]*listedOp
}

// listedOp is one parsed element of a GET /operations reply; raw is the
// element's bytes, the key it is found under.
type listedOp struct {
	raw  string
	info *OperationInfo
}

// SetMetrics attaches client-side instruments: transparent 429 retries
// (bolted_client_quota_retries_total) and transport re-dials — TCP
// connections the pool could not serve from a keep-alive
// (bolted_client_redials_total). Counting dials needs this client to
// stop sharing the package-wide transport, so SetMetrics gives it a
// private clone with its own pool; call it right after NewV1Client,
// before any requests, or early traffic rides the uncounted shared
// pool.
func (c *V1Client) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.quotaRetries = reg.Counter("bolted_client_quota_retries_total",
		"Quota-rejected (429) control-plane requests transparently re-sent after backoff.")
	c.redials = reg.Counter("bolted_client_redials_total",
		"TCP connections the control-plane client's transport had to open (keep-alive misses).")
	t := sharedTransport.Clone()
	base := t.DialContext
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c.redials.Inc()
		return base(ctx, network, addr)
	}
	c.http = &http.Client{Transport: t}
}

// NewV1Client returns a control-plane client for a boltedd base URL
// (the /v1 prefix is implied). It shares the package's pooled
// transport, so polling loops and event streams reuse connections.
func NewV1Client(serverURL string) *V1Client {
	return &V1Client{base: strings.TrimRight(serverURL, "/") + prefixV1, http: sharedHTTPClient}
}

// decodeV1Error turns a non-2xx response into the sentinel the server
// mapped from, so client code branches with errors.Is exactly as it
// would in process. It is the httpjson.ErrorFunc of every /v1 call.
func decodeV1Error(resp *http.Response, body []byte) error {
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		// Not boltedd's typed envelope: something between the client
		// and the server answered (proxy 502, LB error page). Surface
		// it as a typed transport error, not an anonymous string.
		return &TransportError{StatusCode: resp.StatusCode, Status: resp.Status, Body: string(body[:min(len(body), 256)])}
	}
	msg := env.Error.Message
	wrap := func(sentinel error) error {
		// The server-side message usually already starts with the
		// sentinel's own text; don't print it twice.
		if rest, ok := strings.CutPrefix(msg, sentinel.Error()); ok {
			return fmt.Errorf("%w%s", sentinel, rest)
		}
		return fmt.Errorf("%w: %s", sentinel, msg)
	}
	switch env.Error.Code {
	case codeNotFound:
		return wrap(core.ErrNotFound)
	case codeExists:
		return wrap(core.ErrExists)
	case codeConflict:
		return wrap(core.ErrConflict)
	case codeUnauthorized:
		return wrap(hil.ErrUnauthorized)
	case codeInvalid:
		return wrap(core.ErrInvalid)
	case codeExhausted:
		// Rebuild the QuotaError so errors.Is(err, core.ErrOverQuota)
		// works and the Retry-After hint survives the wire.
		detail := strings.TrimPrefix(msg, core.ErrOverQuota.Error()+": ")
		return &core.QuotaError{Detail: detail, RetryAfter: retryAfter(resp, core.DefaultRetryAfter)}
	case codeUnavailable:
		// Rebuild the DegradedError so errors.Is(err, core.ErrDegraded)
		// works and the Retry-After hint survives the wire.
		de := &core.DegradedError{RetryAfter: retryAfter(resp, time.Second)}
		if rest, ok := strings.CutPrefix(msg, core.ErrDegraded.Error()+": "); ok {
			if b, _, found := strings.Cut(rest, " "); found || b != "" {
				de.Backend = b
			}
		}
		return de
	default:
		return fmt.Errorf("remote: %s: %s", env.Error.Code, msg)
	}
}

// retryAfter reads the server's back-off hint (whole seconds); def when
// the header is absent or malformed.
func retryAfter(resp *http.Response, def time.Duration) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return def
}

// Quota-retry defaults: how many times do re-sends a 429-rejected
// request before surfacing ErrOverQuota, and the cap on one backoff.
const (
	defaultQuotaRetries  = 3
	maxQuotaRetryBackoff = 5 * time.Second
)

// do runs one control-plane request; out (when non-nil) receives the
// decoded 2xx body. Quota rejections (429 + Retry-After) are retried
// transparently with capped, jittered backoff — up to
// MaxQuotaRetries re-sends — before the ErrOverQuota surfaces.
func (c *V1Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	_, err := c.doHdr(ctx, method, path, nil, body, out)
	return err
}

// doHdr is do with extra request headers (e.g. Idempotency-Key) and the
// 2xx status code reported back — the acquire path branches on 200
// (idempotent replay) vs 202 (new operation). Quota retries re-send the
// same headers, so a retried acquisition keeps its key.
func (c *V1Client) doHdr(ctx context.Context, method, path string, hdr http.Header, body, out interface{}) (int, error) {
	b, err := httpjson.Marshal(body)
	if err != nil {
		return 0, err
	}
	retries := defaultQuotaRetries
	if c.MaxQuotaRetries != nil {
		retries = *c.MaxQuotaRetries
	}
	for attempt := 0; ; attempt++ {
		status, err := httpjson.CallRaw(ctx, c.http, method, c.base+path, hdr, b, out, decodeV1Error)
		var qe *core.QuotaError
		if err == nil || !errors.As(err, &qe) || attempt >= retries {
			return status, err
		}
		delay := qe.RetryAfter
		if delay <= 0 {
			delay = core.DefaultRetryAfter
		}
		// Full jitter in [delay/2, delay] over the server's hint, which
		// does not grow per attempt: a thundering herd of rejected
		// tenants must not re-synchronize on it.
		delay = core.Backoff(delay, maxQuotaRetryBackoff, 1)
		c.quotaRetries.Inc()
		// time.After would leak its timer for the full delay after a
		// cancellation; a stopped timer frees it as soon as ctx ends,
		// and the caller gets ctx.Err() promptly instead of sleeping
		// out the rest of the hint.
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return 0, fmt.Errorf("remote: %w (while backing off from %w)", ctx.Err(), qe)
		}
	}
}

// call is do for the methods that return the one resource the reply
// carries.
func call[T any](ctx context.Context, c *V1Client, method, path string, body any) (*T, error) {
	var out T
	if err := c.do(ctx, method, path, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// list is a GET whose reply is an array of T.
func list[T any](ctx context.Context, c *V1Client, path string) ([]T, error) {
	out, err := call[[]T](ctx, c, "GET", path, nil)
	if err != nil {
		return nil, err
	}
	return *out, nil
}

// CreateEnclave creates a named enclave under a profile ("alice",
// "bob" or "charlie").
func (c *V1Client) CreateEnclave(ctx context.Context, name, profile string) (*EnclaveInfo, error) {
	return call[EnclaveInfo](ctx, c, "POST", "/enclaves", createEnclaveRequest{Name: name, Profile: profile})
}

// ListEnclaves returns every enclave resource.
func (c *V1Client) ListEnclaves(ctx context.Context) ([]*EnclaveInfo, error) {
	return list[*EnclaveInfo](ctx, c, "/enclaves")
}

// GetEnclave returns one enclave resource.
func (c *V1Client) GetEnclave(ctx context.Context, name string) (*EnclaveInfo, error) {
	return call[EnclaveInfo](ctx, c, "GET", "/enclaves/"+url.PathEscape(name), nil)
}

// DeleteEnclave releases every node and removes the enclave. It fails
// with core.ErrConflict while an operation on it is still running.
func (c *V1Client) DeleteEnclave(ctx context.Context, name string) error {
	return c.do(ctx, "DELETE", "/enclaves/"+url.PathEscape(name), nil, nil)
}

// Acquire starts an asynchronous batch acquisition and returns the
// Operation resource immediately (phase pending or running). Follow it
// with GetOperation / WaitOperation / StreamEvents, or stop it with
// CancelOperation.
func (c *V1Client) Acquire(ctx context.Context, enclave, image string, n int) (*OperationInfo, error) {
	op, _, err := c.AcquireIdem(ctx, enclave, image, n, "")
	return op, err
}

// AcquireIdem is Acquire with an idempotency key: a retry of a key the
// control plane already committed (even across a server restart —
// the key→operation mapping is durable) returns the original operation
// with replayed=true instead of starting a second batch. An empty key
// degrades to plain Acquire.
func (c *V1Client) AcquireIdem(ctx context.Context, enclave, image string, n int, key string) (op *OperationInfo, replayed bool, err error) {
	var hdr http.Header
	if key != "" {
		hdr = http.Header{"Idempotency-Key": {key}}
	}
	var info OperationInfo
	status, err := c.doHdr(ctx, "POST", "/enclaves/"+url.PathEscape(enclave)+"/nodes:acquire", hdr,
		acquireRequest{Image: image, Count: n}, &info)
	if err != nil {
		return nil, false, err
	}
	// The server answers 200 for a replayed key, 202 for a new batch.
	return &info, status == http.StatusOK, nil
}

// ReleaseNode removes a node from an enclave and returns it to the
// free pool; a non-empty saveAs preserves its volume as an image.
func (c *V1Client) ReleaseNode(ctx context.Context, enclave, node, saveAs string) error {
	path := "/enclaves/" + url.PathEscape(enclave) + "/nodes/" + url.PathEscape(node)
	if saveAs != "" {
		path += "?saveAs=" + url.QueryEscape(saveAs)
	}
	return c.do(ctx, "DELETE", path, nil, nil)
}

// ListOperations returns every operation resource, oldest first. The
// results are read-only: a finished operation never changes, so an element
// whose exact bytes the previous reply also carried is not parsed again —
// the caller gets the *OperationInfo it got last time. The memo is rebuilt
// from each reply, so it never holds more than the list does.
func (c *V1Client) ListOperations(ctx context.Context) ([]*OperationInfo, error) {
	resp, err := httpjson.Do(ctx, c.http, "GET", c.base+"/operations", nil, nil, decodeV1Error)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body := bytes.NewBuffer(make([]byte, 0, max(resp.ContentLength, 0)+bytes.MinRead))
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	elems, err := splitArray(body.Bytes())
	if err != nil {
		return nil, err
	}
	c.listMu.Lock()
	defer c.listMu.Unlock()
	next := make(map[string]*listedOp, len(elems))
	out := make([]*OperationInfo, len(elems))
	for i, el := range elems {
		op := c.listed[string(el)]
		if op == nil {
			op = &listedOp{raw: string(el), info: new(OperationInfo)}
			if err := json.Unmarshal(el, op.info); err != nil {
				return nil, fmt.Errorf("remote: bad operation in list: %w", err)
			}
		}
		next[op.raw], out[i] = op, op.info
	}
	c.listed = next // whatever this reply no longer lists (pruned, changed) is dropped
	return out, nil
}

// splitArray cuts a JSON array into its top-level elements in one pass,
// aware of strings and nesting but blind to what an element says: each
// element is either handed to json.Unmarshal or byte-equal to one that was,
// so malformed content is still rejected, one element at a time.
func splitArray(b []byte) ([][]byte, error) {
	bad := func(at int) ([][]byte, error) {
		return nil, fmt.Errorf("remote: malformed JSON array at byte %d of %d", at, len(b))
	}
	const space = " \t\r\n" // JSON's whitespace, not Unicode's
	b = bytes.Trim(b, space)
	if len(b) < 2 || b[0] != '[' {
		return bad(0)
	}
	var elems [][]byte
	depth, start := 0, 1
	for i := 1; i < len(b); i++ {
		switch ch := b[i]; ch {
		case '"':
			// Skip the string: to the first quote an even run of
			// backslashes (none, usually) precedes.
			for escaped := true; escaped; {
				n := bytes.IndexByte(b[i+1:], '"')
				if n < 0 {
					return bad(len(b))
				}
				i += n + 1
				k := i
				for b[k-1] == '\\' {
					k--
				}
				escaped = (i-k)%2 == 1
			}
		case '{', '[':
			depth++
		case '}', ']', ',':
			if depth > 0 {
				if ch != ',' {
					depth--
				}
				continue
			}
			if ch == '}' {
				return bad(i)
			}
			el := bytes.Trim(b[start:i], space)
			// Only [] may have an empty element, and only as its sole one.
			if len(el) == 0 && (ch == ',' || len(elems) > 0) {
				return bad(i)
			}
			if len(el) > 0 {
				elems = append(elems, el)
			}
			if ch == ']' {
				if i != len(b)-1 {
					return bad(i + 1) // bytes after the array
				}
				return elems, nil
			}
			start = i + 1
		}
	}
	return bad(len(b))
}

// GetOperation polls an operation.
func (c *V1Client) GetOperation(ctx context.Context, id string) (*OperationInfo, error) {
	return call[OperationInfo](ctx, c, "GET", "/operations/"+url.PathEscape(id), nil)
}

// WaitOperation blocks (server-side long poll) until the operation is
// terminal and returns its final state.
func (c *V1Client) WaitOperation(ctx context.Context, id string) (*OperationInfo, error) {
	return call[OperationInfo](ctx, c, "GET", "/operations/"+url.PathEscape(id)+"?wait=1", nil)
}

// CancelOperation asks the batch to stop at the next phase boundary;
// unfinished nodes return to the free pool. The returned snapshot is
// immediate — wait for the terminal state to observe the cleanup.
func (c *V1Client) CancelOperation(ctx context.Context, id string) (*OperationInfo, error) {
	return call[OperationInfo](ctx, c, "POST", "/operations/"+url.PathEscape(id)+":cancel", nil)
}

// OperationTrace fetches an operation's span tree — the operation root
// plus one span per node × pipeline phase. core.ErrNotFound when the
// operation is unknown or its trace has been evicted.
func (c *V1Client) OperationTrace(ctx context.Context, id string) ([]obs.SpanData, error) {
	var spans []obs.SpanData
	err := streamNDJSON(ctx, c, "/operations/"+url.PathEscape(id)+"/trace", func(sp obs.SpanData) error {
		spans = append(spans, sp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return spans, nil
}

// StreamEvents follows an operation's lifecycle journal from event
// index `from`, calling fn for each event in order until the operation
// is terminal (returning nil), fn returns an error (returned as-is),
// or ctx ends.
func (c *V1Client) StreamEvents(ctx context.Context, id string, from int, fn func(EventInfo) error) error {
	path := "/operations/" + url.PathEscape(id) + "/events?from=" + strconv.Itoa(from)
	return streamNDJSON(ctx, c, path, fn)
}

// scanBufs recycles streamNDJSON's line buffers, so a short tail read does
// not allocate (and clear) 64 KiB to scan a few kilobytes.
var scanBufs = sync.Pool{New: func() any { b := make([]byte, 0, 64*1024); return &b }}

// streamNDJSON runs one NDJSON GET, decoding each line into T and
// calling fn until the stream ends (nil), fn errors (returned as-is),
// or ctx ends.
func streamNDJSON[T any](ctx context.Context, c *V1Client, path string, fn func(T) error) error {
	resp, err := httpjson.Do(ctx, c.http, "GET", c.base+path, nil, nil, decodeV1Error)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(buf) // fn has returned: nothing refers to the buffer now
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(*buf, 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return fmt.Errorf("remote: bad stream line: %w", err)
		}
		if err := fn(v); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ConfigurePool creates an enclave's warm pool or updates an existing
// one's policy. Zero policy fields take server-side defaults.
func (c *V1Client) ConfigurePool(ctx context.Context, enclave string, p PoolPolicyInfo) (*PoolInfo, error) {
	return call[PoolInfo](ctx, c, "PUT", "/pools/"+url.PathEscape(enclave), p)
}

// ListPools returns every configured warm pool's stats.
func (c *V1Client) ListPools(ctx context.Context) ([]*PoolInfo, error) {
	return list[*PoolInfo](ctx, c, "/pools")
}

// GetPool returns an enclave's warm-pool stats (core.ErrNotFound when
// no pool is configured).
func (c *V1Client) GetPool(ctx context.Context, enclave string) (*PoolInfo, error) {
	return call[PoolInfo](ctx, c, "GET", "/pools/"+url.PathEscape(enclave), nil)
}

// DrainPool releases every parked standby back to the provider's free
// pool and idles the refiller (the policy's Target drops to 0).
func (c *V1Client) DrainPool(ctx context.Context, enclave string) (*PoolInfo, error) {
	return call[PoolInfo](ctx, c, "POST", "/pools/"+url.PathEscape(enclave)+":drain", nil)
}

// DeletePool stops and removes an enclave's warm pool entirely.
func (c *V1Client) DeletePool(ctx context.Context, enclave string) error {
	return c.do(ctx, "DELETE", "/pools/"+url.PathEscape(enclave), nil, nil)
}

// EnableGuard enables the runtime attestation guard on an enclave (or
// updates the policy of an already-enabled guard). Zero policy fields
// take server-side defaults.
func (c *V1Client) EnableGuard(ctx context.Context, enclave string, p GuardPolicyInfo) (*GuardInfo, error) {
	return call[GuardInfo](ctx, c, "PUT", "/enclaves/"+url.PathEscape(enclave)+"/guard", p)
}

// GetGuard returns an enclave's guard status (core.ErrNotFound when no
// guard is enabled).
func (c *V1Client) GetGuard(ctx context.Context, enclave string) (*GuardInfo, error) {
	return call[GuardInfo](ctx, c, "GET", "/enclaves/"+url.PathEscape(enclave)+"/guard", nil)
}

// DisableGuard stops and detaches an enclave's guard.
func (c *V1Client) DisableGuard(ctx context.Context, enclave string) error {
	return c.do(ctx, "DELETE", "/enclaves/"+url.PathEscape(enclave)+"/guard", nil, nil)
}

// ListIncidents returns incident resources, oldest first; a non-empty
// enclave filters to that enclave's incidents.
func (c *V1Client) ListIncidents(ctx context.Context, enclave string) ([]*IncidentInfo, error) {
	path := "/incidents"
	if enclave != "" {
		path += "?enclave=" + url.QueryEscape(enclave)
	}
	return list[*IncidentInfo](ctx, c, path)
}

// GetIncident polls an incident.
func (c *V1Client) GetIncident(ctx context.Context, id string) (*IncidentInfo, error) {
	return call[IncidentInfo](ctx, c, "GET", "/incidents/"+url.PathEscape(id), nil)
}

// WaitIncident blocks (server-side long poll) until the incident is
// terminal and returns its final state.
func (c *V1Client) WaitIncident(ctx context.Context, id string) (*IncidentInfo, error) {
	return call[IncidentInfo](ctx, c, "GET", "/incidents/"+url.PathEscape(id)+"?wait=1", nil)
}

// StreamIncidents follows the server-wide incident feed from update
// cursor `from`, calling fn with every incident-status update (an
// incident appears once per state change) until ctx ends or fn errors.
func (c *V1Client) StreamIncidents(ctx context.Context, from int, fn func(IncidentInfo) error) error {
	return streamNDJSON(ctx, c, "/incidents?watch=1&from="+strconv.Itoa(from), fn)
}

// Revocations returns an enclave's verifier revocation events from
// index `from` — the wire equivalent of keylime.Verifier.Subscribe for
// tenants that poll.
func (c *V1Client) Revocations(ctx context.Context, enclave string, from int) ([]RevocationInfo, error) {
	return list[RevocationInfo](ctx, c, "/enclaves/"+url.PathEscape(enclave)+"/revocations?from="+strconv.Itoa(from))
}

// StreamRevocations follows an enclave's revocation feed live from
// index `from` until ctx ends or fn errors.
func (c *V1Client) StreamRevocations(ctx context.Context, enclave string, from int, fn func(RevocationInfo) error) error {
	path := "/enclaves/" + url.PathEscape(enclave) + "/revocations?watch=1&from=" + strconv.Itoa(from)
	return streamNDJSON(ctx, c, path, fn)
}

// EnclaveEvents reads the enclave's lifecycle journal from event index
// `from`: with follow false it returns after replaying what exists;
// with follow true it keeps streaming live events until ctx ends or fn
// errors.
func (c *V1Client) EnclaveEvents(ctx context.Context, enclave string, from int, follow bool, fn func(EventInfo) error) error {
	path := "/enclaves/" + url.PathEscape(enclave) + "/events?from=" + strconv.Itoa(from)
	if follow {
		path += "&follow=1"
	}
	return streamNDJSON(ctx, c, path, fn)
}

// SetQuota installs (or replaces) a tenant's scheduling quota: its
// weighted-fair share plus optional hard caps on nodes and in-flight
// acquires. Returns the resulting status.
func (c *V1Client) SetQuota(ctx context.Context, tenant string, q TenantQuotaInfo) (*QuotaInfo, error) {
	return call[QuotaInfo](ctx, c, "PUT", "/quotas/"+url.PathEscape(tenant), q)
}

// GetQuota returns a tenant's quota and current usage
// (core.ErrNotFound when no quota is set for the tenant).
func (c *V1Client) GetQuota(ctx context.Context, tenant string) (*QuotaInfo, error) {
	return call[QuotaInfo](ctx, c, "GET", "/quotas/"+url.PathEscape(tenant), nil)
}

// ListQuotas returns every configured tenant quota with usage, sorted
// by tenant.
func (c *V1Client) ListQuotas(ctx context.Context) ([]QuotaInfo, error) {
	return list[QuotaInfo](ctx, c, "/quotas")
}

// DeleteQuota removes a tenant's quota; the tenant falls back to the
// default weight with no caps.
func (c *V1Client) DeleteQuota(ctx context.Context, tenant string) error {
	return c.do(ctx, "DELETE", "/quotas/"+url.PathEscape(tenant), nil, nil)
}

// SchedStats returns a snapshot of the cloud-wide airlock scheduler:
// slot occupancy, queue depth, grant and preemption counters, and
// per-tenant shares.
func (c *V1Client) SchedStats(ctx context.Context) (*SchedInfo, error) {
	return call[SchedInfo](ctx, c, "GET", "/sched", nil)
}

// Health returns the cloud's degraded-mode snapshot: per-backend
// circuit-breaker states, degraded while any breaker is open. The call
// itself succeeding says the control plane is reachable; the body says
// whether its backends are.
func (c *V1Client) Health(ctx context.Context) (*HealthInfo, error) {
	return call[HealthInfo](ctx, c, "GET", "/health", nil)
}

// GetResilience returns the effective resilience policy: the cloud-wide
// one for an empty enclave name, an enclave's override (falling back to
// cloud-wide) otherwise.
func (c *V1Client) GetResilience(ctx context.Context, enclave string) (*ResiliencePolicyInfo, error) {
	return call[ResiliencePolicyInfo](ctx, c, "GET", resiliencePath(enclave), nil)
}

func resiliencePath(enclave string) string {
	if enclave == "" {
		return "/resilience"
	}
	return "/enclaves/" + url.PathEscape(enclave) + "/resilience"
}

// SetResilience replaces the cloud-wide resilience policy (empty
// enclave name) or installs a per-enclave override. Zero fields take
// server-side defaults; the applied, defaults-filled policy comes back.
func (c *V1Client) SetResilience(ctx context.Context, enclave string, pol ResiliencePolicyInfo) (*ResiliencePolicyInfo, error) {
	return call[ResiliencePolicyInfo](ctx, c, "PUT", resiliencePath(enclave), pol)
}

// ReclaimNode scrubs a rejected-pool node and returns it to the
// provider's free pool — the operator's recovery path after repairing
// hardware that failed attestation. core.ErrConflict when the node is
// not in the rejected pool.
func (c *V1Client) ReclaimNode(ctx context.Context, enclave, node string) error {
	path := "/enclaves/" + url.PathEscape(enclave) + "/nodes/" + url.PathEscape(node) + ":reclaim"
	return c.do(ctx, "POST", path, nil, nil)
}
