package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bolted/internal/core"
	"bolted/internal/obs"
	"bolted/internal/store"
)

// The /v1 read path serves bytes it marshalled once. These tests hold it
// to what the reflection path it replaced sent, byte for byte, and to the
// durability rule, in counts and bytes — no wall clock anywhere.

// eventInfo is the reference rendering of a journal event: what the feed
// handlers passed to json.Encoder before the journal kept its own lines.
func eventInfo(ev core.Event) EventInfo {
	return EventInfo{Seq: ev.Seq, At: ev.At, Kind: string(ev.Kind), Node: ev.Node, Detail: ev.Detail}
}

// encoded is v as json.NewEncoder sends it.
func encoded(t testing.TB, vs ...any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func encodedEvents(t testing.TB, evs []core.Event) []byte {
	vs := make([]any, len(evs))
	for i, ev := range evs {
		vs[i] = eventInfo(ev)
	}
	return encoded(t, vs...)
}

// callGate holds backend driver calls while armed — how a test keeps an
// operation in its running phase for as long as it needs.
type callGate struct {
	mu      sync.Mutex
	gate    chan struct{} // non-nil while armed
	blocked chan struct{} // closed when the first call hits the gate
}

func (g *callGate) intercept(ctx context.Context, call core.Call, next func(context.Context) error) error {
	g.mu.Lock()
	gate := g.gate
	if gate != nil && call.Backend == core.BackendDriver {
		select {
		case <-g.blocked:
		default:
			close(g.blocked)
		}
	} else {
		gate = nil
	}
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return next(ctx)
}

// arm makes driver calls block; it returns a channel closed once one has.
func (g *callGate) arm() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate, g.blocked = make(chan struct{}), make(chan struct{})
	return g.blocked
}

func (g *callGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
}

// readPathServer is a control plane over st with a gate on its backends.
type readPathServer struct {
	gate *callGate
	mgr  *core.Manager
	v1   http.Handler // the /v1 surface itself, for calls that skip HTTP
	base string       // of an httptest server mounting it under /v1
	cli  *V1Client
}

func newReadPathServer(t testing.TB, nodes int, st store.Store, reg *obs.Registry) *readPathServer {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		cloud.SetMetrics(reg)
	}
	if _, err := cloud.BMI.CreateOSImage("fedora28", testSpec()); err != nil {
		t.Fatal(err)
	}
	s := &readPathServer{gate: &callGate{}}
	cloud.Intercept(s.gate.intercept)
	s.mgr = core.NewManagerWithStore(cloud, st)
	if _, err := s.mgr.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.v1 = NewV1Handler(s.mgr)
	mux := http.NewServeMux()
	mux.Handle(prefixV1+"/", http.StripPrefix(prefixV1, s.v1))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(s.gate.release)
	s.base, s.cli = srv.URL, NewV1Client(srv.URL)
	return s
}

// grow runs n single-node acquisitions to their end on an enclave,
// releasing each node, and returns the last operation.
func (s *readPathServer) grow(t testing.TB, enclave string, n int) *core.Operation {
	t.Helper()
	e, err := s.mgr.Enclave(enclave)
	if err != nil {
		t.Fatal(err)
	}
	var op *core.Operation
	for i := 0; i < n; i++ {
		if op, err = s.mgr.StartAcquire(enclave, "fedora28", 1); err != nil {
			t.Fatal(err)
		}
		res, err := op.Wait(context.Background())
		if err != nil || len(res.Nodes) != 1 {
			t.Fatalf("acquisition %d: %v, %+v", i, err, res)
		}
		if err := e.ReleaseNode(res.Nodes[0].Name, ""); err != nil {
			t.Fatal(err)
		}
	}
	return op
}

// get is one raw GET: status, headers and the exact body.
func (s *readPathServer) get(t testing.TB, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(s.base + prefixV1 + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// wantBody checks a complete 200 reply: exact bytes, sized, not chunked.
func (s *readPathServer) wantBody(t *testing.T, path string, want []byte) {
	t.Helper()
	resp, body := s.get(t, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("GET %s served\n%s\nwant, as json.Encoder sends it,\n%s", path, body, want)
	}
	if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("GET %s: Content-Length %d, Transfer-Encoding %v; want a sized body of %d bytes",
			path, resp.ContentLength, resp.TransferEncoding, len(want))
	}
}

// wantOperation checks GET /operations/{id} against a rendering taken
// while nothing can change the operation.
func (s *readPathServer) wantOperation(t *testing.T, op *core.Operation, phase core.OpPhase) {
	t.Helper()
	st := op.Status()
	if st.Phase != phase {
		t.Fatalf("operation %s is %s, want it %s", op.ID, st.Phase, phase)
	}
	s.wantBody(t, "/operations/"+op.ID, encoded(t, operationInfo(op, st)))
}

func (s *readPathServer) wantList(t *testing.T) {
	t.Helper()
	infos := []*OperationInfo{}
	for _, op := range s.mgr.ListOperations() {
		infos = append(infos, operationInfo(op, op.Status()))
	}
	s.wantBody(t, "/operations", encoded(t, infos))
}

// TestReadPathGoldenBytes: for operations in every phase and events
// carrying '<', '&', quotes and a multi-byte rune, every route the change
// touched serves exactly what json.NewEncoder over operationInfo /
// eventInfo served before it; a running operation is never memoised.
func TestReadPathGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newReadPathServer(t, 4, st, nil)
	t.Cleanup(func() { s.mgr.Close() })
	e, err := s.mgr.CreateEnclave("tenant", core.ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	s.wantList(t) // no operations: [] and a newline
	s.wantBody(t, "/enclaves/tenant/events", nil)

	e.Journal().Record(core.EvHealed, "node<1>", `a<b & "c" é — \ done`)
	done := s.grow(t, "tenant", 1)
	s.wantOperation(t, done, core.OpDone)

	blocked := s.gate.arm()
	cancelled, err := s.mgr.StartAcquire("tenant", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if _, err := s.cli.CancelOperation(context.Background(), cancelled.ID); err != nil {
		t.Fatal(err)
	}
	s.gate.release()
	<-cancelled.Done()
	s.wantOperation(t, cancelled, core.OpCancelled)

	blocked = s.gate.arm()
	running, err := s.mgr.StartAcquire("tenant", "fedora28", 1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	s.wantOperation(t, running, core.OpRunning)
	_, before := s.get(t, "/operations/"+running.ID)
	e.Journal().Record(core.EvBooted, "node-late", "progress beside the batch")
	s.wantOperation(t, running, core.OpRunning)
	if _, after := s.get(t, "/operations/"+running.ID); bytes.Equal(before, after) || !bytes.Contains(after, []byte(`"node-late":"booted"`)) {
		t.Fatalf("a progress change did not show on the next GET:\n%s", after)
	}
	s.wantList(t)
	s.wantList(t) // and again, now that the terminal ones are kept

	// Feeds and tails: the journal's own lines, whole and from a cursor.
	journal := e.Journal().Events()
	s.wantBody(t, "/enclaves/tenant/events", encodedEvents(t, journal))
	s.wantBody(t, "/enclaves/tenant/events?from=3", encodedEvents(t, journal[3:]))
	s.wantBody(t, fmt.Sprintf("/enclaves/tenant/events?after=%d", len(journal)), nil)
	s.wantBody(t, "/operations/"+done.ID+"/events", encodedEvents(t, done.Events()))
	s.wantBody(t, "/operations/"+cancelled.ID+"/events?from=2", encodedEvents(t, cancelled.Events()[2:]))
	if !bytes.Contains(encodedEvents(t, journal[:1]), []byte(`"node":"node\u003c1\u003e","detail":"a\u003cb \u0026 \"c\" é — \\ done"`)) {
		t.Fatalf("the reference rendering lost its escapes: %s", encodedEvents(t, journal[:1]))
	}

	// A restart while the third operation runs brings it back interrupted.
	crash := newReadPathServer(t, 4, mustOpen(t, copyStoreDir(t, dir)), nil)
	t.Cleanup(func() { crash.mgr.Close() })
	interrupted, err := crash.mgr.Operation(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	crash.wantOperation(t, interrupted, core.OpInterrupted)
	crash.wantOperation(t, interrupted, core.OpInterrupted)
	crash.wantList(t)
	crash.wantBody(t, "/operations/"+interrupted.ID+"/events", nil)
	e2, err := crash.mgr.Enclave("tenant")
	if err != nil {
		t.Fatal(err)
	}
	crash.wantBody(t, "/enclaves/tenant/events", encodedEvents(t, e2.Journal().Events()))

	// Every phase, result shape and awkward string through the rendering
	// the operation routes send, pending included (no request can hold an
	// operation there).
	res := &core.BatchResult{
		Nodes:   []*core.Node{{Name: "node01"}},
		Failed:  []core.NodeFailure{{Node: "node02", Phase: core.PhaseAttest, Err: errors.New(`quote <mismatch> & "more"`)}},
		Aborted: []core.NodeFailure{{Node: "node03", Phase: core.PhaseBoot, Err: context.Canceled}},
	}
	for _, st := range []core.OpStatus{
		{Phase: core.OpPending},
		{Phase: core.OpRunning, Progress: map[string]core.EventKind{"node02": core.EvAttesting, "node01": core.EvJoined}},
		{Phase: core.OpDone, Finished: time.Now(), Result: res, Progress: map[string]core.EventKind{"node01": core.EvJoined}},
		{Phase: core.OpCancelled, Finished: time.Now(), Result: res, Err: context.Canceled},
		{Phase: core.OpInterrupted, Finished: time.Now(), Err: errors.New("restart <&> é")},
	} {
		got, err := marshalOperation(done, st)
		if want := encoded(t, operationInfo(done, st)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("marshalOperation(%s) = %s, %v\nwant %s", st.Phase, got, err, want)
		}
	}
	s.gate.release()
	<-running.Done()
}

// TestReadPathOperationMemo: a running operation is rendered afresh every
// time, a terminal one once; only a list adds to the memo, and what a list
// no longer carries leaves it.
func TestReadPathOperationMemo(t *testing.T) {
	s := newReadPathServer(t, 2, store.NewMemory(), nil)
	e, err := s.mgr.CreateEnclave("tenant", core.ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	done := s.grow(t, "tenant", 1)
	blocked := s.gate.arm()
	running, err := s.mgr.StartAcquire("tenant", "fedora28", 1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked

	var ws opWires
	if _, keep, err := ws.one(done); err != nil || !keep || len(ws.kept) != 0 {
		t.Fatalf("one(terminal): keep %v, %v, memo of %d; a single read adds nothing", keep, err, len(ws.kept))
	}
	first, err := ws.list([]*core.Operation{done, running})
	if err != nil || len(ws.kept) != 1 || ws.kept[done] == nil {
		t.Fatalf("list kept %d operations, %v; want only the terminal one", len(ws.kept), err)
	}
	before, keep, _ := ws.one(running)
	if keep {
		t.Fatal("a running operation may be kept")
	}
	e.Journal().Record(core.EvBooted, "node-late", "")
	second, err := ws.list([]*core.Operation{done, running})
	if err != nil || &second[0][0] != &first[0][0] {
		t.Fatalf("the terminal operation was rendered twice (%v)", err)
	}
	if bytes.Equal(second[1], first[1]) || !bytes.Contains(second[1], []byte(`"node-late":"booted"`)) {
		t.Fatalf("a running operation did not show its progress: %s", second[1])
	}
	if after, _, _ := ws.one(running); bytes.Equal(before, after) {
		t.Fatal("a running operation was served from the memo")
	}
	if b, _, _ := ws.one(done); &b[0] != &first[0][0] || b[len(b)-1] != '\n' || len(b) != len(first[0])+1 {
		t.Fatal("GET of a listed terminal operation is not the list's bytes plus a newline")
	}

	s.gate.release()
	<-running.Done()
	if _, err := ws.list([]*core.Operation{running}); err != nil || len(ws.kept) != 1 || ws.kept[running] == nil {
		t.Fatalf("after a list without it the pruned operation stayed: memo of %d, %v", len(ws.kept), err)
	}
	if parts, err := ws.list(nil); err != nil || len(parts) != 0 || len(ws.kept) != 0 {
		t.Fatalf("empty list = %d parts, memo of %d, %v", len(parts), len(ws.kept), err)
	}
}

func mustOpen(t testing.TB, dir string) *store.File {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// gateStore is a counting, blockable, failable store.Store: it knows how
// many journal events were staged when each Sync began, and which of them
// a Sync that has returned covers.
type gateStore struct {
	store.Store
	mu      sync.Mutex
	staged  int           // journal events staged so far (== the newest seq, with one enclave)
	covered int           // highest staged count a returned Sync began after
	syncs   int           // Syncs begun
	started chan int      // receives the staged count as each Sync begins
	gate    chan struct{} // when non-nil a Sync waits here for one token
	fail    error
}

func (s *gateStore) AppendBuffered(rec store.Record) error {
	err := s.Store.AppendBuffered(rec)
	if err == nil && rec.Kind == store.KindJournalEvent {
		s.mu.Lock()
		s.staged++
		s.mu.Unlock()
	}
	return err
}

func (s *gateStore) Sync() error {
	s.mu.Lock()
	s.syncs++
	at, gate, fail := s.staged, s.gate, s.fail
	s.mu.Unlock()
	s.started <- at
	if gate != nil {
		<-gate
	}
	if fail != nil {
		return fail
	}
	if err := s.Store.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	s.covered = max(s.covered, at)
	s.mu.Unlock()
	return nil
}

func (s *gateStore) state() (covered, syncs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.covered, s.syncs
}

func (s *gateStore) set(gate chan struct{}, fail error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate, s.fail = gate, fail
}

// feedRecorder is the client end of a handler called directly: it parses
// each line as it is written and holds it to the durability rule at that
// instant, which a client across a socket could only see later.
type feedRecorder struct {
	t   *testing.T
	st  *gateStore
	hdr http.Header

	mu     sync.Mutex
	status int
	body   bytes.Buffer
	seqs   []uint64
	wrote  chan uint64 // every seq, as it is written
}

func newFeedRecorder(t *testing.T, st *gateStore) *feedRecorder {
	// Room for every line a test writes: the handler never waits on the test.
	return &feedRecorder{t: t, st: st, hdr: http.Header{}, wrote: make(chan uint64, 64)}
}

func (w *feedRecorder) Header() http.Header { return w.hdr }
func (w *feedRecorder) Flush()              {}
func (w *feedRecorder) WriteHeader(code int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.status == 0 {
		w.status = code
	}
}

func (w *feedRecorder) Write(p []byte) (int, error) {
	covered, _ := w.st.state()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body.Write(p)
	if w.status != http.StatusOK {
		return len(p), nil // an error envelope, not lines
	}
	for _, line := range bytes.SplitAfter(p, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev EventInfo
		if err := json.Unmarshal(line, &ev); err != nil {
			w.t.Errorf("bad line on the wire %q: %v", line, err)
			continue
		}
		if int(ev.Seq) > covered {
			w.t.Errorf("line seq %d left while returned syncs cover only %d", ev.Seq, covered)
		}
		w.seqs = append(w.seqs, ev.Seq)
		w.wrote <- ev.Seq
	}
	return len(p), nil
}

func (w *feedRecorder) snapshot() (status int, seqs []uint64, body string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.status, append([]uint64(nil), w.seqs...), w.body.String()
}

// TestFeedDurabilityRule: behind a counting, blockable store no line with
// seq N reaches the client before a Sync that started after N was staged
// has returned; a read syncs once per batch of lines and not at all for
// none; and a Sync error is the typed envelope exactly when nothing has
// gone out.
func TestFeedDurabilityRule(t *testing.T) {
	st := &gateStore{Store: store.NewMemory(), started: make(chan int, 64)}
	s := newReadPathServer(t, 2, st, nil)
	e, err := s.mgr.CreateEnclave("tenant", core.ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	record := func(n int) {
		for i := 0; i < n; i++ {
			e.Journal().Record(core.EvStateSaved, "node01", "durability")
		}
	}
	serve := func(ctx context.Context, path string) (*feedRecorder, <-chan struct{}) {
		w, done := newFeedRecorder(t, st), make(chan struct{})
		req := httptest.NewRequest("GET", path, nil).WithContext(ctx)
		go func() {
			defer close(done)
			s.v1.ServeHTTP(w, req)
		}()
		return w, done
	}
	wantSeqs := func(w *feedRecorder, upTo int) {
		t.Helper()
		_, seqs, _ := w.snapshot()
		if len(seqs) != upTo {
			t.Fatalf("client holds seqs %v, want 1..%d", seqs, upTo)
		}
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				t.Fatalf("client holds seqs %v, want 1..%d", seqs, upTo)
			}
		}
	}

	record(3)
	gate := make(chan struct{})
	st.set(gate, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, done := serve(ctx, "/enclaves/tenant/events?follow=1")
	if at := <-st.started; at != 3 {
		t.Fatalf("first sync began with %d events staged, want 3", at)
	}
	record(2) // staged while the sync is in flight: it does not cover them
	wantSeqs(w, 0)
	gate <- struct{}{}
	for i := 0; i < 3; i++ {
		<-w.wrote
	}
	// Lines 4 and 5 need a sync of their own, begun after they were staged.
	if at := <-st.started; at != 5 {
		t.Fatalf("second sync began with %d events staged, want 5", at)
	}
	wantSeqs(w, 3)
	gate <- struct{}{}
	<-w.wrote
	<-w.wrote
	wantSeqs(w, 5)
	cancel()
	<-done
	st.set(nil, nil)
	if covered, syncs := st.state(); covered != 5 || syncs != 2 {
		t.Fatalf("after the feed: covered %d, %d syncs; want 5 and 2", covered, syncs)
	}

	// A read pays one sync for the lines it sends, and none for sending none.
	for _, path := range []string{"/enclaves/tenant/events", "/enclaves/tenant/events?from=2", "/enclaves/tenant/events?follow=1", "/enclaves/tenant/events?from=5"} {
		ctx, cancel := context.WithCancel(context.Background())
		w, done := serve(ctx, path)
		if strings.Contains(path, "follow") {
			for i := 0; i < 5; i++ {
				<-w.wrote
			}
			cancel()
		}
		<-done
		cancel()
		status, seqs, _ := w.snapshot()
		if strings.Contains(path, "from=5") {
			if status != http.StatusOK || len(seqs) != 0 {
				t.Fatalf("GET %s = %d, seqs %v", path, status, seqs)
			}
		} else if status != http.StatusOK || len(seqs) == 0 || seqs[len(seqs)-1] != 5 {
			t.Fatalf("GET %s = %d, seqs %v", path, status, seqs)
		}
	}
	if _, syncs := st.state(); syncs != 5 {
		t.Fatalf("three reads of history and one of nothing issued %d syncs, want 3", syncs-2)
	}

	// A sync that fails before anything went out is the typed envelope...
	record(1)
	st.set(nil, errors.New("disk full"))
	for _, path := range []string{"/enclaves/tenant/events", "/enclaves/tenant/events?follow=1"} {
		w, done := serve(context.Background(), path)
		<-done
		status, seqs, body := w.snapshot()
		var env errorEnvelope
		if err := json.Unmarshal([]byte(body), &env); err != nil || status != http.StatusInternalServerError ||
			env.Error.Code != codeInternal || !strings.Contains(env.Error.Message, "disk full") || len(seqs) != 0 {
			t.Fatalf("GET %s with a failing sync = %d %q (%v)", path, status, body, err)
		}
		if ct := w.hdr.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("error envelope sent as %q", ct)
		}
	}
	// ...and covers nothing: the next read pays for the line again.
	st.set(nil, nil)
	w, done = serve(context.Background(), "/enclaves/tenant/events?from=5")
	<-done
	if _, seqs, _ := w.snapshot(); len(seqs) != 1 || seqs[0] != 6 {
		t.Fatalf("read after the failure = %v", seqs)
	}
	if covered, syncs := st.state(); covered != 6 || syncs != 8 {
		t.Fatalf("after the failure healed: covered %d, %d syncs; want 6 and 8", covered, syncs)
	}

	// Once lines have gone out a failing sync just ends the feed: no
	// envelope in the middle of a 200 NDJSON body.
	w, done = serve(context.Background(), "/enclaves/tenant/events?follow=1&from=5")
	<-w.wrote
	st.set(nil, errors.New("disk full"))
	record(1)
	<-done
	if status, seqs, body := w.snapshot(); status != http.StatusOK || len(seqs) != 1 || strings.Contains(body, "error") {
		t.Fatalf("feed after a mid-stream sync failure = %d, seqs %v, body %q", status, seqs, body)
	}
}

// cannedTransport answers every request with the next canned body.
type cannedTransport struct {
	bodies [][]byte
	next   int
}

func (c *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body := c.bodies[min(c.next, len(c.bodies)-1)]
	c.next++
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK", Request: req, Header: http.Header{},
		ContentLength: int64(len(body)), Body: io.NopCloser(bytes.NewReader(body)),
	}, nil
}

func cannedClient(bodies ...[]byte) *V1Client {
	return &V1Client{base: "http://canned" + prefixV1, http: &http.Client{Transport: &cannedTransport{bodies: bodies}}}
}

// TestListOperationsMemo: the client parses an element only when its
// exact bytes were not in the previous reply, and remembers no more than
// the last reply.
func TestListOperationsMemo(t *testing.T) {
	op := func(id, phase string) *OperationInfo {
		return &OperationInfo{ID: id, Enclave: "tenant", Image: "fedora28", Count: 1, Phase: phase,
			Progress: map[string]string{"node01": "joined"}}
	}
	a, b, c, d := op("op-0001", "done"), op("op-0002", "cancelled"), op("op-0003", "running"), op("op-0004", "done")
	cInterrupted := op("op-0003", "interrupted")
	cInterrupted.Error = "operation interrupted by control-plane restart"
	cli := cannedClient(
		encoded(t, []*OperationInfo{a, b, c}),
		encoded(t, []*OperationInfo{a, b, cInterrupted, d}),
		encoded(t, []*OperationInfo{b, cInterrupted, d}), // op-0001 pruned
		[]byte(" [ ] \n"),
		encoded(t, []*OperationInfo{d}),
		[]byte(`[{"id":"op-0005","count":1},{"id":tru}]`),
		[]byte(`[{"id":"op-0005"}`),
		encoded(t, []*OperationInfo{d}),
	)
	ctx := context.Background()
	list := func(wantIDs string, wantMemo int) []*OperationInfo {
		t.Helper()
		ops, err := cli.ListOperations(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, o := range ops {
			ids = append(ids, o.ID+":"+o.Phase)
		}
		if got := strings.Join(ids, " "); got != wantIDs {
			t.Fatalf("ListOperations = %s, want %s", got, wantIDs)
		}
		if len(cli.listed) != wantMemo {
			t.Fatalf("memo holds %d after a reply of %d", len(cli.listed), len(ops))
		}
		return ops
	}
	r1 := list("op-0001:done op-0002:cancelled op-0003:running", 3)
	r2 := list("op-0001:done op-0002:cancelled op-0003:interrupted op-0004:done", 4)
	if r2[0] != r1[0] || r2[1] != r1[1] {
		t.Fatal("terminal operations of the previous reply were parsed again")
	}
	if r2[2] == r1[2] || r2[2].Error == "" || r1[2].Phase != "running" {
		t.Fatalf("an operation re-listed with different bytes was not re-parsed: %+v", r2[2])
	}
	r3 := list("op-0002:cancelled op-0003:interrupted op-0004:done", 3)
	if r3[0] != r2[1] || r3[2] != r2[3] {
		t.Fatal("survivors of a prune were parsed again")
	}
	for raw := range cli.listed {
		if strings.Contains(raw, "op-0001") {
			t.Fatal("a pruned operation stayed in the memo")
		}
	}
	if r4 := list("", 0); r4 == nil {
		t.Fatal("an empty list came back nil")
	}
	r5 := list("op-0004:done", 1)
	if r5[0] == r3[2] {
		t.Fatal("the memo outlived the reply that emptied it")
	}
	for i := 0; i < 2; i++ { // an element that does not parse; an array that does not end
		if ops, err := cli.ListOperations(ctx); err == nil {
			t.Fatalf("malformed reply %d parsed: %+v", i, ops)
		}
		if len(cli.listed) != 1 {
			t.Fatalf("a rejected reply left %d in the memo", len(cli.listed))
		}
	}
	if r8 := list("op-0004:done", 1); r8[0] != r5[0] {
		t.Fatal("a rejected reply cost the memo its last good one")
	}
}

var splitArraySeeds = []string{
	`[]`, ` [ ] `, `[1]`, `[1,2]`, `[ 1 , "two" , {"three":[3,{"x":"]"}]} , [4] ]`,
	`[{"id":"op-0001","progress":{"node01":"joined"},"error":"a \"quoted\" ] , [ \\"}]` + "\n",
	`["\\\\","\\\"",","]`, `[[[]],{}]`, `[null]`, `[true,false,null]`,
	``, `null`, `{}`, `[`, `]`, `[1,]`, `[,1]`, `[,]`, `[1 2]`, `[1]]`, `[1],`, `[1] x`, `[{]}]`, `[{]]`, `["abc]`, `["abc\"]`, `[tru]`,
	`[{"a":1}{"b":2}]`, `[1,,2]`, "[\"a\x00b\"]", `[}`, `[1}`,
}

// checkSplitArray holds splitArray to encoding/json: where json.Unmarshal
// into []json.RawMessage accepts, the same elements; where it rejects,
// splitArray rejects too or cuts out an element that is not valid JSON —
// which ListOperations then rejects when it parses it.
func checkSplitArray(t *testing.T, data []byte) {
	t.Helper()
	var want []json.RawMessage
	refErr := json.Unmarshal(data, &want)
	got, err := splitArray(data)
	if refErr == nil && want == nil {
		refErr = errors.New("null is not an array") // Unmarshal takes null for any slice
	}
	if refErr != nil {
		if err != nil {
			return
		}
		for _, el := range got {
			if !json.Valid(el) {
				return
			}
		}
		t.Fatalf("splitArray(%q) = %q, all valid; encoding/json rejects it: %v", data, got, refErr)
	}
	if err != nil {
		t.Fatalf("splitArray(%q) = %v; encoding/json takes it as %q", data, err, want)
	}
	if len(got) != len(want) {
		t.Fatalf("splitArray(%q) = %d elements %q, want %d %q", data, len(got), got, len(want), want)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("splitArray(%q)[%d] = %q, want %q", data, i, got[i], want[i])
		}
	}
}

func TestSplitArray(t *testing.T) {
	for _, seed := range splitArraySeeds {
		checkSplitArray(t, []byte(seed))
	}
}

func FuzzSplitArray(f *testing.F) {
	for _, seed := range splitArraySeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSplitArray(t, data) })
}

// discardWriter is a ResponseWriter that keeps nothing but the count.
type discardWriter struct {
	hdr   http.Header
	bytes int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.bytes += len(p); return len(p), nil }

// readPathFixture is a server holding 64 terminal operations with a
// 64-line journal tail to read, the replies a client would get for them,
// and the requests that ask.
type readPathFixture struct {
	s                *readPathServer
	listReq, tailReq *http.Request
	listBody         []byte
	tailPath         string
}

func newReadPathFixture(t testing.TB) *readPathFixture {
	s := newReadPathServer(t, 2, store.NewMemory(), nil)
	e, err := s.mgr.CreateEnclave("tenant", core.ProfileAlice)
	if err != nil {
		t.Fatal(err)
	}
	s.grow(t, "tenant", core.MaxRetainedOps+2)
	if n := len(s.mgr.ListOperations()); n != core.MaxRetainedOps || core.MaxRetainedOps != 64 {
		t.Fatalf("fixture lists %d operations, want 64", n)
	}
	f := &readPathFixture{s: s, tailPath: fmt.Sprintf("/enclaves/tenant/events?from=%d", len(e.Journal().Events())-64)}
	f.listReq = httptest.NewRequest("GET", "/operations", nil)
	f.tailReq = httptest.NewRequest("GET", f.tailPath, nil)
	_, f.listBody = s.get(t, "/operations")
	return f
}

func (f *readPathFixture) serve(req *http.Request) int {
	w := &discardWriter{hdr: http.Header{}}
	f.s.v1.ServeHTTP(w, req)
	return w.bytes
}

// TestReadPathAllocCeilings: what a 64-operation list and a 64-line tail
// cost in allocations, each end. This change measures 12, 13 and 24; the
// ceilings leave room for a toolchain's mood and sit far below what the
// reflection path paid on the same fixture (1 039, 142 and 1 319).
func TestReadPathAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	f := newReadPathFixture(t)
	if n := f.serve(f.listReq); n != len(f.listBody) {
		t.Fatalf("list handler wrote %d bytes, the wire carried %d", n, len(f.listBody))
	}
	if n := f.serve(f.tailReq); n == 0 || bytes.Count(f.listBody, []byte(`"phase":"done"`)) != 64 {
		t.Fatalf("fixture: tail of %d bytes, list %s", n, f.listBody)
	}
	cli := cannedClient(f.listBody)
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"server: GET /operations, 64 terminal", 16, func() { f.serve(f.listReq) }},
		{"server: GET /enclaves/{name}/events, 64 lines", 18, func() { f.serve(f.tailReq) }},
		{"client: ListOperations, 64 seen before", 36, func() {
			if ops, err := cli.ListOperations(ctx); err != nil || len(ops) != 64 {
				t.Fatalf("ListOperations = %d, %v", len(ops), err)
			}
		}},
	} {
		c.run() // the first call fills the memos
		if got := testing.AllocsPerRun(50, c.run); got > c.ceiling {
			t.Errorf("%s: %.0f allocations per call, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per call (ceiling %.0f)", c.name, got, c.ceiling)
		}
	}
}

// BenchmarkListOperations64 and BenchmarkEventsTail64 price the two reads
// a monitor repeats, server and client halves apart, so a change to the
// wire types shows its cost without a 15 s benchmark run.
func BenchmarkListOperations64(b *testing.B) {
	f := newReadPathFixture(b)
	b.Run("server", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(f.listBody)))
		for b.Loop() {
			f.serve(f.listReq)
		}
	})
	b.Run("client", func(b *testing.B) {
		cli := cannedClient(f.listBody)
		b.ReportAllocs()
		b.SetBytes(int64(len(f.listBody)))
		for b.Loop() {
			if _, err := cli.ListOperations(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEventsTail64(b *testing.B) {
	f := newReadPathFixture(b)
	_, tail := f.s.get(b, f.tailPath)
	b.Run("server", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(tail)))
		for b.Loop() {
			f.serve(f.tailReq)
		}
	})
	b.Run("client", func(b *testing.B) {
		cli := cannedClient(tail)
		b.ReportAllocs()
		b.SetBytes(int64(len(tail)))
		for b.Loop() {
			n := 0
			err := cli.EnclaveEvents(context.Background(), "tenant", 0, false, func(EventInfo) error { n++; return nil })
			if err != nil || n != 64 {
				b.Fatalf("tail read = %d lines, %v", n, err)
			}
		}
	})
}

// TestReadPathConcurrentReadersOverWire: eight readers over HTTP — two
// operation feeds, two journal feeds, two tail pollers, two listers —
// beside a recorder and an operation that finishes under them. For -race;
// each reader also checks its own view.
func TestReadPathConcurrentReadersOverWire(t *testing.T) {
	s := newReadPathServer(t, 2, store.NewMemory(), nil)
	e, err := s.mgr.CreateEnclave("tenant", core.ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	s.grow(t, "tenant", 2)
	blocked := s.gate.arm()
	op, err := s.mgr.StartAcquire("tenant", "fedora28", 1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked

	const rounds = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg, polls sync.WaitGroup
	contiguous := func(what string) func(EventInfo) error {
		var prev uint64
		return func(ev EventInfo) error {
			if prev != 0 && ev.Seq != prev+1 {
				return fmt.Errorf("%s: seq %d follows %d", what, ev.Seq, prev)
			}
			prev = ev.Seq
			return nil
		}
	}
	spawn := func(group *sync.WaitGroup, fn func() error) {
		wg.Add(1)
		if group != &wg {
			group.Add(1)
		}
		go func() {
			defer wg.Done()
			if group != &wg {
				defer group.Done()
			}
			if err := fn(); err != nil && !errors.Is(err, context.Canceled) {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		spawn(&polls, func() error { return s.cli.StreamEvents(ctx, op.ID, 0, contiguous("operation feed")) })
		spawn(&wg, func() error { return s.cli.EnclaveEvents(ctx, "tenant", 0, true, contiguous("journal feed")) })
		spawn(&polls, func() error {
			for r := 0; r < rounds; r++ {
				from := max(0, len(e.Journal().Events())-16)
				if err := s.cli.EnclaveEvents(ctx, "tenant", from, false, contiguous("tail")); err != nil {
					return err
				}
			}
			return nil
		})
		spawn(&polls, func() error {
			cli := NewV1Client(s.base) // a memo of its own
			for r := 0; r < rounds; r++ {
				ops, err := cli.ListOperations(ctx)
				if err != nil {
					return err
				}
				if len(ops) != 3 || ops[2].ID != op.ID || !ops[0].Terminal() {
					return fmt.Errorf("list = %d operations", len(ops))
				}
				got, err := cli.GetOperation(ctx, op.ID)
				if err != nil {
					return err
				}
				if ops[2].Terminal() && !got.Terminal() {
					return fmt.Errorf("operation %s went back from %s to %s", op.ID, ops[2].Phase, got.Phase)
				}
			}
			return nil
		})
	}
	spawn(&polls, func() error { // the recorder; the operation finishes halfway
		for r := 0; r < rounds; r++ {
			e.Journal().Record(core.EvStateSaved, "node99", "beside the readers")
			if r == rounds/2 {
				s.gate.release()
			}
		}
		return nil
	})
	polls.Wait() // the operation feeds end with the operation
	cancel()     // the journal feeds only when told to
	wg.Wait()
	if op.Phase() != core.OpDone {
		t.Fatalf("operation ended %s", op.Phase())
	}
}

// TestFeedMetrics: a request is routed once and labelled with the pattern
// that served it ("unmatched" when none did), and only a read that
// follows counts as a stream watcher or a stream flush.
func TestFeedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := newReadPathServer(t, 2, store.NewMemory(), reg)
	e, err := s.mgr.CreateEnclave("tenant", core.ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	e.Journal().Record(core.EvStateSaved, "node01", "")
	const route = "GET /enclaves/{name}/events"
	requests := func(route, code string) uint64 {
		return reg.HistogramVec("bolted_http_request_seconds", "", obs.DefLatencyBuckets, "route", "code").With(route, code).Count()
	}
	watchers := reg.GaugeVec("bolted_http_stream_watchers", "", "route").With(route)
	flushes := reg.CounterVec("bolted_http_stream_flushes_total", "", "route").With(route)

	for i := 0; i < 3; i++ {
		if resp, body := s.get(t, "/enclaves/tenant/events"); resp.StatusCode != 200 || len(body) == 0 {
			t.Fatalf("snapshot read = %s %q", resp.Status, body)
		}
	}
	if resp, _ := s.get(t, "/no/such/route"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route = %s", resp.Status)
	}
	if resp, _ := s.get(t, "/enclaves/ghost/events"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown enclave = %s", resp.Status)
	}
	if got := requests(route, "200"); got != 3 {
		t.Errorf("%d requests labelled %q/200, want 3", got, route)
	}
	if got := requests(route, "404"); got != 1 {
		t.Errorf("%d requests labelled %q/404, want 1", got, route)
	}
	if got := requests("unmatched", "404"); got != 1 {
		t.Errorf("%d requests labelled unmatched/404, want 1", got)
	}
	if watchers.Value() != 0 || flushes.Value() != 0 {
		t.Errorf("snapshot reads counted as streams: %v watchers, %v flushes", watchers.Value(), flushes.Value())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", s.base+prefixV1+"/enclaves/tenant/events?follow=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	// The first line is here, so the handler has written it; its flush may
	// be a moment behind, but the watcher registered before either.
	if watchers.Value() != 1 {
		t.Errorf("a following read shows as %v watchers", watchers.Value())
	}
}
