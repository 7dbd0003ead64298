package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bolted/internal/core"
	"bolted/internal/remote"
)

// acquireTimeout is how long one acquisition may take before it counts
// as failed.
const acquireTimeout = 10 * time.Second

// failure is one distinct way an operation failed.
type failure struct {
	Phase string `json:"phase"`
	Error string `json:"error"`
}

// tally is what every workload accumulates: attempts, failures with
// their distinct causes, named latency sample sets, and output-check
// violations. Safe for concurrent callers.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	causes    map[failure]int
	lat       map[string]*samples
	sums      map[string]float64 // named accumulators (phase totals, counts)
	checks    []string           // output-check violations; any makes the run incorrect
}

func newTally() *tally {
	return &tally{causes: make(map[failure]int), lat: make(map[string]*samples), sums: make(map[string]float64)}
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(phase string, err error) {
	t.mu.Lock()
	t.failed++
	t.causes[failure{phase, err.Error()}]++
	t.mu.Unlock()
}

func (t *tally) observe(name string, d time.Duration) {
	t.mu.Lock()
	s := t.lat[name]
	if s == nil {
		s = new(samples)
		t.lat[name] = s
	}
	s.add(d)
	t.mu.Unlock()
}

func (t *tally) sum(name string, v float64) {
	t.mu.Lock()
	t.sums[name] += v
	t.mu.Unlock()
}

func (t *tally) violation(format string, args ...any) {
	t.mu.Lock()
	if len(t.checks) < 20 {
		t.checks = append(t.checks, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// merge adds another tally's counts, causes, samples and violations.
func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	for c, n := range o.causes {
		t.causes[c] += n
	}
	for name, s := range o.lat {
		if t.lat[name] == nil {
			t.lat[name] = new(samples)
		}
		*t.lat[name] = append(*t.lat[name], *s...)
	}
	for name, v := range o.sums {
		t.sums[name] += v
	}
	t.checks = append(t.checks, o.checks...)
}

func (t *tally) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.lat[name]; s != nil {
		return append([]float64(nil), *s...)
	}
	return nil
}

// firstCauses returns up to n distinct {phase, error} pairs, most
// frequent first.
func (t *tally) firstCauses(n int) []failure {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]failure, 0, len(t.causes))
	for f := range t.causes {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if t.causes[out[i]] != t.causes[out[j]] {
			return t.causes[out[i]] > t.causes[out[j]]
		}
		return out[i].Error < out[j].Error
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// caller is one closed-loop client: it sends its next request only
// after the previous reply. With a recorder, every V1Client call is a
// root-side remote span under the caller's current cycle span.
type caller struct {
	name  string
	c     *remote.V1Client
	rec   *recorder
	cycle int // current harness span ID
}

// call runs one V1Client call; key is the request line it will send,
// which is what ties the server's span to this one.
func (k *caller) call(key string, fn func() error) error {
	if k.rec == nil {
		return fn()
	}
	start := k.rec.now()
	err := fn()
	method, _, _ := strings.Cut(key, " ")
	k.rec.add(span{Parent: k.cycle, Layer: layerRemote, Name: method, Key: key, Op: k.name, Start: start, End: k.rec.now()})
	return err
}

// inSpan runs fn as one harness span: a whole cycle, or one step of it
// where the tenants run in step.
func (k *caller) inSpan(name string, fn func()) {
	if k.rec == nil {
		fn()
		return
	}
	k.cycle = k.rec.newID()
	start := k.rec.now()
	fn()
	k.rec.add(span{ID: k.cycle, Layer: layerHarness, Name: name, Op: k.name, Start: start, End: k.rec.now()})
}

// submit sends nodes:acquire and returns the 202's operation.
func (k *caller) submit(ctx context.Context, t *tally, enclave string, n int) (*remote.OperationInfo, error) {
	var op *remote.OperationInfo
	begin := time.Now()
	err := k.call("POST /v1/enclaves/"+enclave+"/nodes:acquire", func() (err error) {
		op, err = k.c.Acquire(ctx, enclave, imageName, n)
		return err
	})
	if err == nil {
		t.observe("submit", time.Since(begin))
	}
	return op, err
}

// settle judges a terminal operation: exactly the requested nodes
// joined, or it is a failure — in which case the nodes that did join
// are released and the rejected ones reclaimed, so one bad node costs
// one operation and not the rest of the run. begin is when the submit
// was sent; waitKey is the request line of the call that waited for
// the operation, which its span hangs under.
func (k *caller) settle(ctx context.Context, t *tally, enclave string, n int, begin time.Time, info *remote.OperationInfo, waitKey string) ([]string, bool) {
	ready := time.Since(begin)
	var nodes []string
	if info.Result != nil {
		nodes = info.Result.Nodes
	}
	ok := info.Phase == string(core.OpDone) && info.Error == "" && len(nodes) == n
	for _, node := range nodes {
		if info.Progress[node] != string(core.EvJoined) {
			ok = false
		}
	}
	if ok {
		t.observe("acquire_ready", ready)
		if !info.Finished.IsZero() {
			server := info.Finished.Sub(info.Created)
			t.observe("op_server", server)
			t.observe("wait_overhead", ready-server)
		}
		for _, p := range info.Result.Phases {
			t.sum("phase_"+p.Phase+"_ns", float64(p.Total))
			t.sum("phase_"+p.Phase+"_nodes", float64(p.Nodes))
		}
		if k.rec != nil {
			k.rec.add(span{Layer: layerCore, Name: "operation", Op: info.ID, Key: waitKey,
				Start: k.rec.at(info.Created), End: k.rec.at(info.Finished)})
		}
		return nodes, true
	}
	k.giveBack(ctx, t, enclave, info, fmt.Sprintf("phase %s with %d of %d nodes", info.Phase, len(nodes), n))
	return nil, false
}

// giveBack counts a terminal operation as failed under its first
// per-node cause (or reason, when the result names none), releases the
// nodes that did join and reclaims the rejected ones.
func (k *caller) giveBack(ctx context.Context, t *tally, enclave string, info *remote.OperationInfo, reason string) {
	cause := failure{Phase: "operation", Error: info.Error}
	res := info.Result
	switch {
	case res != nil && len(res.Failed) > 0:
		cause = failure{res.Failed[0].Phase, res.Failed[0].Error}
	case res != nil && len(res.Aborted) > 0:
		cause = failure{res.Aborted[0].Phase, res.Aborted[0].Error}
	case cause.Error == "":
		cause.Error = reason
	}
	t.fail(cause.Phase, errors.New(cause.Error))
	if res == nil {
		return
	}
	for _, node := range res.Nodes {
		_ = k.c.ReleaseNode(ctx, enclave, node, "") // best effort: the operation already counts as failed
	}
	for _, f := range res.Failed {
		_ = k.c.ReclaimNode(ctx, enclave, f.Node) // best effort, as above
	}
}

// abandon cancels an operation whose caller gave up on it and gives
// back whatever nodes it still acquired. Best effort: the attempt is
// already counted as failed.
func (k *caller) abandon(ctx context.Context, enclave, id string) {
	if _, err := k.c.CancelOperation(ctx, id); err != nil {
		return
	}
	info, err := k.c.WaitOperation(ctx, id)
	if err != nil || info.Result == nil {
		return
	}
	for _, node := range info.Result.Nodes {
		_ = k.c.ReleaseNode(ctx, enclave, node, "")
	}
}

// acquireWait is submit → long-poll wait → settle; it returns the
// nodes acquired.
func (k *caller) acquireWait(parent context.Context, t *tally, enclave string, n int) ([]string, bool) {
	ctx, cancel := context.WithTimeout(parent, acquireTimeout)
	defer cancel()
	t.attempt()
	begin := time.Now()
	op, err := k.submit(ctx, t, enclave, n)
	if err != nil {
		t.fail("submit", err)
		return nil, false
	}
	var info *remote.OperationInfo
	waitKey := "GET /v1/operations/" + op.ID + "?wait=1"
	err = k.call(waitKey, func() (err error) {
		info, err = k.c.WaitOperation(ctx, op.ID)
		return err
	})
	if err != nil {
		t.fail("wait", err)
		k.abandon(parent, enclave, op.ID)
		return nil, false
	}
	return k.settle(parent, t, enclave, n, begin, info, waitKey)
}

// release gives every node back, timing each DELETE.
func (k *caller) release(ctx context.Context, t *tally, enclave string, nodes []string) bool {
	for _, node := range nodes {
		begin := time.Now()
		err := k.call("DELETE /v1/enclaves/"+enclave+"/nodes/"+node, func() error {
			return k.c.ReleaseNode(ctx, enclave, node, "")
		})
		if err != nil {
			t.fail("release", err)
			return false
		}
		t.observe("release", time.Since(begin))
	}
	return true
}

// checkReleased asserts that no node is still a member of the enclave
// after its tenant released everything.
func checkReleased(ctx context.Context, c *remote.V1Client, t *tally, enclave string) {
	info, err := c.GetEnclave(ctx, enclave)
	if err != nil {
		t.violation("GET enclave %s: %v", enclave, err)
		return
	}
	for node, state := range info.Nodes {
		if state == string(core.StateAllocated) {
			t.violation("enclave %s: released node %s is still %s", enclave, node, state)
		}
	}
}
