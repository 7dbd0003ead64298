package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bolted/internal/remote"
)

// churn-cold: two charlie tenants, each a closed loop on its own
// connection, acquire four nodes, wait, release them, repeat. The
// write path at full depth, with two concurrent acquisitions so group
// commit and lock contention show.
const (
	churnTenants   = 2
	churnBatch     = 4
	churnSpare     = 4 // nodes beyond what the tenants hold, so one rejected node cannot starve the run
	churnWarmup    = 100
	tracedCycles   = 200 // cycles of the traced replay, per the benchmark's definition
	replayWarmup   = 20  // unrecorded cycles per tenant before a replay is measured
	healthProbes   = 200
	profileCharlie = "charlie"
)

type churn struct {
	env      *env
	enclaves []string

	d       *daemon
	clients []*remote.V1Client
}

func newChurn(e *env, seed int64) *churn {
	rng := rand.New(rand.NewSource(seed))
	w := &churn{env: e}
	for i := 0; i < churnTenants; i++ {
		w.enclaves = append(w.enclaves, fmt.Sprintf("t%d-%04x", i, rng.Intn(1<<16)))
	}
	return w
}

func (w *churn) close() {
	if w.d != nil {
		w.d.kill()
	}
}

func (w *churn) setup(ctx context.Context) error {
	d, err := w.env.start(w.env.dataDir("churn"), churnTenants*churnBatch+churnSpare)
	if err != nil {
		return err
	}
	w.d = d
	// One V1Client per tenant; in a closed loop each keeps exactly one
	// connection of the shared pool busy.
	for range w.enclaves {
		w.clients = append(w.clients, remote.NewV1Client(d.base))
	}
	if _, err := d.awaitListening(ctx, w.clients[0]); err != nil {
		return err
	}
	for i, name := range w.enclaves {
		if _, err := w.clients[i].CreateEnclave(ctx, name, profileCharlie); err != nil {
			return err
		}
	}
	warm := newTally()
	churnLoop(ctx, w.clients, w.enclaves, nil, warm, func(done int) bool { return done < churnWarmup })
	return tolerable(warm, "warm-up")
}

// inStep runs fn for every tenant at once and returns when all are done.
func inStep(n int, fn func(tenant int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// churnLoop runs the tenants' cycles in step until more says stop:
// every tenant acquires and waits, then every tenant releases. The
// acquisitions of a round run at the same time and so do its releases,
// but no acquisition ever runs beside another tenant's release: the
// product frees a node before it has detached and powered it off, and
// an acquisition that claims the node in between loses it again (see
// "Why the tenants run in step" in bench/README.md). It is the same
// code against the live daemon and the in-process stack. more sees the
// number of rounds every tenant completed; churnLoop returns the number
// of completed cycles.
func churnLoop(ctx context.Context, clients []*remote.V1Client, enclaves []string, rec *recorder, t *tally, more func(rounds int) bool) int {
	callers := make([]*caller, len(enclaves))
	for i, name := range enclaves {
		callers[i] = &caller{name: name, c: clients[i], rec: rec}
	}
	held := make([][]string, len(enclaves))
	done := make([]int, len(enclaves))
	for more(minOf(done)) && ctx.Err() == nil {
		inStep(len(callers), func(i int) {
			callers[i].inSpan("acquire", func() {
				held[i], _ = callers[i].acquireWait(ctx, t, enclaves[i], churnBatch)
			})
		})
		inStep(len(callers), func(i int) {
			callers[i].inSpan("release", func() {
				if held[i] != nil && callers[i].release(ctx, t, enclaves[i], held[i]) {
					done[i]++
				}
			})
		})
	}
	total := 0
	for _, n := range done {
		total += n
	}
	return total
}

func minOf(v []int) int {
	m := v[0]
	for _, x := range v[1:] {
		m = min(m, x)
	}
	return m
}

// window runs the loops for the given time; it returns the tally, the
// completed cycle count and the end-to-end numbers.
func (w *churn) window(ctx context.Context, window time.Duration) (*tally, int, map[string]float64) {
	t := newTally()
	begin := time.Now()
	deadline := begin.Add(window)
	cycles := churnLoop(ctx, w.clients, w.enclaves, nil, t, func(int) bool { return time.Now().Before(deadline) })
	elapsed := time.Since(begin).Seconds()
	for i, name := range w.enclaves {
		checkReleased(ctx, w.clients[i], t, name)
	}
	ready := sorted(t.samples("acquire_ready"))
	return t, cycles, map[string]float64{
		"acquire_ready_p50_ms": percentile(ready, 50),
		"acquire_ready_p90_ms": percentile(ready, 90),
		"nodes_per_s":          float64(cycles*churnBatch) / elapsed,
	}
}

func (w *churn) measure(ctx context.Context, window time.Duration) (*tally, map[string]float64, error) {
	t, _, e2e := w.window(ctx, window)
	return t, e2e, nil
}

// layers fills the per-layer metrics: client timers, API fields and a
// /metrics and /proc delta around a window against the live daemon,
// then spans from the replay through the decorated in-process stack,
// then direct calls into single layers.
func (w *churn) layers(ctx context.Context, window time.Duration, r *result) error {
	live, err := observeDaemon(w.d, func() (*tally, int) {
		t, cycles, _ := w.window(ctx, window/2)
		return t, cycles
	})
	if err != nil {
		return err
	}
	r.absorb(live.t)
	live.fill(r.Layer)
	clientLayerMetrics(live.t, r.Layer)
	rtt, err := healthRTT(ctx, w.clients[0])
	if err != nil {
		return err
	}
	r.Layer["remote.health_rtt_p50_us"] = rtt

	tr, err := tracedChurn(ctx, w.env, w.enclaves)
	if err != nil {
		return err
	}
	tr.fill(r)
	if err := tr.rec.writeNDJSON(w.env.tracePath(wlChurnCold)); err != nil {
		return err
	}
	return controlPlaneProbes(ctx, w.env, r.Layer)
}

// healthRTT is the HTTP + JSON floor: GET /v1/health does no core work.
func healthRTT(ctx context.Context, c *remote.V1Client) (float64, error) {
	var s samples
	for i := 0; i < healthProbes; i++ {
		begin := time.Now()
		if _, err := c.Health(ctx); err != nil {
			return 0, err
		}
		s.add(time.Since(begin))
	}
	return percentile(sorted(s), 50) * 1000, nil
}

// clientLayerMetrics turns the client-side timers and API fields of a
// window into remote.* and core.* rows.
func clientLayerMetrics(t *tally, out map[string]float64) {
	p := func(name string, q float64) float64 { return percentile(sorted(t.samples(name)), q) }
	out["remote.submit_p50_ms"] = p("submit", 50)
	out["remote.release_p50_ms"] = p("release", 50)
	out["remote.wait_overhead_p50_ms"] = p("wait_overhead", 50)
	out["remote.acquire_ready_p99_ms"] = p("acquire_ready", 99)
	out["core.op_server_p50_ms"] = p("op_server", 50)
	for _, phase := range []string{"airlock", "boot", "attest", "provision"} {
		if n := t.sums["phase_"+phase+"_nodes"]; n > 0 {
			out["core.phase_"+phase+"_ms"] = t.sums["phase_"+phase+"_ns"] / n / 1e6
		}
	}
}
