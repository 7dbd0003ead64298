package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"bolted/internal/core"
	"bolted/internal/remote"
)

// traced is the outcome of replaying a daemon workload through the
// decorated in-process stack, next to the same replay undecorated.
type traced struct {
	rec         *recorder
	cycles      int
	nodes       int     // nodes acquired over the replay
	events      int     // journal events recorded over the replay
	tracedP50   float64 // acquire_ready p50 with decorators, ms
	untracedP50 float64 // the same without
	mallocsV1   float64 // heap allocations per cycle over /v1, undecorated
	mallocsCore float64 // the same cycle through Manager.StartAcquire
	pollBytes   float64 // mean response body of a monitoring GET (poll-feed)
	checks      []string
}

// replayFunc drives a stack's /v1 surface and returns its tally and
// completed cycles.
type replayFunc func(s *stack, clients []*remote.V1Client) (*tally, int)

// replayed is what one replay counted.
type replayed struct {
	t       *tally
	cycles  int
	events  int    // journal events recorded
	mallocs uint64 // heap allocations of the whole process
}

func (r *replayed) readyP50() float64 { return percentile(sorted(r.t.samples("acquire_ready")), 50) }

// replay builds a fresh in-process stack with the enclaves created,
// runs prep unrecorded (warm-up), then fn, counting journal events and
// heap allocations around fn alone.
func replay(ctx context.Context, e *env, label string, nodes int, enclaves []string, rec *recorder,
	prep, fn replayFunc) (out *replayed, err error) {
	rec.pause(true) // building the stack and creating enclaves is not part of any cycle
	s, err := newStack(e.dataDir(label), nodes, rec)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	clients := make([]*remote.V1Client, len(enclaves))
	for i, name := range enclaves {
		clients[i] = remote.NewV1Client(s.base)
		if _, err := clients[i].CreateEnclave(ctx, name, profileCharlie); err != nil {
			return nil, err
		}
	}
	journalLen := func() int {
		n := 0
		for _, name := range enclaves {
			if enc, err := s.mgr.Enclave(name); err == nil {
				n += len(enc.Journal().Events())
			}
		}
		return n
	}
	if warm, _ := prep(s, clients); warm.failed > 0 {
		return nil, fmt.Errorf("replay %s: warm-up: %d of %d operations failed: %v", label, warm.failed, warm.attempted, warm.firstCauses(1))
	}
	rec.pause(false)
	var before, after runtime.MemStats
	evBefore := journalLen()
	runtime.ReadMemStats(&before)
	t, cycles := fn(s, clients)
	runtime.ReadMemStats(&after)
	// The per-cycle counts are exact only over clean cycles.
	if t.failed > 0 {
		return nil, fmt.Errorf("replay %s: %d of %d operations failed: %v", label, t.failed, t.attempted, t.firstCauses(1))
	}
	return &replayed{t: t, cycles: cycles, events: journalLen() - evBefore, mallocs: after.Mallocs - before.Mallocs}, nil
}

// tracedChurn replays churn-cold for tracedCycles cycles three ways:
// undecorated over /v1, decorated over /v1, and undecorated straight
// through the Manager.
func tracedChurn(ctx context.Context, e *env, enclaves []string) (*traced, error) {
	nodes := churnTenants*churnBatch + churnSpare
	perTenant := tracedCycles / churnTenants
	loop := func(rec *recorder, cycles int) replayFunc {
		return func(_ *stack, clients []*remote.V1Client) (*tally, int) {
			t := newTally()
			n := churnLoop(ctx, clients, enclaves, rec, t, func(done int) bool { return done < cycles })
			return t, n
		}
	}
	warm := loop(nil, replayWarmup)
	direct := func(cycles int) replayFunc {
		return func(s *stack, _ []*remote.V1Client) (*tally, int) { return directChurn(ctx, s.mgr, enclaves, cycles) }
	}
	// The undecorated /v1 replay goes last: whatever the process gains
	// from running longer counts against the decorators, not for them.
	tr := &traced{rec: newRecorder()}
	core, err := replay(ctx, e, "replay-core", nodes, enclaves, nil, direct(replayWarmup), direct(perTenant))
	if err != nil {
		return nil, err
	}
	tr.mallocsCore = float64(core.mallocs) / float64(core.cycles)

	traced, err := replay(ctx, e, "replay-traced", nodes, enclaves, tr.rec, warm, loop(tr.rec, perTenant))
	if err != nil {
		return nil, err
	}
	tr.cycles, tr.nodes, tr.events = traced.cycles, traced.cycles*churnBatch, traced.events
	tr.tracedP50 = traced.readyP50()

	plain, err := replay(ctx, e, "replay-plain", nodes, enclaves, nil, warm, loop(nil, perTenant))
	if err != nil {
		return nil, err
	}
	tr.untracedP50 = plain.readyP50()
	tr.mallocsV1 = float64(plain.mallocs) / float64(plain.cycles)
	link(tr.rec.spans)
	return tr, nil
}

// tracedPollFeed replays poll-feed for tracedCycles feed cycles with
// and without decorators. It also checks the prediction that the
// monitoring connection causes no keylime work: every keylime span
// must lie inside the operation it names.
func tracedPollFeed(ctx context.Context, e *env, enclave string) (*traced, error) {
	// One pair per stack: the monitor's memory of the journal tail must
	// carry over from the warm-up into the recorded loop.
	var pair *feedPair
	warm := func(s *stack, _ []*remote.V1Client) (*tally, int) {
		pair = newFeedPair(s.base, enclave)
		t := newTally()
		if err := pair.warm(ctx); err != nil {
			t.fail("warm-up", err)
		}
		return t, 0
	}
	loop := func(rec *recorder) replayFunc {
		return func(*stack, []*remote.V1Client) (*tally, int) {
			t := newTally()
			n, _, _ := pair.loop(ctx, rec, t, func(done int) bool { return done < tracedCycles })
			return t, n
		}
	}
	nodes := feedBatch + feedSpare
	tr := &traced{rec: newRecorder()}
	traced, err := replay(ctx, e, "replay-traced", nodes, []string{enclave}, tr.rec, warm, loop(tr.rec))
	if err != nil {
		return nil, err
	}
	tr.cycles, tr.nodes, tr.events = traced.cycles, traced.cycles*feedBatch, traced.events
	tr.tracedP50 = traced.readyP50()
	plain, err := replay(ctx, e, "replay-plain", nodes, []string{enclave}, nil, warm, loop(nil))
	if err != nil {
		return nil, err
	}
	tr.untracedP50 = plain.readyP50()
	link(tr.rec.spans)

	ops := make(map[string]span)
	byID := make(map[int]span)
	for _, s := range tr.rec.spans {
		byID[s.ID] = s
		if s.Layer == layerCore {
			ops[s.Op] = s
		}
	}
	var polls, pollBytes int64
	for _, s := range tr.rec.spans {
		if s.Server && byID[s.Parent].Op == "monitor" {
			polls++
			pollBytes += s.Bytes
		}
	}
	if polls > 0 {
		tr.pollBytes = float64(pollBytes) / float64(polls)
	}
	stray := 0
	for _, s := range tr.rec.spans {
		if s.Layer != layerKeylime {
			continue
		}
		if op, ok := ops[s.Op]; !ok || s.Start < op.Start || s.End > op.End {
			stray++
		}
	}
	if stray > 0 {
		tr.checks = append(tr.checks, fmt.Sprintf("poll-feed: %d keylime calls outside any acquisition (the monitor must cause none)", stray))
	}
	return tr, nil
}

// directChurn is the churn cycle without the remote layer: the same
// work through Manager.StartAcquire and Enclave.ReleaseNode, in step
// like churnLoop.
func directChurn(ctx context.Context, mgr *core.Manager, enclaves []string, perTenant int) (*tally, int) {
	t := newTally()
	encs := make([]*core.Enclave, len(enclaves))
	for i, name := range enclaves {
		enc, err := mgr.Enclave(name)
		if err != nil {
			t.fail("enclave", err)
			return t, 0
		}
		encs[i] = enc
	}
	held := make([][]*core.Node, len(enclaves))
	for round := 0; round < perTenant && t.failed == 0; round++ {
		inStep(len(enclaves), func(i int) {
			t.attempt()
			held[i] = nil
			op, err := mgr.StartAcquire(enclaves[i], imageName, churnBatch)
			if err != nil {
				t.fail("submit", err)
				return
			}
			res, err := op.Wait(ctx)
			if err != nil || len(res.Nodes) != churnBatch {
				t.fail("wait", fmt.Errorf("direct acquire: %v", err))
				return
			}
			held[i] = res.Nodes
		})
		inStep(len(enclaves), func(i int) {
			for _, n := range held[i] {
				if err := encs[i].ReleaseNode(n.Name, ""); err != nil {
					t.fail("release", err)
					return
				}
			}
		})
	}
	return t, perTenant * len(enclaves)
}

// fill writes the span-derived rows and the budget table. Self time is
// a span's duration minus the union of its children's intervals.
func (tr *traced) fill(r *result) {
	out := r.Layer
	spans := tr.rec.spans
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	type agg struct {
		calls int
		busy  int64
	}
	byLayer := make(map[string]agg)
	byName := make(map[string]agg) // layer.Name
	var serverSelf, coreSelf int64
	add := func(m map[string]agg, k string, s span) {
		a := m[k]
		a.calls++
		a.busy += s.dur()
		m[k] = a
	}
	for _, s := range spans {
		add(byLayer, s.Layer, s)
		add(byName, s.Layer+"."+s.Name, s)
		switch {
		case s.Layer == layerRemote && s.Server:
			serverSelf += selfTime(s, children[s.ID])
		case s.Layer == layerCore:
			coreSelf += selfTime(s, children[s.ID])
		}
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	n := float64(tr.cycles)
	nodes := float64(tr.nodes)
	out["remote.server_self_ms_per_cycle"] = ms(serverSelf) / n
	out["core.self_ms_per_cycle"] = ms(coreSelf) / n
	out["core.events_per_cycle"] = float64(tr.events) / n
	st := byLayer[layerStore]
	out["store.busy_ms_per_cycle"] = ms(st.busy) / n
	out["store.appends_per_cycle"] = float64(byName["store.Append"].calls+byName["store.AppendBuffered"].calls) / n
	out["store.syncs_per_cycle"] = float64(byName["store.Sync"].calls) / n
	if q := byName["keylime.Quote"]; q.calls > 0 {
		out["keylime.quote_us"] = float64(q.busy) / 1e3 / float64(q.calls)
		out["keylime.quotes_per_cycle"] = float64(q.calls) / n
	}
	if nodes > 0 {
		reg := byName["keylime.Register"].busy + byName["keylime.Activate"].busy + byName["keylime.AIK"].busy
		out["keylime.registrar_ms_per_node"] = ms(reg) / nodes
		out["driver.boot_ms_per_node"] = ms(byName["driver.Boot"].busy) / nodes
		out["driver.kexec_ms_per_node"] = ms(byName["driver.KexecAttested"].busy) / nodes
	}
	for _, l := range []string{layerHIL, layerBMI} {
		a := byLayer[l]
		out[l+".calls_per_cycle"] = float64(a.calls) / n
		out[l+".busy_ms_per_cycle"] = ms(a.busy) / n
	}
	r.Budget, out["trace.coverage_pct"] = budget(spans)
	r.BudgetCycles = tr.cycles
	if tr.untracedP50 > 0 {
		out["trace.overhead_pct"] = 100 * (tr.tracedP50 - tr.untracedP50) / tr.untracedP50
	}
	if tr.mallocsV1 > 0 {
		out["remote.allocs_per_cycle_added"] = tr.mallocsV1 - tr.mallocsCore
	}
	if tr.pollBytes > 0 {
		out["remote.bytes_per_poll"] = tr.pollBytes
	}
}

// tracePath is where a workload's spans are written when its run ends.
func (e *env) tracePath(workload string) string {
	return filepath.Join(e.outDir, "trace-"+workload+".ndjson")
}
