package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bolted/internal/core"
	"bolted/internal/remote"
)

// poll-feed: connection A is one charlie tenant that submits a 2-node
// acquisition, follows its NDJSON event feed to the end and releases;
// connection B is a monitoring loop cycling four GETs. Reads beside
// writes on one journal and one store.
const (
	feedBatch   = 2
	feedSpare   = 4
	feedPregrow = 300 // cycles the journal is grown by before anything is measured
	feedWarmup  = 30
	feedTail    = 64 // events behind the journal tail the monitor re-reads
)

// The monitor's four routes, in cycle order.
var pollRoutes = []string{"poll_enclave", "poll_oplist", "poll_op", "poll_events_tail"}

type pollFeed struct {
	env     *env
	enclave string

	d    *daemon
	pair *feedPair
}

// feedPair is the two connections of the workload against one server,
// with what the monitor remembers between rounds.
type feedPair struct {
	feeder, mon *remote.V1Client
	enclave     string
	tail        int    // highest journal seq the monitor has seen
	latest      string // newest operation the monitor has seen
}

func newFeedPair(base, enclave string) *feedPair {
	return &feedPair{feeder: remote.NewV1Client(base), mon: remote.NewV1Client(base), enclave: enclave}
}

func newPollFeed(e *env, seed int64) *pollFeed {
	rng := rand.New(rand.NewSource(seed))
	return &pollFeed{env: e, enclave: fmt.Sprintf("w-%04x", rng.Intn(1<<16))}
}

func (w *pollFeed) close() {
	if w.d != nil {
		w.d.kill()
	}
}

func (w *pollFeed) setup(ctx context.Context) error {
	d, err := w.env.start(w.env.dataDir("pollfeed"), feedBatch+feedSpare)
	if err != nil {
		return err
	}
	w.d = d
	w.pair = newFeedPair(d.base, w.enclave)
	if _, err := d.awaitListening(ctx, w.pair.feeder); err != nil {
		return err
	}
	if _, err := w.pair.feeder.CreateEnclave(ctx, w.enclave, profileCharlie); err != nil {
		return err
	}
	return w.pair.warm(ctx)
}

// warm grows the journal, then runs both connections briefly.
func (p *feedPair) warm(ctx context.Context) error {
	grow := newTally()
	k := &caller{name: "grow", c: p.feeder}
	for i := 0; i < feedPregrow; i++ {
		if nodes, ok := k.acquireWait(ctx, grow, p.enclave, feedBatch); ok {
			k.release(ctx, grow, p.enclave, nodes)
		}
	}
	if err := tolerable(grow, "pre-grow"); err != nil {
		return err
	}
	warm := newTally()
	p.loop(ctx, nil, warm, func(done int) bool { return done < feedWarmup })
	return tolerable(warm, "warm-up")
}

// loop runs connection A until more says stop, with connection B
// polling beside it for exactly as long. It returns A's completed
// cycles, B's completed polls and the elapsed time.
func (p *feedPair) loop(ctx context.Context, rec *recorder, t *tally, more func(done int) bool) (cycles, polls int, elapsed time.Duration) {
	enclave := p.enclave
	var stop atomic.Bool
	var wg sync.WaitGroup
	begin := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		polls = p.monitor(ctx, &caller{name: "monitor", c: p.mon, rec: rec}, t, &stop)
	}()
	k := &caller{name: "feeder", c: p.feeder, rec: rec}
	for more(cycles) && ctx.Err() == nil {
		k.inSpan("cycle", func() {
			if nodes, ok := feedCycle(ctx, k, t, enclave); ok && k.release(ctx, t, enclave, nodes) {
				cycles++
			}
		})
	}
	stop.Store(true)
	wg.Wait()
	return cycles, polls, time.Since(begin)
}

// feedCycle is submit → attach to the operation's event feed → read to
// the terminal event → detach. Every line is checked: sequence numbers
// strictly increasing with no gap, the feed ends on a joined event, and
// exactly the requested nodes joined.
func feedCycle(parent context.Context, k *caller, t *tally, enclave string) ([]string, bool) {
	ctx, cancel := context.WithTimeout(parent, acquireTimeout)
	defer cancel()
	t.attempt()
	begin := time.Now()
	op, err := k.submit(ctx, t, enclave, feedBatch)
	if err != nil {
		t.fail("submit", err)
		return nil, false
	}
	var (
		prev   uint64
		last   remote.EventInfo
		joined []string
	)
	feedKey := "GET /v1/operations/" + op.ID + "/events?from=0"
	err = k.call(feedKey, func() error {
		return k.c.StreamEvents(ctx, op.ID, 0, func(ev remote.EventInfo) error {
			t.observe("feed_lag", time.Since(ev.At))
			if prev != 0 && ev.Seq != prev+1 {
				t.violation("feed %s: seq %d follows %d", op.ID, ev.Seq, prev)
			}
			prev, last = ev.Seq, ev
			if ev.Kind == string(core.EvJoined) {
				joined = append(joined, ev.Node)
			}
			return nil
		})
	})
	if err != nil {
		t.fail("feed", err)
		k.abandon(parent, enclave, op.ID)
		return nil, false
	}
	if len(joined) == feedBatch && last.Kind == string(core.EvJoined) {
		t.observe("acquire_ready", time.Since(begin))
		if k.rec != nil {
			k.rec.add(span{Layer: layerCore, Name: "operation", Op: op.ID, Key: feedKey,
				Start: k.rec.at(op.Created), End: k.rec.at(last.At)})
		}
		return joined, true
	}
	// Fewer nodes than asked for: the operation's result says why, and
	// which nodes to give back or reclaim.
	info, err := k.c.GetOperation(parent, op.ID)
	if err != nil {
		t.fail("operation", err)
		return nil, false
	}
	if len(joined) == feedBatch {
		t.violation("feed %s ended on %q, not on the terminal joined event", op.ID, last.Kind)
	}
	k.giveBack(parent, t, enclave, info, fmt.Sprintf("feed ended with %d of %d nodes joined", len(joined), feedBatch))
	return nil, false
}

// monitor is connection B: GET enclave, GET operations, GET the latest
// operation, GET the journal tail, round and round until stopped.
func (p *feedPair) monitor(ctx context.Context, k *caller, t *tally, stop *atomic.Bool) int {
	polls := 0
	enclave := p.enclave
	timed := func(route, key string, fn func() error) bool {
		begin := time.Now()
		if err := k.call(key, fn); err != nil {
			if ctx.Err() == nil {
				t.attempt()
				t.fail(route, err)
			}
			return false
		}
		d := time.Since(begin)
		t.attempt()
		t.observe("poll", d)
		t.observe(route, d)
		polls++
		return true
	}
	for !stop.Load() && ctx.Err() == nil {
		k.inSpan("cycle", func() {
			timed("poll_enclave", "GET /v1/enclaves/"+enclave, func() error {
				_, err := k.c.GetEnclave(ctx, enclave)
				return err
			})
			timed("poll_oplist", "GET /v1/operations", func() error {
				ops, err := k.c.ListOperations(ctx)
				if err == nil && len(ops) > 0 {
					p.latest = ops[len(ops)-1].ID
				}
				return err
			})
			if p.latest != "" {
				timed("poll_op", "GET /v1/operations/"+p.latest, func() error {
					_, err := k.c.GetOperation(ctx, p.latest)
					return err
				})
			}
			from := p.tail - feedTail
			if from < 0 {
				from = 0
			}
			timed("poll_events_tail", "GET /v1/enclaves/"+enclave+"/events?from="+strconv.Itoa(from), func() error {
				prev := uint64(0)
				return k.c.EnclaveEvents(ctx, enclave, from, false, func(ev remote.EventInfo) error {
					if prev != 0 && ev.Seq != prev+1 {
						t.violation("journal tail: seq %d follows %d", ev.Seq, prev)
					}
					prev = ev.Seq
					if int(ev.Seq) > p.tail {
						p.tail = int(ev.Seq)
					}
					return nil
				})
			})
		})
	}
	return polls
}

// window runs both connections for the given time; it returns the
// tally, connection A's completed cycles and the end-to-end numbers.
func (w *pollFeed) window(ctx context.Context, window time.Duration) (*tally, int, map[string]float64) {
	t := newTally()
	deadline := time.Now().Add(window)
	cycles, polls, elapsed := w.pair.loop(ctx, nil, t, func(int) bool { return time.Now().Before(deadline) })
	checkReleased(ctx, w.pair.feeder, t, w.enclave)
	poll := sorted(t.samples("poll"))
	lag := sorted(t.samples("feed_lag"))
	return t, cycles, map[string]float64{
		"acquire_ready_p50_ms": percentile(sorted(t.samples("acquire_ready")), 50),
		"poll_p50_ms":          percentile(poll, 50),
		"poll_p90_ms":          percentile(poll, 90),
		"polls_per_s":          float64(polls) / elapsed.Seconds(),
		"feed_lag_p50_ms":      percentile(lag, 50),
		"feed_lag_p90_ms":      percentile(lag, 90),
	}
}

func (w *pollFeed) measure(ctx context.Context, window time.Duration) (*tally, map[string]float64, error) {
	t, _, e2e := w.window(ctx, window)
	return t, e2e, nil
}

func (w *pollFeed) layers(ctx context.Context, window time.Duration, r *result) error {
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
	for _, route := range pollRoutes {
		r.Layer["remote."+route+"_p50_us"] = 1000 * percentile(sorted(live.t.samples(route)), 50)
	}
	r.Layer["remote.poll_p99_ms"] = percentile(sorted(live.t.samples("poll")), 99)
	rtt, err := healthRTT(ctx, w.pair.feeder)
	if err != nil {
		return err
	}
	r.Layer["remote.health_rtt_p50_us"] = rtt

	tr, err := tracedPollFeed(ctx, w.env, w.enclave)
	if err != nil {
		return err
	}
	tr.fill(r)
	r.Checks = append(r.Checks, tr.checks...)
	if err := tr.rec.writeNDJSON(w.env.tracePath(wlPollFeed)); err != nil {
		return err
	}
	if err := journalProbes(r.Layer); err != nil {
		return err
	}
	return fsyncProbe(w.env.scratch, r.Layer)
}
