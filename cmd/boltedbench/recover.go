package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bolted/internal/core"
	"bolted/internal/remote"
	"bolted/internal/store"
)

// crash-recover: seed two charlie enclaves of four members each behind
// a fixed history of acquire/release cycles, SIGKILL the daemon, then
// repeatedly start a fresh daemon on a byte-for-byte copy of the killed
// data directory and time how long the tenant waits until its members
// are back — store replay, Manager.Recover and one fresh-nonce re-quote
// per node.
const (
	recoverEnclaves = 2
	recoverMembers  = 4
	recoverHistory  = 300 // acquire/release cycles per enclave before the crash
	recoverSpare    = 4
	recoverWarmup   = 2
	recoverTimeout  = 10 * time.Second
	tracedRestarts  = 20 // restarts of the traced replay
	liveRestarts    = 5  // restarts observed through /proc in the traced companion
)

type crashRecover struct {
	env      *env
	enclaves []string

	seedDir string            // the killed daemon's data directory
	preSeq  map[string]uint64 // enclave -> last journal seq before the crash
	members map[string][]string
}

func newCrashRecover(e *env, seed int64) *crashRecover {
	rng := rand.New(rand.NewSource(seed))
	w := &crashRecover{env: e, preSeq: make(map[string]uint64), members: make(map[string][]string)}
	for i := 0; i < recoverEnclaves; i++ {
		w.enclaves = append(w.enclaves, fmt.Sprintf("%c-%04x", 'a'+i, rng.Intn(1<<16)))
	}
	return w
}

// watched is the enclave whose return the tenant polls for.
func (w *crashRecover) watched() string { return w.enclaves[len(w.enclaves)-1] }

func (w *crashRecover) nodes() int { return recoverEnclaves*recoverMembers + recoverSpare }

func (w *crashRecover) close() {}

func (w *crashRecover) setup(ctx context.Context) error {
	w.seedDir = w.env.dataDir("seed")
	d, err := w.env.start(w.seedDir, w.nodes())
	if err != nil {
		return err
	}
	defer d.kill()
	clients := make([]*remote.V1Client, len(w.enclaves))
	for i := range clients {
		clients[i] = remote.NewV1Client(d.base)
	}
	if _, err := d.awaitListening(ctx, clients[0]); err != nil {
		return err
	}
	for i, name := range w.enclaves {
		if _, err := clients[i].CreateEnclave(ctx, name, profileCharlie); err != nil {
			return err
		}
	}
	// The history is the churn-cold cycle with a fixed count, so the
	// WAL every restart replays has the same size on every run.
	t := newTally()
	churnLoop(ctx, clients, w.enclaves, nil, t, func(done int) bool { return done < recoverHistory })
	for i, name := range w.enclaves {
		k := &caller{name: name, c: clients[i]}
		for try, ok := 0, false; !ok; try++ {
			if try == 3 {
				return fmt.Errorf("seeding: members of %s: %v", name, t.firstCauses(3))
			}
			w.members[name], ok = k.acquireWait(ctx, t, name, recoverMembers)
		}
		// The last seq before the crash: nothing is journalled after the
		// members joined.
		err := clients[i].EnclaveEvents(ctx, name, 0, false, func(ev remote.EventInfo) error {
			w.preSeq[name] = ev.Seq
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := tolerable(t, "seeding"); err != nil {
		return err
	}
	d.kill()
	warm := newTally()
	for i := 0; i < recoverWarmup; i++ {
		w.restart(ctx, warm, nil)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up restart failed: %v", warm.firstCauses(1))
	}
	return tolerable(warm, "warm-up")
}

// restart is one measured outage: copy the killed data directory,
// start boltedd on the copy, poll until the watched enclave shows all
// its members allocated, check every member's re-quote, kill. observe,
// when set, sees the daemon just before it is killed.
func (w *crashRecover) restart(parent context.Context, t *tally, observe func(*daemon)) {
	ctx, cancel := context.WithTimeout(parent, recoverTimeout)
	defer cancel()
	t.attempt()
	dir := w.env.dataDir("recover")
	if err := copyDir(w.seedDir, dir); err != nil {
		t.fail("copy", err)
		return
	}
	defer os.RemoveAll(dir) // best effort, as above: scratch goes at exit
	d, err := w.env.start(dir, w.nodes())
	if err != nil {
		t.fail("exec", err)
		return
	}
	defer d.kill()
	c := remote.NewV1Client(d.base)
	listening, err := d.awaitListening(ctx, c)
	if err != nil {
		t.fail("listen", err)
		return
	}
	for {
		info, err := c.GetEnclave(ctx, w.watched())
		if err == nil && countState(info, core.StateAllocated) == recoverMembers {
			break
		}
		if ctx.Err() != nil {
			t.fail("readopt", fmt.Errorf("members of %s not back within %v (last error: %v)", w.watched(), recoverTimeout, err))
			return
		}
		time.Sleep(pollEvery)
	}
	t.observe("recover_ready", time.Since(d.started))
	t.observe("listen", listening.Sub(d.started))
	w.checkReadopted(ctx, c, t)
	if observe != nil {
		observe(d)
	}
}

func countState(info *remote.EnclaveInfo, want core.NodeState) int {
	n := 0
	for _, st := range info.Nodes {
		if st == string(want) {
			n++
		}
	}
	return n
}

// checkReadopted verifies that every recorded member of every enclave
// is allocated again and that none skipped the re-quote: after the
// last pre-crash sequence number its journal shows an attested event
// and then a recovered event. The resumed feed read is itself timed —
// it is the first thing a tenant with a cursor does after an outage.
func (w *crashRecover) checkReadopted(ctx context.Context, c *remote.V1Client, t *tally) {
	var resume time.Duration // over every enclave: only the first read pays the flush
	defer func() { t.observe("resume_feed", resume) }()
	for _, name := range w.enclaves {
		info, err := c.GetEnclave(ctx, name)
		if err != nil {
			t.violation("GET enclave %s after restart: %v", name, err)
			continue
		}
		for _, node := range w.members[name] {
			if info.Nodes[node] != string(core.StateAllocated) {
				t.violation("enclave %s: member %s came back %q, not allocated", name, node, info.Nodes[node])
			}
		}
		attested := make(map[string]uint64)
		recovered := make(map[string]uint64)
		begin := time.Now()
		err = c.EnclaveEvents(ctx, name, int(w.preSeq[name]), false, func(ev remote.EventInfo) error {
			if ev.Seq <= w.preSeq[name] {
				t.violation("enclave %s: resumed feed replayed seq %d (cursor %d)", name, ev.Seq, w.preSeq[name])
			}
			switch ev.Kind {
			case string(core.EvAttested):
				attested[ev.Node] = ev.Seq
			case string(core.EvRecovered):
				recovered[ev.Node] = ev.Seq
			}
			return nil
		})
		if err != nil {
			t.violation("enclave %s: resumed feed: %v", name, err)
			continue
		}
		resume += time.Since(begin)
		for _, node := range w.members[name] {
			if a, r := attested[node], recovered[node]; a == 0 || r == 0 || r < a {
				t.violation("enclave %s: member %s re-adopted without a fresh quote (attested seq %d, recovered seq %d)", name, node, a, r)
			}
		}
	}
}

func (w *crashRecover) measure(ctx context.Context, window time.Duration) (*tally, map[string]float64, error) {
	t := newTally()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		w.restart(ctx, t, nil)
	}
	return t, map[string]float64{
		"recover_ready_p50_ms": percentile(sorted(t.samples("recover_ready")), 50),
	}, nil
}

func (w *crashRecover) layers(ctx context.Context, _ time.Duration, r *result) error {
	// Live: a few restarts with the daemon's /proc read before the kill.
	var cpu, rss float64
	t := newTally()
	for i := 0; i < liveRestarts; i++ {
		w.restart(ctx, t, func(d *daemon) {
			if ps, err := d.procStat(); err == nil {
				cpu += ps.cpuSeconds
				if ps.rssPeakMB > rss {
					rss = ps.rssPeakMB
				}
			}
		})
	}
	r.absorb(t)
	r.Layer["boltedd.rss_peak_mb"] = rss
	r.Layer["boltedd.cpu_s_per_1k_cycles"] = 1000 * cpu / liveRestarts

	// Traced: the same restart through the decorated in-process stack.
	tr := &traced{rec: newRecorder(), cycles: tracedRestarts, nodes: tracedRestarts * recoverEnclaves * recoverMembers}
	var plain, decorated samples
	for i := 0; i < tracedRestarts; i++ {
		for _, rec := range []*recorder{nil, tr.rec} {
			dir := w.env.dataDir("replay-recover")
			if err := copyDir(w.seedDir, dir); err != nil {
				return err
			}
			s, err := newStack(dir, w.nodes(), rec)
			if err != nil {
				return err
			}
			if got := len(s.report.Readopted); got != recoverEnclaves*recoverMembers {
				r.Checks = append(r.Checks, fmt.Sprintf("traced restart re-adopted %d of %d members", got, recoverEnclaves*recoverMembers))
			}
			if rec == nil {
				plain.add(s.recover)
			} else {
				decorated.add(s.recover)
				for _, name := range w.enclaves {
					if enc, err := s.mgr.Enclave(name); err == nil {
						tr.events += len(enc.Journal().Events()) - int(w.preSeq[name])
					}
				}
			}
			if err := s.close(); err != nil {
				return err
			}
			_ = os.RemoveAll(dir) // best effort: the run's scratch directory goes at exit anyway
		}
	}
	tr.untracedP50, tr.tracedP50 = percentile(sorted(plain), 50), percentile(sorted(decorated), 50)
	link(tr.rec.spans)
	tr.fill(r)
	r.Layer["core.recover_ms"] = percentile(sorted(decorated), 50)
	r.Layer["core.readopt_ms_per_node"] = readoptPerNode(tr.rec.spans)
	if err := tr.rec.writeNDJSON(w.env.tracePath(wlCrashRecover)); err != nil {
		return err
	}

	// Direct: the store's share of the outage, and the crypto floor.
	var replay samples
	for i := 0; i < tracedRestarts; i++ {
		begin := time.Now()
		st, err := store.Open(w.seedDir)
		if err != nil {
			return err
		}
		_, recs, err := st.Load()
		replay.add(time.Since(begin))
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("seeded WAL replayed no records")
		}
	}
	ms := percentile(sorted(replay), 50)
	r.Layer["store.replay_ms"] = ms
	r.Layer["store.replay_MBps"] = float64(walSize(w.seedDir)) / (1 << 20) / (ms / 1000)
	r.Layer["store.wal_bytes_per_cycle"] = float64(walSize(w.seedDir)) / (recoverEnclaves * recoverHistory)
	if err := fsyncProbe(filepath.Dir(w.seedDir), r.Layer); err != nil {
		return err
	}
	return tpmProbes(r.Layer)
}

// readoptPerNode is the mean time from a node's first backend call of
// a recovery to its last, over every re-adopted node.
func readoptPerNode(spans []span) float64 {
	type extent struct{ lo, hi int64 }
	var recovers []span
	for _, s := range spans {
		if s.Layer == layerCore && s.Name == "Recover" {
			recovers = append(recovers, s)
		}
	}
	var total int64
	var nodes int
	for _, rc := range recovers {
		per := make(map[string]*extent)
		for _, s := range spans {
			if s.Node == "" || s.Start < rc.Start || s.End > rc.End {
				continue
			}
			e := per[s.Node]
			if e == nil {
				per[s.Node] = &extent{s.Start, s.End}
				continue
			}
			if s.Start < e.lo {
				e.lo = s.Start
			}
			if s.End > e.hi {
				e.hi = s.End
			}
		}
		for _, e := range per {
			total += e.hi - e.lo
			nodes++
		}
	}
	if nodes == 0 {
		return 0
	}
	return float64(total) / float64(nodes) / 1e6
}
