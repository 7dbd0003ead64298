package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolted/internal/store"
)

// copyStoreDir snapshots a live store directory the way a crash does:
// whatever bytes are on disk at this instant, nothing more. The source
// manager can keep running against its own directory; recovery runs
// against the copy.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{"wal.log", "snapshot.json"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// durableManager builds a Manager over a fresh cloud and a file store.
func durableManager(t *testing.T, nodes int) (*Manager, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(t, nodes, FirmwareLinuxBoot)
	return NewManagerWithStore(cloud, st), dir
}

// recoverFrom opens a crash-copy of dir on a brand-new cloud of the
// same size and runs recovery — a full control-plane restart.
func recoverFrom(t *testing.T, dir string, nodes int) (*Manager, *RecoverReport) {
	t.Helper()
	st, err := store.Open(copyStoreDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(t, nodes, FirmwareLinuxBoot)
	mgr := NewManagerWithStore(cloud, st)
	report, err := mgr.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return mgr, report
}

// TestRecoverReadoptsMembersAndWarm is the tentpole scenario: a durable
// control plane with allocated members, a filled warm pool, a quota and
// a pool policy restarts, and every recorded node is re-adopted by a
// fresh attestation quote — no orphaned hardware, no trusted-by-replay
// members — while journal cursors taken before the crash keep working.
func TestRecoverReadoptsMembersAndWarm(t *testing.T) {
	const nodes = 8
	mgr1, dir := durableManager(t, nodes)
	if _, err := mgr1.CreateEnclave("dur", ProfileBob); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr1.SetQuota("dur", TenantQuota{Weight: 3, MaxNodes: 6}); err != nil {
		t.Fatal(err)
	}
	pol := DefaultPoolPolicy()
	pol.Target = 2
	if _, _, err := mgr1.ConfigurePool("dur", pol); err != nil {
		t.Fatal(err)
	}
	op, err := mgr1.StartAcquire("dur", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := op.Wait(context.Background())
	if err != nil || res == nil || len(res.Nodes) != 2 {
		t.Fatalf("acquire: %v %+v", err, res)
	}
	e1, _ := mgr1.Enclave("dur")
	waitWarm(t, e1, 2)

	// A tenant streamed events up to midSeq before the crash.
	preEvents := e1.Journal().Events()
	if len(preEvents) < 4 {
		t.Fatalf("expected a rich pre-crash journal, got %d events", len(preEvents))
	}
	midSeq := preEvents[len(preEvents)/2].Seq

	mgr2, report := recoverFrom(t, dir, nodes)
	if report.Enclaves != 1 {
		t.Fatalf("report.Enclaves = %d", report.Enclaves)
	}
	if len(report.Readopted) != 4 {
		var post []Event
		if e, err := mgr2.Enclave("dur"); err == nil {
			post = e.Journal().Events()
		}
		t.Fatalf("re-adopted %v, want 2 members + 2 warm (rejected %v, released %v)\npost-recovery journal:\n%v",
			report.Readopted, report.Rejected, report.Released, post)
	}

	e2, err := mgr2.Enclave("dur")
	if err != nil {
		t.Fatal(err)
	}
	states := e2.NodeStates()
	var allocated, warm int
	for n, s := range states {
		switch s {
		case StateAllocated:
			allocated++
		case StateWarm:
			warm++
		default:
			t.Errorf("node %s recovered into %s", n, s)
		}
	}
	if allocated != 2 || warm != 2 {
		t.Fatalf("recovered states = %v, want 2 allocated + 2 warm", states)
	}
	// Every member was re-adopted through the acquisition pipeline — a
	// fresh quote, not trust-by-replay: the post-recovery journal holds a
	// readopt allocation and an EvRecovered per node.
	if got := e2.Journal().Count(EvRecovered); got != 4 {
		t.Fatalf("EvRecovered count = %d, want 4", got)
	}

	// Zero orphaned hardware: the new provider sees exactly the nodes
	// the enclave holds as allocated-to-project.
	free, err := mgr2.cloud.HIL.FreeNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != nodes-4 {
		t.Fatalf("free nodes after recovery = %d (%v), want %d", len(free), free, nodes-4)
	}

	// Quota and pool policy survived.
	q, err := mgr2.Quota("dur")
	if err != nil || q.Quota.Weight != 3 || q.Quota.MaxNodes != 6 {
		t.Fatalf("quota after recovery: %+v, %v", q, err)
	}
	ps, err := mgr2.PoolStats("dur")
	if err != nil || ps.Policy.Target != 2 {
		t.Fatalf("pool after recovery: %+v, %v", ps, err)
	}

	// Cursor stability: resuming from the pre-crash cursor yields the
	// rest of the pre-crash history and then the recovery events, with
	// contiguous seqs — no gaps, no duplicates.
	resumed := e2.Journal().SinceSeq(midSeq)
	if len(resumed) == 0 || resumed[0].Seq != midSeq+1 {
		t.Fatalf("SinceSeq(%d) starts at %+v", midSeq, resumed)
	}
	want := midSeq
	for _, ev := range resumed {
		want++
		if ev.Seq != want {
			t.Fatalf("seq gap: got %d want %d", ev.Seq, want)
		}
	}
	// The replayed prefix is byte-for-byte the pre-crash history.
	post := e2.Journal().Events()
	for i, ev := range preEvents {
		if post[i].Seq != ev.Seq || post[i].Kind != ev.Kind || post[i].Node != ev.Node {
			t.Fatalf("replayed event %d = %+v, pre-crash %+v", i, post[i], ev)
		}
	}
	// New events (recovery re-adoption) continue the sequence, never
	// reuse it.
	last := preEvents[len(preEvents)-1].Seq
	fresh := e2.Journal().SinceSeq(last)
	if len(fresh) == 0 {
		t.Fatal("recovery recorded no new events")
	}
	for _, ev := range fresh {
		if ev.Seq <= last {
			t.Fatalf("recovery event reused seq %d (last pre-crash %d)", ev.Seq, last)
		}
	}
}

// TestRecoverInterruptedAcquire kills the control plane mid-batch: the
// recorded operation surfaces as interrupted, its partially-held nodes
// are released or re-adopted (never stuck mid-pipeline), and the
// idempotency key maps back to the interrupted operation across the
// restart so the client knows to re-submit.
func TestRecoverInterruptedAcquire(t *testing.T) {
	const nodes = 4
	mgr1, dir := durableManager(t, nodes)
	if _, err := mgr1.CreateEnclave("dur", ProfileBob); err != nil {
		t.Fatal(err)
	}
	e1, _ := mgr1.Enclave("dur")

	// Crash the instant the first node starts attesting. The journal
	// persist hook commits before fan-out, so when this fires the event
	// is already on disk. The watcher then holds the journal — no event
	// can be recorded while it runs — so the batch stays parked in its
	// attest phase until the store has been copied.
	attesting, copied := make(chan struct{}), make(chan struct{})
	var once, unpark sync.Once
	cancel := e1.Journal().Watch(func(ev Event) {
		if ev.Kind == EvAttesting {
			once.Do(func() {
				close(attesting)
				<-copied
			})
		}
	})
	defer cancel()
	release := func() { unpark.Do(func() { close(copied) }) }
	defer release()

	op1, replayed, err := mgr1.StartAcquireIdem("dur", "fedora28", 3, "retry-key-1")
	if err != nil || replayed {
		t.Fatalf("StartAcquireIdem: %v replayed=%v", err, replayed)
	}
	select {
	case <-attesting:
	case <-time.After(15 * time.Second):
		t.Fatal("batch never reached attestation")
	}
	dir2 := copyStoreDir(t, dir)
	release()

	st, err := store.Open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), st)
	report, err := mgr2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Interrupted) != 1 {
		t.Fatalf("interrupted ops = %v, want exactly %s", report.Interrupted, op1.ID)
	}

	op2, err := mgr2.Operation(op1.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2 := op2.Status()
	if st2.Phase != OpInterrupted || !st2.Phase.Terminal() {
		t.Fatalf("recovered op phase = %s", st2.Phase)
	}
	if st2.Err == nil {
		t.Fatal("interrupted op should carry an error explaining the restart")
	}
	// Wait returns immediately: the op is terminal, not wedged.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), time.Second)
	defer waitCancel()
	if _, err := op2.Wait(waitCtx); err == nil {
		t.Fatal("Wait on an interrupted op should surface its error")
	}

	// No node is stuck mid-pipeline: everything is allocated (re-adopted
	// members that had joined before the crash), rejected, or back in
	// the free pool.
	e2, _ := mgr2.Enclave("dur")
	for n, s := range e2.NodeStates() {
		switch s {
		case StateAllocated, StateRejected:
		default:
			t.Errorf("node %s recovered into non-terminal state %s", n, s)
		}
	}

	// The idempotency key survived the restart and maps to the
	// interrupted operation — the retry does NOT start a second batch.
	opRetry, replayed, err := mgr2.StartAcquireIdem("dur", "fedora28", 3, "retry-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || opRetry.ID != op1.ID {
		t.Fatalf("idem retry: replayed=%v id=%s, want replay of %s", replayed, opRetry.ID, op1.ID)
	}
	// A fresh key runs a fresh batch to completion on the recovered
	// control plane.
	opNew, replayed, err := mgr2.StartAcquireIdem("dur", "fedora28", 1, "retry-key-2")
	if err != nil || replayed {
		t.Fatalf("fresh acquire after recovery: %v replayed=%v", err, replayed)
	}
	if res, err := opNew.Wait(context.Background()); err != nil || len(res.Nodes) != 1 {
		t.Fatalf("post-recovery acquire: %v %+v", err, res)
	}
	if got := opNew.Status().Phase; got != OpDone {
		t.Fatalf("post-recovery acquire phase = %s", got)
	}
}

// TestRecoverRestoresQuarantine: distrust survives a restart verbatim —
// a quarantined node is NOT re-quoted back into the enclave, and the
// provider keeps it out of the free pool.
func TestRecoverRestoresQuarantine(t *testing.T) {
	const nodes = 4
	mgr1, dir := durableManager(t, nodes)
	if _, err := mgr1.CreateEnclave("dur", ProfileCharlie); err != nil {
		t.Fatal(err)
	}
	op, err := mgr1.StartAcquire("dur", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := op.Wait(context.Background())
	if err != nil || len(res.Nodes) != 2 {
		t.Fatalf("acquire: %v", err)
	}
	e1, _ := mgr1.Enclave("dur")
	bad := res.Nodes[0].Name
	if err := e1.QuarantineNode(bad, "runtime integrity violation"); err != nil {
		t.Fatal(err)
	}

	mgr2, report := recoverFrom(t, dir, nodes)
	if len(report.Quarantined) != 1 {
		t.Fatalf("report.Quarantined = %v", report.Quarantined)
	}
	e2, _ := mgr2.Enclave("dur")
	states := e2.NodeStates()
	if states[bad] != StateQuarantined {
		t.Fatalf("quarantined node recovered into %s", states[bad])
	}
	// The surviving member was re-adopted by fresh quote.
	var allocated int
	for _, s := range states {
		if s == StateAllocated {
			allocated++
		}
	}
	if allocated != 1 {
		t.Fatalf("states after recovery = %v", states)
	}
	// The provider never hands the quarantined machine to anyone.
	free, err := mgr2.cloud.HIL.FreeNodes()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range free {
		if n == bad {
			t.Fatalf("quarantined node %s back in the free pool", bad)
		}
	}
}

// TestRecoverClosesInterruptedIncident: an incident that was mid-
// response when the control plane died cannot keep "responding" — its
// responder died with the process — so recovery closes it as unhandled
// with an explanation, and the incident feed replays across the restart
// with stable cursors.
func TestRecoverClosesInterruptedIncident(t *testing.T) {
	const nodes = 2
	mgr1, dir := durableManager(t, nodes)
	if _, err := mgr1.CreateEnclave("dur", ProfileBob); err != nil {
		t.Fatal(err)
	}
	inc := mgr1.OpenIncident("dur", "node00", "revocation: ima violation")
	inc.Step("quarantine", "tearing node00 out of the enclave")
	// Pre-crash cursor: the tenant has streamed both updates.
	pre, _, cursor := mgr1.IncidentUpdatesSince(0)
	if len(pre) != 2 {
		t.Fatalf("pre-crash incident updates = %d", len(pre))
	}

	mgr2, _ := recoverFrom(t, dir, nodes)
	inc2, err := mgr2.Incident(inc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := inc2.State(); got != IncidentUnhandled {
		t.Fatalf("interrupted incident recovered as %s", got)
	}
	select {
	case <-inc2.Done():
	default:
		t.Fatal("recovered incident not terminal")
	}
	// Resuming from the pre-crash cursor yields exactly the close
	// update — no gaps, no replayed duplicates.
	updates, _, _ := mgr2.IncidentUpdatesSince(cursor)
	if len(updates) != 1 || updates[0].State != IncidentUnhandled {
		t.Fatalf("resumed incident updates = %+v", updates)
	}
}

// TestManagerFailsClosedOnStoreFailure: when the store cannot commit
// (disk full), mutations are refused rather than acknowledged —
// nothing the control plane confirmed can be lost by the crash that
// follows.
func TestManagerFailsClosedOnStoreFailure(t *testing.T) {
	cloud := testCloud(t, 4, FirmwareLinuxBoot)
	faulty := store.NewFaulty(store.NewMemory())
	mgr := NewManagerWithStore(cloud, faulty)

	faulty.FailAppendsAfter(0, nil) // ENOSPC from the first append
	if _, err := mgr.CreateEnclave("dur", ProfileBob); err == nil {
		t.Fatal("CreateEnclave acknowledged without a committed record")
	} else if !errors.Is(err, store.ErrNoSpace) {
		t.Fatalf("CreateEnclave error = %v, want ErrNoSpace", err)
	}
	if _, err := mgr.Enclave("dur"); err == nil {
		t.Fatal("uncommitted enclave left registered")
	}

	faulty.Heal()
	if _, err := mgr.CreateEnclave("dur", ProfileBob); err != nil {
		t.Fatal(err)
	}

	// Quota set with a dead disk: refused and rolled back.
	faulty.FailAppendsAfter(0, nil)
	if _, _, err := mgr.SetQuota("dur", TenantQuota{Weight: 2}); err == nil {
		t.Fatal("SetQuota acknowledged without a committed record")
	}
	if _, err := mgr.Quota("dur"); err == nil {
		t.Fatal("uncommitted quota left applied")
	}

	// An acquire whose op-started record cannot commit never starts.
	if _, _, err := mgr.StartAcquireIdem("dur", "fedora28", 1, "k"); err == nil {
		t.Fatal("StartAcquire acknowledged without a committed record")
	}
	if ops := mgr.ListOperations(); len(ops) != 0 {
		t.Fatalf("uncommitted operation left registered: %v", ops)
	}

	// Disk dies mid-pipeline: the journal freezes (audit trail stays
	// truthful) and lifecycle transitions fail closed — no node joins
	// the enclave unjournaled.
	faulty.Heal()
	faulty.FailAppendsAfter(1, nil) // the op-started record commits; nothing after
	op, _, err := mgr.StartAcquireIdem("dur", "fedora28", 1, "k2")
	if err != nil {
		t.Fatal(err)
	}
	fin, _ := op.Wait(context.Background())
	if fin != nil && len(fin.Nodes) > 0 {
		t.Fatalf("batch allocated %d node(s) with a dead store", len(fin.Nodes))
	}
	e, _ := mgr.Enclave("dur")
	if err := e.Journal().Err(); err == nil {
		t.Fatal("journal did not record the sticky persist failure")
	}
}

// TestRecoverInterruptedRefill kills the control plane mid-warm-refill:
// the node the refiller held is recorded mid-pipeline, so recovery
// releases it (never silently keeps half-warmed hardware), and the
// restarted refiller — resumed only after re-adoption — fills the pool
// back to its persisted target.
func TestRecoverInterruptedRefill(t *testing.T) {
	const nodes = 6
	mgr1, dir := durableManager(t, nodes)
	if _, err := mgr1.CreateEnclave("dur", ProfileBob); err != nil {
		t.Fatal(err)
	}
	e1, _ := mgr1.Enclave("dur")

	// Crash at the instant the first refill allocation hits the journal:
	// the store already holds the allocated-for-refill record (events are
	// staged before fan-out), but nothing warm yet.
	var crashCopy string
	var once sync.Once
	copied := make(chan struct{})
	unwatch := e1.Journal().Watch(func(ev Event) {
		if ev.Kind == EvAllocated && ev.Detail == "warm refill" {
			once.Do(func() {
				crashCopy = copyStoreDir(t, dir)
				close(copied)
			})
		}
	})
	defer unwatch()

	pol := DefaultPoolPolicy()
	pol.Target = 2
	pol.MaxRefill = 2
	if _, _, err := mgr1.ConfigurePool("dur", pol); err != nil {
		t.Fatal(err)
	}
	select {
	case <-copied:
	case <-time.After(15 * time.Second):
		t.Fatal("refiller never allocated a node")
	}

	st, err := store.Open(crashCopy)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), st)
	report, err := mgr2.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}

	// Nothing had earned trust at the crash, so nothing is re-adopted or
	// rejected — the mid-refill node(s) are released with an audit trail.
	if len(report.Readopted) != 0 || len(report.Rejected) != 0 || len(report.Quarantined) != 0 {
		t.Fatalf("mid-refill recovery re-adopted %v / rejected %v / quarantined %v, want none",
			report.Readopted, report.Rejected, report.Quarantined)
	}
	if len(report.Released) == 0 {
		t.Fatalf("mid-refill node was not released: %+v", report)
	}
	e2, err := mgr2.Enclave("dur")
	if err != nil {
		t.Fatal(err)
	}
	released := false
	for _, ev := range e2.Journal().Events() {
		if ev.Kind == EvReleased && strings.Contains(ev.Detail, "interrupted mid-") {
			released = true
		}
	}
	if !released {
		t.Fatal("no released-at-recovery event in the recovered journal")
	}

	// The pool policy survived, and the resumed refiller reaches target.
	waitWarm(t, e2, 2)
	states := e2.NodeStates()
	for n, s := range states {
		if s != StateWarm {
			t.Fatalf("node %s recovered into %s, want only warm standbys: %v", n, s, states)
		}
	}
}

// TestRecoverKeepsWhatLiveKeeps: a restart, from the WAL alone or from a
// checkpoint, keeps exactly the operations, idempotency keys and incidents
// the live manager kept: a deleted enclave's operations go with it, both
// retention bounds hold, and a key lives exactly as long as its operation.
func TestRecoverKeepsWhatLiveKeeps(t *testing.T) {
	ctx := context.Background()
	st := store.NewMemory()
	live := NewManagerWithStore(testCloud(t, 1, FirmwareLinuxBoot), st)
	acquire := func(m *Manager, enclave, key string) bool {
		t.Helper()
		op, replayed, err := m.StartAcquireIdem(enclave, "fedora28", 1, key)
		if err != nil {
			t.Fatal(err)
		}
		res, err := op.Wait(ctx)
		if err != nil || len(res.Nodes) != 1 {
			t.Fatalf("acquire under %s: %v", key, err)
		}
		e, _ := m.Enclave(enclave)
		if err := e.ReleaseNode(res.Nodes[0].Name, ""); err != nil {
			t.Fatal(err)
		}
		return replayed
	}
	for _, name := range []string{"gone", "kept"} {
		if _, err := live.CreateEnclave(name, ProfileAlice); err != nil {
			t.Fatal(err)
		}
	}
	acquire(live, "gone", "gone-key")
	if err := live.DeleteEnclave("gone"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= MaxRetainedOps; i++ {
		acquire(live, "kept", fmt.Sprintf("key-%d", i))
	}
	for i := 0; i <= MaxRetainedIncidents; i++ {
		live.OpenIncident("kept", "node00", "drill").Close(IncidentResolved, "drill over")
	}

	type kept struct{ ops, keys, incidents []string }
	keptBy := func(m *Manager) kept {
		var k kept
		for _, op := range m.ListOperations() {
			k.ops = append(k.ops, op.ID)
		}
		m.mu.Lock()
		for key := range m.idem {
			k.keys = append(k.keys, key)
		}
		m.mu.Unlock()
		slices.Sort(k.keys)
		for _, inc := range m.ListIncidents("") {
			k.incidents = append(k.incidents, inc.ID)
		}
		return k
	}
	want := keptBy(live)
	if len(want.ops) != MaxRetainedOps || len(want.keys) != MaxRetainedOps || len(want.incidents) != MaxRetainedIncidents {
		t.Fatalf("live manager kept %d ops, %d keys, %d incidents", len(want.ops), len(want.keys), len(want.incidents))
	}
	for _, checkpoint := range []bool{false, true} {
		if checkpoint {
			if err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		// Recover from a copy: the recovered manager appends records too.
		snap, recs, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		cp := store.NewMemory()
		if snap != nil {
			if err := cp.Compact(snap); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range recs {
			if err := cp.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		rec := NewManagerWithStore(testCloud(t, 1, FirmwareLinuxBoot), cp)
		if _, err := rec.Recover(ctx); err != nil {
			t.Fatal(err)
		}
		if got := keptBy(rec); !reflect.DeepEqual(got, want) {
			t.Errorf("checkpoint=%v: recovered %d ops %v, %d keys, %d incidents; live kept %d ops %v, %d keys, %d incidents",
				checkpoint, len(got.ops), got.ops, len(got.keys), len(got.incidents),
				len(want.ops), want.ops, len(want.keys), len(want.incidents))
		}
		// The first key went with its operation: a retry starts a new one.
		// The newest is still bound to its operation.
		if acquire(rec, "kept", "key-0") {
			t.Errorf("checkpoint=%v: a retry under a forgotten key replayed an operation", checkpoint)
		}
		if op, replayed, err := rec.StartAcquireIdem("kept", "fedora28", 1, fmt.Sprintf("key-%d", MaxRetainedOps)); err != nil || !replayed || op.ID != want.ops[len(want.ops)-1] {
			t.Errorf("checkpoint=%v: retry under the newest key: replayed=%v err=%v", checkpoint, replayed, err)
		}
	}
}

// TestRecoverEscapedJournal: journal details json.Marshal must escape — a
// quote, HTML characters, a newline, non-ASCII — leave the fixed-shape
// codec for encoding/json on both sides of a WAL-only restart, and the
// recovered journal is the live one. The detail comes from where such text
// really enters a journal: a backend's error, as the reason a node was
// rejected.
func TestRecoverEscapedJournal(t *testing.T) {
	const nodes = 3
	cause := "pxe: \"boot\" <refused> & retried\nnœud injoignable  "
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(t, nodes, FirmwareLinuxBoot)
	var failed atomic.Bool
	cloud.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		if call.Method == "Boot" && !failed.Swap(true) {
			return errors.New(cause)
		}
		return next(ctx)
	})
	mgr := NewManagerWithStore(cloud, st)
	if _, err := mgr.CreateEnclave("esc", ProfileBob); err != nil {
		t.Fatal(err)
	}
	op, err := mgr.StartAcquire("esc", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := op.Wait(context.Background()); res == nil || len(res.Nodes) != 1 {
		t.Fatalf("acquire: %+v, want one member and one rejection", res)
	}
	e1, _ := mgr.Enclave("esc")
	e1.Journal().Record(EvDegraded, "", "guard: <quote> \"stale\" \x01 über")

	pre := e1.Journal().Events()
	escaped := 0
	for _, ev := range pre {
		if _, ok := appendJournalEvent(nil, journalEventRecord{Enclave: "esc", eventRecord: toEventRecord(ev)}); !ok {
			escaped++
		}
	}
	if escaped < 2 {
		t.Fatalf("%d of %d live events need escaping, want the rejection and the guard's event:\n%v", escaped, len(pre), pre)
	}

	mgr2, _ := recoverFrom(t, dir, nodes)
	e2, err := mgr2.Enclave("esc")
	if err != nil {
		t.Fatal(err)
	}
	post := e2.Journal().Events()
	if len(post) < len(pre) {
		t.Fatalf("recovered %d events, %d were live", len(post), len(pre))
	}
	// A restart keeps an event's instant, not its monotonic reading or its
	// *Location: compare times in UTC.
	utc := func(evs []Event) []Event {
		out := slices.Clone(evs)
		for i := range out {
			out[i].At = out[i].At.UTC()
		}
		return out
	}
	if got, want := utc(post[:len(pre)]), utc(pre); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered journal:\n%q\nlive journal:\n%q", got, want)
	}
}
