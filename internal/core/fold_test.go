package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolted/internal/keylime"
	"bolted/internal/store"
)

// memCopy returns a new in-memory store holding what st holds now: a
// recovered manager appends records too, and must not append them to the
// live one's log.
func memCopy(t *testing.T, st store.Store) *store.Memory {
	t.Helper()
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
	return cp
}

// recoverMem runs a full restart over st on a fresh cloud.
func recoverMem(t *testing.T, st store.Store, nodes int) (*Manager, *RecoverReport) {
	t.Helper()
	m := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), st)
	rep, err := m.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return m, rep
}

// holdStore lets a test hold an Append after its record is in the log and
// before the caller learns it committed.
type holdStore struct {
	store.Store
	hold func(store.Record)
}

func (h *holdStore) Append(rec store.Record) error {
	err := h.Store.Append(rec)
	if h.hold != nil {
		h.hold(rec)
	}
	return err
}

// TestIncidentFeedFollowsLog: two incident updates racing each other reach
// the replayable feed in the order they reached the log, so a feed cursor
// names the same update before and after a restart. A's record commits
// first and is then held until B's update has returned (or, where B cannot
// start before A is acknowledged, for a while).
func TestIncidentFeedFollowsLog(t *testing.T) {
	st := &holdStore{Store: store.NewMemory()}
	m := NewManagerWithStore(testCloud(t, 1, FirmwareLinuxBoot), st)
	if _, err := m.CreateEnclave("e", ProfileAlice); err != nil {
		t.Fatal(err)
	}
	a := m.OpenIncident("e", "node00", "a")
	b := m.OpenIncident("e", "node00", "b")
	held, bDone := make(chan struct{}), make(chan struct{})
	st.hold = func(rec store.Record) {
		if rec.Kind == store.KindIncidentUpdate && bytes.Contains(rec.Data, []byte(`"name":"step-a"`)) {
			close(held)
			select {
			case <-bDone:
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	aDone := make(chan struct{})
	go func() { a.Step("step-a", ""); close(aDone) }()
	<-held
	go func() { b.Step("step-b", ""); close(bDone) }()
	<-aDone
	<-bDone

	summary := func(sts []IncidentStatus) []string {
		var out []string
		for _, s := range sts {
			out = append(out, fmt.Sprintf("%s/%d", s.ID, len(s.Steps)))
		}
		return out
	}
	_, recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	var logged []IncidentStatus
	for _, rec := range recs {
		if rec.Kind == store.KindIncidentUpdate {
			var s IncidentStatus
			if err := json.Unmarshal(rec.Data, &s); err != nil {
				t.Fatal(err)
			}
			logged = append(logged, s)
		}
	}
	live, _, _ := m.IncidentUpdatesSince(0)
	if got, want := summary(live), summary(logged); !reflect.DeepEqual(got, want) {
		t.Fatalf("feed order %v, log order %v", got, want)
	}
	rec, _ := recoverMem(t, memCopy(t, st.Store), 1)
	replayed, _, _ := rec.IncidentUpdatesSince(0)
	if len(replayed) < len(live) || !reflect.DeepEqual(summary(replayed[:len(live)]), summary(live)) {
		t.Fatalf("after a restart the feed reads %v, live it read %v", summary(replayed), summary(live))
	}
}

// slowCompactStore gives the manager time to log more while a checkpoint's
// Compact is under way: it waits for three more appends (or, where none
// can come, for a while) before it truncates.
type slowCompactStore struct {
	store.Store
	appends atomic.Int64
}

func (s *slowCompactStore) AppendBuffered(rec store.Record) error {
	defer s.appends.Add(1)
	return s.Store.AppendBuffered(rec)
}

func (s *slowCompactStore) Append(rec store.Record) error {
	defer s.appends.Add(1)
	return s.Store.Append(rec)
}

func (s *slowCompactStore) Compact(snap *store.Snapshot) error {
	for n0, deadline := s.appends.Load(), time.Now().Add(100*time.Millisecond); s.appends.Load() < n0+3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return s.Store.Compact(snap)
}

// TestCheckpointKeepsConcurrentEvents: a checkpoint taken while an
// acquisition journals loses nothing — a restart finds every event the
// live journal held when Checkpoint returned, under the same seqs.
func TestCheckpointKeepsConcurrentEvents(t *testing.T) {
	st := &slowCompactStore{Store: store.NewMemory()}
	cloud := testCloud(t, 4, FirmwareLinuxBoot)
	cloud.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		time.Sleep(time.Millisecond) // keep the acquisition journalling through the checkpoint
		return next(ctx)
	})
	m := NewManagerWithStore(cloud, st)
	e, err := m.CreateEnclave("e", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var once sync.Once
	defer e.Journal().Watch(func(ev Event) { once.Do(func() { close(started) }) })()
	op, err := m.StartAcquire("e", "fedora28", 4)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	held := e.Journal().Events()
	if _, err := op.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _ := recoverMem(t, memCopy(t, st.Store), 4)
	e2, err := rec.Enclave("e")
	if err != nil {
		t.Fatal(err)
	}
	got := e2.Journal().Events()
	key := func(evs []Event) []string {
		var out []string
		for _, ev := range evs {
			out = append(out, fmt.Sprintf("%d %s %s", ev.Seq, ev.Kind, ev.Node))
		}
		return out
	}
	if len(got) < len(held) || !reflect.DeepEqual(key(got[:len(held)]), key(held)) {
		t.Fatalf("after the checkpoint the journal held\n%v\na restart found\n%v", key(held), key(got))
	}
}

// TestOpNotDoneWithoutCommit: when the completion record cannot commit, no
// waiter and no poll ever sees the operation done. It ends interrupted —
// what a restart would show — and carries the commit error.
func TestOpNotDoneWithoutCommit(t *testing.T) {
	faulty := store.NewFaulty(store.NewMemory())
	m := NewManagerWithStore(testCloud(t, 2, FirmwareLinuxBoot), faulty)
	e, err := m.CreateEnclave("e", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	// The disk dies once the last member has joined: the completion
	// record is the first commit to fail.
	joined := 0
	defer e.Journal().Watch(func(ev Event) {
		if ev.Kind == EvJoined {
			if joined++; joined == 2 {
				faulty.FailAppendsAfter(0, nil)
			}
		}
	})()
	op, err := m.StartAcquire("e", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	var sawDone atomic.Bool
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-op.Done():
				sawDone.Store(op.Phase() == OpDone || sawDone.Load())
				return
			default:
				if op.Phase() == OpDone {
					sawDone.Store(true)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	_, werr := op.Wait(context.Background())
	<-polled
	if st := op.Status(); sawDone.Load() || st.Phase != OpInterrupted {
		t.Fatalf("phase %s (done seen: %v) with an uncommitted completion record", st.Phase, sawDone.Load())
	}
	if !errors.Is(werr, store.ErrNoSpace) {
		t.Fatalf("Wait error = %v, want the commit error", werr)
	}
}

// crashStore models what a crash keeps: a buffered record survives only
// once a Sync, or an Append behind it, has returned. crash freezes it and
// hands back the durable part as a store to restart from.
type crashStore struct {
	mu              sync.Mutex
	snap            *store.Snapshot
	durable, staged []store.Record
	crashed         bool
}

func (c *crashStore) Load() (*store.Snapshot, []store.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snap, append([]store.Record(nil), c.durable...), nil
}

func (c *crashStore) AppendBuffered(rec store.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.crashed {
		c.staged = append(c.staged, rec)
	}
	return nil
}

func (c *crashStore) Append(rec store.Record) error {
	c.AppendBuffered(rec)
	return c.Sync()
}

// Sync takes a millisecond, as an fsync does: what is staged when it starts
// is durable when it returns.
func (c *crashStore) Sync() error {
	c.mu.Lock()
	staged := len(c.staged)
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.crashed {
		k := min(staged, len(c.staged)) // a Compact may have emptied it meanwhile
		c.durable = append(c.durable, c.staged[:k]...)
		c.staged = c.staged[k:]
	}
	return nil
}

func (c *crashStore) Compact(snap *store.Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap, c.durable, c.staged = snap, nil, nil
	return nil
}

func (c *crashStore) Close() error { return nil }

func (c *crashStore) crash(t *testing.T) *store.Memory {
	c.mu.Lock()
	c.crashed, c.staged = true, nil
	c.mu.Unlock()
	return memCopy(t, c)
}

// TestCrashAfterDoneReadopts: a crash the instant an operation reports done
// restarts with the operation done and its members re-adopted by fresh
// quotes, never released.
func TestCrashAfterDoneReadopts(t *testing.T) {
	st := &crashStore{}
	m := NewManagerWithStore(testCloud(t, 3, FirmwareLinuxBoot), st)
	if _, err := m.CreateEnclave("e", ProfileBob); err != nil {
		t.Fatal(err)
	}
	op, err := m.StartAcquire("e", "fedora28", 2)
	if err != nil {
		t.Fatal(err)
	}
	<-op.Done()
	crashed := st.crash(t)
	if p := op.Phase(); p != OpDone {
		t.Fatalf("acquisition ended %s", p)
	}
	rec, rep := recoverMem(t, crashed, 3)
	op2, err := rec.Operation(op.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p := op2.Phase(); p != OpDone {
		t.Fatalf("an operation reported done came back %s", p)
	}
	if len(rep.Readopted) != 2 || len(rep.Released) != 0 {
		t.Fatalf("members of a done operation: readopted %v, released %v", rep.Readopted, rep.Released)
	}
}

// foldState is everything the fold covers, in a form two managers compare
// by: times in UTC, errors as text, runtime handles left out. A live
// manager's enclave set is its own; a replayed one's is the replay's.
type foldState struct {
	Enclaves  map[string]string   // name -> profile
	Journals  map[string][]string // "seq at kind node detail"
	Pools     map[string]PoolPolicy
	Guards    map[string]string
	Quotas    map[string]TenantQuota
	Ops       []string // "id enclave image count created phase finished error key"
	ByEnclave map[string][]string
	OpSeq     int
	Idem      map[string]string
	Incidents []string // "id enclave node reason opened state closed steps"
	IncSeq    int
	Feed      []string
	FeedBase  int
	RevFeeds  map[string][]string // "base: uuid reason at ..."
}

func stateOf(m *Manager, rp *replay) foldState {
	at := func(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }
	incident := func(st IncidentStatus) string {
		s := fmt.Sprintf("%s %s %s %q %s %s %s", st.ID, st.Enclave, st.Node, st.Reason, at(st.Opened), st.State, at(st.Closed))
		for _, step := range st.Steps {
			s += fmt.Sprintf(" [%s %s %q %q]", at(step.At), step.Name, step.Detail, step.Error)
		}
		return s
	}
	events := func(evs []Event) (out []string) {
		for _, ev := range evs {
			out = append(out, fmt.Sprintf("%d %s %s %s %q", ev.Seq, at(ev.At), ev.Kind, ev.Node, ev.Detail))
		}
		return out
	}
	s := foldState{
		Enclaves: map[string]string{}, Journals: map[string][]string{}, Pools: map[string]PoolPolicy{},
		Guards: map[string]string{}, Quotas: map[string]TenantQuota{}, ByEnclave: map[string][]string{},
		Idem: map[string]string{}, RevFeeds: map[string][]string{},
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rp == nil {
		for name, e := range m.enclaves {
			s.Enclaves[name] = e.Profile.Name
			s.Journals[name] = events(e.Journal().Events())
		}
	} else {
		for name, re := range rp.enclaves {
			s.Enclaves[name] = re.profile.Name
			s.Journals[name] = events(re.events)
		}
	}
	for name, p := range m.poolPolicies {
		s.Pools[name] = p
	}
	for name, p := range m.guardPolicies {
		s.Guards[name] = string(p)
	}
	for t, q := range m.quotas {
		s.Quotas[t] = q
	}
	for _, op := range m.opOrder {
		st := op.Status()
		msg := ""
		if st.Err != nil {
			msg = st.Err.Error()
		}
		s.Ops = append(s.Ops, fmt.Sprintf("%s %s %s %d %s %s %s %q %q", op.ID, op.Enclave, op.Image, op.Count, at(op.Created), st.Phase, at(st.Finished), msg, op.idemKey))
	}
	for name, ops := range m.byencl {
		for _, op := range ops {
			s.ByEnclave[name] = append(s.ByEnclave[name], op.ID)
		}
	}
	s.OpSeq = m.opSeq
	for k, id := range m.idem {
		s.Idem[k] = id
	}
	for _, inc := range m.incOrder {
		s.Incidents = append(s.Incidents, incident(inc.Status()))
	}
	s.IncSeq = m.incSeq
	for _, st := range m.incFeed {
		s.Feed = append(s.Feed, incident(st))
	}
	s.FeedBase = m.incFeedBase
	for name, f := range m.revFeeds {
		feed := []string{fmt.Sprint(f.base)}
		for _, ev := range f.events {
			feed = append(feed, fmt.Sprintf("%s %q %s", ev.UUID, ev.Reason, at(ev.At)))
		}
		s.RevFeeds[name] = feed
	}
	return s
}

// teeStore logs every record to two stores, but only the second takes
// checkpoints: the first keeps the whole history.
type teeStore struct {
	mu         sync.Mutex
	full, ckpt store.Store
}

func (t *teeStore) both(f func(store.Store) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := f(t.full); err != nil {
		return err
	}
	return f(t.ckpt)
}

func (t *teeStore) Append(r store.Record) error {
	return t.both(func(s store.Store) error { return s.Append(r) })
}

func (t *teeStore) AppendBuffered(r store.Record) error {
	return t.both(func(s store.Store) error { return s.AppendBuffered(r) })
}

func (t *teeStore) Sync() error                                    { return t.both(store.Store.Sync) }
func (t *teeStore) Compact(snap *store.Snapshot) error             { return t.ckpt.Compact(snap) }
func (t *teeStore) Load() (*store.Snapshot, []store.Record, error) { return t.ckpt.Load() }
func (t *teeStore) Close() error                                   { return nil }

// fakeGuard is a guard that reports a policy and does nothing else.
type fakeGuard struct{ policy json.RawMessage }

func (g *fakeGuard) HandleRevocation(keylime.RevocationEvent) {}
func (g *fakeGuard) Stop()                                    {}
func (g *fakeGuard) PolicyJSON() (json.RawMessage, error)     { return g.policy, nil }

// TestFoldLiveEqualsReplay is the fold's property: for seeded random
// sequences of manager mutations — some of them concurrent, with
// checkpoints taken along the way — the live manager, a replay of the whole
// WAL and a replay of the last checkpoint plus the WAL tail hold the same
// state.
func TestFoldLiveEqualsReplay(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { foldProperty(t, seed) })
	}
}

func foldProperty(t *testing.T, seed int64) {
	const nodes, steps = 4, 80
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	tee := &teeStore{full: store.NewMemory(), ckpt: store.NewMemory()}
	m := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), tee)
	names := []string{"a", "b", "c"}
	pick := func() string { return names[rng.Intn(len(names))] }
	var incidents []*Incident
	keys := 0
	for i := 0; i < steps; i++ {
		if rng.Intn(8) == 0 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		name := pick()
		switch rng.Intn(15) {
		case 0, 1:
			if _, err := m.CreateEnclave(name, []Profile{ProfileAlice, ProfileBob}[rng.Intn(2)]); err != nil && !errors.Is(err, ErrExists) {
				t.Fatal(err)
			}
		case 2:
			if err := m.DeleteEnclave(name); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		case 3, 4, 5:
			key := ""
			if rng.Intn(3) > 0 {
				keys += rng.Intn(2) // now and then a retry under the last key
				key = fmt.Sprint("k", keys)
			}
			op, _, err := m.StartAcquireIdem(name, "fedora28", 1, key)
			if err != nil {
				continue // unknown enclave, over quota
			}
			res, _ := op.Wait(ctx)
			if e, err := m.Enclave(name); err == nil && res != nil && rng.Intn(3) > 0 {
				for _, n := range res.Nodes {
					_ = e.ReleaseNode(n.Name, "")
				}
			}
		case 6:
			if rng.Intn(3) == 0 {
				_ = m.DeleteQuota(name)
			} else {
				_, _, _ = m.SetQuota(name, TenantQuota{Weight: 1 + rng.Intn(4), MaxNodes: 3 * rng.Intn(2)})
			}
		case 7:
			pol := DefaultPoolPolicy()
			pol.Target = rng.Intn(2)
			pol.RetryBackoff = time.Millisecond
			switch rng.Intn(3) {
			case 0:
				_, _, _ = m.ConfigurePool(name, pol)
			case 1:
				_, _ = m.DrainPool(name)
			case 2:
				_, _ = m.DetachPool(name)
			}
		case 8, 9:
			policy := json.RawMessage(fmt.Sprintf(`{"interval":"%ds"}`, 1+rng.Intn(9)))
			switch rng.Intn(3) {
			case 0:
				_ = m.AttachGuard(name, &fakeGuard{policy: policy})
			case 1:
				_ = m.NoteGuardPolicy(name, policy)
			case 2:
				m.DetachGuard(name)
			}
		case 10, 11:
			incidents = append(incidents, m.OpenIncident(name, "node00", "drill"))
		case 12, 13:
			// Step or close a few incidents at once.
			var wg sync.WaitGroup
			for _, inc := range incidents[max(0, len(incidents)-3):] {
				wg.Add(1)
				close := rng.Intn(3) == 0
				go func() {
					defer wg.Done()
					if close {
						inc.Close(IncidentResolved, "drill over")
					} else {
						inc.Step("quarantine", "drill")
					}
				}()
			}
			wg.Wait()
		case 14:
			if _, err := m.Enclave(name); err == nil {
				m.noteRevocation(name, keylime.RevocationEvent{UUID: fmt.Sprint("uuid-", i), Reason: "ima", At: time.Now()})
			}
		}
	}
	// Settle: no refiller may journal while the states are read. A pool
	// already at Target 0 is left as it is, so its policy may come from
	// the checkpoint.
	for _, st := range m.ListPools() {
		if st.Policy.Target > 0 {
			if _, err := m.DrainPool(st.Enclave); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if st, _ := m.PoolStats(st.Enclave); st.Warm+st.Refilling == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pool %s never settled", st.Enclave)
			}
		}
	}
	live := stateOf(m, nil)
	for _, replayed := range []struct {
		name string
		st   store.Store
	}{{"WAL only", tee.full}, {"checkpoint plus tail", tee.ckpt}} {
		r := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), memCopy(t, replayed.st))
		rp, err := r.fold()
		if err != nil {
			t.Fatal(err)
		}
		if got := stateOf(r, rp); !reflect.DeepEqual(got, live) {
			gv, lv := reflect.ValueOf(got), reflect.ValueOf(live)
			for f := 0; f < gv.NumField(); f++ {
				if !reflect.DeepEqual(gv.Field(f).Interface(), lv.Field(f).Interface()) {
					t.Errorf("%s: %s\n replayed %v\n live     %v", replayed.name, gv.Type().Field(f).Name, gv.Field(f).Interface(), lv.Field(f).Interface())
				}
			}
		}
	}
	if _, err := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), memCopy(t, tee.ckpt)).Recover(ctx); err != nil {
		t.Fatalf("Recover from the checkpoint plus tail: %v", err)
	}
}
