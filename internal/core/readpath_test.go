package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bolted/internal/store"
)

// The read path's promise, checked in counts and bytes: an event's line is
// kept once and handed out by reference, and a line leaves the journal only
// behind a sync that covers it.

// TestReadPathEventLineGolden pins the wire form of a journal line byte
// for byte: field order, omitted empty detail, HTML-safe escaping, a
// multi-byte rune passed through, the trailing newline.
func TestReadPathEventLineGolden(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	var j Journal
	j.restore([]Event{
		{Seq: 1, At: at, Kind: EvJoined, Node: "node01"},
		{Seq: 2, At: at, Kind: EvHealed, Node: "node02", Detail: `a<b & "c" é`},
	}, 0)
	lines, err := j.LinesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"seq":1,"at":"2026-01-02T03:04:05.000000006Z","kind":"joined","node":"node01"}` + "\n",
		`{"seq":2,"at":"2026-01-02T03:04:05.000000006Z","kind":"healed","node":"node02","detail":"a\u003cb \u0026 \"c\" é"}` + "\n",
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	for i := range want {
		if string(lines[i]) != want[i] {
			t.Errorf("line %d = %q\n want %q", i, lines[i], want[i])
		}
	}
}

// TestReadPathLinesSharedAndLazy: record marshals nothing; a reader
// marshals only what it asks for; every later reader gets the same bytes.
func TestReadPathLinesSharedAndLazy(t *testing.T) {
	var j Journal
	for i := 0; i < 10; i++ {
		j.Record(EvBooted, fmt.Sprintf("node%02d", i), "")
	}
	if len(j.lines) != 0 {
		t.Fatalf("record built %d lines; the first reader should", len(j.lines))
	}
	tail, err := j.LinesSince(6)
	if err != nil || len(tail) != 4 {
		t.Fatalf("LinesSince(6) = %d lines, %v", len(tail), err)
	}
	for i := 0; i < 6; i++ {
		if j.lines[i] != nil {
			t.Fatalf("tail read marshalled line %d, which nobody asked for", i)
		}
	}
	all, err := j.LinesSince(0)
	if err != nil || len(all) != 10 {
		t.Fatalf("LinesSince(0) = %d lines, %v", len(all), err)
	}
	for i := range tail {
		if &tail[i][0] != &all[6+i][0] {
			t.Fatalf("line %d was marshalled twice", 6+i)
		}
	}
	// Lines recorded later land behind the ones already handed out.
	j.Record(EvReleased, "node00", "")
	more, _ := j.LinesSince(0)
	if len(more) != 11 || &more[3][0] != &all[3][0] || len(all) != 10 {
		t.Fatal("appending disturbed lines already handed out")
	}
	if got, _ := j.LinesSince(11); got != nil {
		t.Fatalf("read past the end = %d lines", len(got))
	}
	if got, _ := j.LinesSince(-1); got != nil {
		t.Fatalf("negative cursor = %d lines", len(got))
	}
}

// TestReadPathSyncBeforeLines is the durability rule at the journal: a read
// that hands out lines has synced first, a read of nothing syncs nothing,
// and a failed sync hands out no line.
func TestReadPathSyncBeforeLines(t *testing.T) {
	var (
		j       Journal
		staged  int
		syncs   int
		syncErr error
	)
	j.setPersist(func(Event) error { staged++; return nil }, func() error { syncs++; return syncErr })
	read := func(cursor, wantLines, wantSyncs int) {
		t.Helper()
		lines, err := j.LinesSince(cursor)
		if err != nil || len(lines) != wantLines {
			t.Fatalf("LinesSince(%d) = %d lines, %v; want %d", cursor, len(lines), err, wantLines)
		}
		if syncs != wantSyncs {
			t.Fatalf("after LinesSince(%d): %d syncs, want %d", cursor, syncs, wantSyncs)
		}
	}
	for i := 0; i < 5; i++ {
		j.Record(EvBooted, "node01", "")
	}
	read(5, 0, 0) // nothing to send, nothing to make durable
	read(2, 3, 1)
	read(0, 5, 2)
	j.Record(EvJoined, "node01", "")
	read(5, 1, 3)

	syncErr = errors.New("disk full")
	if lines, err := j.LinesSince(0); err == nil || lines != nil {
		t.Fatalf("failed sync handed out %d lines, err %v", len(lines), err)
	}
	syncErr = nil
	read(0, 6, 5)
	if staged != 6 {
		t.Fatalf("staged %d events, want 6", staged)
	}
}

// gatedCloud is a test cloud whose backend calls block, while armed, until
// released — how a test holds an operation in its running phase.
type gatedCloud struct {
	*Cloud
	mu      sync.Mutex
	gate    chan struct{} // non-nil while armed
	blocked chan struct{} // closed when the first call hits the gate
}

func newGatedCloud(t testing.TB, nodes int) *gatedCloud {
	g := &gatedCloud{Cloud: testCloud(t, nodes, FirmwareLinuxBoot)}
	g.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		g.mu.Lock()
		gate, blocked := g.gate, g.blocked
		if gate != nil && call.Backend == BackendDriver {
			select {
			case <-blocked:
			default:
				close(blocked)
			}
		} else {
			gate = nil
		}
		g.mu.Unlock()
		if gate != nil {
			<-gate
		}
		return next(ctx)
	})
	return g
}

// arm makes driver calls block; it returns a channel closed once one has.
func (g *gatedCloud) arm() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate, g.blocked = make(chan struct{}), make(chan struct{})
	return g.blocked
}

func (g *gatedCloud) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	close(g.gate)
	g.gate = nil
}

// acquireRelease runs one single-node acquisition to its end and gives the
// node back, returning the finished operation.
func acquireRelease(t testing.TB, m *Manager, enclave string) *Operation {
	t.Helper()
	op, err := m.StartAcquire(enclave, "fedora28", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := op.Wait(context.Background())
	if err != nil || len(res.Nodes) != 1 {
		t.Fatalf("acquire on %s: %v, %+v", enclave, err, res)
	}
	e, _ := m.Enclave(enclave)
	if err := e.ReleaseNode(res.Nodes[0].Name, ""); err != nil {
		t.Fatal(err)
	}
	return op
}

// TestReadPathOperationLines: an operation's feed is the journal's own
// lines for the run it observed — the same bytes, not a second rendering —
// and it ends where the operation did.
func TestReadPathOperationLines(t *testing.T) {
	m := NewManagerWithStore(testCloud(t, 2, FirmwareLinuxBoot), store.NewMemory())
	e, err := m.CreateEnclave("tenant", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	acquireRelease(t, m, "tenant") // so the second operation starts mid-journal
	op := acquireRelease(t, m, "tenant")

	evs := op.Events()
	lines, _, terminal, err := op.LinesSince(0)
	if err != nil || !terminal || len(lines) != len(evs) || len(evs) == 0 {
		t.Fatalf("LinesSince(0) = %d lines (terminal %v, err %v) for %d events", len(lines), terminal, err, len(evs))
	}
	first := int(evs[0].Seq) - 1
	if first == 0 {
		t.Fatal("second operation should not start at the head of the journal")
	}
	all, err := e.Journal().LinesSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		if &lines[i][0] != &all[first+i][0] {
			t.Fatalf("feed line %d is not the journal's line %d", i, first+i)
		}
	}
	if len(all) <= first+len(lines) {
		t.Fatal("the release after the operation should lie past its feed")
	}
	rest, _, _, err := op.LinesSince(len(evs) - 2)
	if err != nil || len(rest) != 2 || &rest[1][0] != &lines[len(lines)-1][0] {
		t.Fatalf("LinesSince(n-2) = %d lines, %v", len(rest), err)
	}
	for _, cursor := range []int{len(evs), len(evs) + 5, -1} {
		if got, _, _, err := op.LinesSince(cursor); err != nil || got != nil {
			t.Fatalf("LinesSince(%d) = %d lines, %v", cursor, len(got), err)
		}
	}
	// A restored operation observed nothing and has no journal to ask.
	restored := newRestoredOperation("op-0009", "tenant", "fedora28", 1, time.Now(), OpInterrupted, "restart", time.Now())
	if got, _, terminal, err := restored.LinesSince(0); got != nil || !terminal || err != nil {
		t.Fatalf("restored operation feed = %d lines, terminal %v, %v", len(got), terminal, err)
	}
}

// TestReadPathListOrder: list routes copy an order that is kept as
// operations and incidents come and go; they never sort.
func TestReadPathListOrder(t *testing.T) {
	m := NewManager(testCloud(t, 2, FirmwareLinuxBoot))
	for _, name := range []string{"a", "b"} {
		if _, err := m.CreateEnclave(name, ProfileAlice); err != nil {
			t.Fatal(err)
		}
	}
	ids := func() (out []string) {
		for _, op := range m.ListOperations() {
			out = append(out, op.ID)
		}
		return out
	}
	var want []string
	for i := 0; i < 6; i++ {
		want = append(want, acquireRelease(t, m, []string{"a", "b", "b"}[i%3]).ID)
	}
	if got := ids(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ListOperations = %v, want creation order %v", got, want)
	}
	// Push enclave "a" past its retention: its oldest operations leave the
	// list, everything else keeps its place.
	for i := 0; i < MaxRetainedOps; i++ {
		want = append(want, acquireRelease(t, m, "a").ID)
	}
	pruned := map[string]bool{want[0]: true, want[3]: true} // a's first two
	var kept []string
	for _, id := range want {
		if !pruned[id] {
			kept = append(kept, id)
		}
	}
	if got := ids(); fmt.Sprint(got) != fmt.Sprint(kept) {
		t.Fatalf("after pruning ListOperations = %v\n want %v", got, kept)
	}
	for id := range pruned {
		if _, err := m.Operation(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("pruned operation %s still resolves: %v", id, err)
		}
	}
	if err := m.DeleteEnclave("a"); err != nil {
		t.Fatal(err)
	}
	if got, wantB := ids(), []string{want[1], want[2], want[4], want[5]}; fmt.Sprint(got) != fmt.Sprint(wantB) {
		t.Fatalf("after deleting enclave a ListOperations = %v, want %v", got, wantB)
	}

	i1 := m.OpenIncident("b", "node01", "ima")
	i2 := m.OpenIncident("c", "node02", "ima")
	i3 := m.OpenIncident("b", "node03", "ima")
	incs := func(enclave string) (out []string) {
		for _, inc := range m.ListIncidents(enclave) {
			out = append(out, inc.ID)
		}
		return out
	}
	if got := incs(""); fmt.Sprint(got) != fmt.Sprint([]string{i1.ID, i2.ID, i3.ID}) {
		t.Fatalf("ListIncidents() = %v", got)
	}
	if got := incs("b"); fmt.Sprint(got) != fmt.Sprint([]string{i1.ID, i3.ID}) {
		t.Fatalf("ListIncidents(b) = %v", got)
	}
	i1.Close(IncidentResolved, "")
	if got := m.OpenIncidentIDs("b"); fmt.Sprint(got) != fmt.Sprint([]string{i3.ID}) {
		t.Fatalf("OpenIncidentIDs(b) = %v", got)
	}
	if got := m.OpenIncidentIDs("nobody"); got != nil {
		t.Fatalf("OpenIncidentIDs(nobody) = %v", got)
	}
}

// TestReadPathListOrderAfterRecover: operations come back from the log in
// creation order, and pruning finds them there as it does live ones.
func TestReadPathListOrderAfterRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManagerWithStore(testCloud(t, 2, FirmwareLinuxBoot), st)
	defer m1.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := m1.CreateEnclave(name, ProfileAlice); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, acquireRelease(t, m1, []string{"a", "b"}[i%2]).ID)
	}
	st2, err := store.Open(copyStoreDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManagerWithStore(testCloud(t, 2, FirmwareLinuxBoot), st2)
	defer m2.Close()
	if _, err := m2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ids := func() (out []string) {
		for _, op := range m2.ListOperations() {
			out = append(out, op.ID)
		}
		return out
	}
	if got := ids(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered ListOperations = %v, want %v", got, want)
	}
	// "a" holds three restored operations; MaxRetainedOps-1 more prune two.
	for i := 0; i < MaxRetainedOps-1; i++ {
		want = append(want, acquireRelease(t, m2, "a").ID)
	}
	kept := append([]string{want[1]}, want[3:]...) // a's first two (0 and 2) are gone
	if got := ids(); fmt.Sprint(got) != fmt.Sprint(kept) {
		t.Fatalf("after pruning restored operations ListOperations = %v\n want %v", got, kept)
	}
}

// TestReadPathConcurrentReaders runs eight readers — operation feeds,
// journal tails and lists — beside a recorder and an operation that
// finishes under them. Run with -race; every reader also checks what it
// sees: lines in sequence, lists in order.
func TestReadPathConcurrentReaders(t *testing.T) {
	g := newGatedCloud(t, 2)
	m := NewManagerWithStore(g.Cloud, store.NewMemory())
	e, err := m.CreateEnclave("tenant", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	acquireRelease(t, m, "tenant")
	blocked := g.arm()
	op, err := m.StartAcquire("tenant", "fedora28", 1)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked

	const rounds = 200
	var wg sync.WaitGroup
	reader := func(fn func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	inSequence := func(lines [][]byte, what string) error {
		var prev uint64
		for _, l := range lines {
			var seq uint64
			if _, err := fmt.Sscanf(string(l), `{"seq":%d,`, &seq); err != nil {
				return fmt.Errorf("%s: bad line %q", what, l)
			}
			if prev != 0 && seq != prev+1 {
				return fmt.Errorf("%s: seq %d follows %d", what, seq, prev)
			}
			prev = seq
		}
		return nil
	}
	for r := 0; r < 3; r++ { // operation feeds, each with its own cursor
		cursor := 0
		reader(func(int) error {
			lines, _, _, err := op.LinesSince(cursor)
			cursor += len(lines)
			if err != nil {
				return err
			}
			return inSequence(lines, "feed")
		})
	}
	for r := 0; r < 3; r++ { // journal tails
		reader(func(int) error {
			n := len(e.Journal().Events())
			lines, err := e.Journal().LinesSince(max(0, n-8))
			if err != nil {
				return err
			}
			return inSequence(lines, "tail")
		})
	}
	for r := 0; r < 2; r++ { // lists, snapshotting every operation
		wasTerminal := false
		reader(func(int) error {
			ops := m.ListOperations()
			if len(ops) != 2 || ops[1] != op {
				return fmt.Errorf("list = %d operations", len(ops))
			}
			for _, o := range ops {
				st := o.Status()
				if st.Phase.Terminal() && st.Result == nil {
					return fmt.Errorf("%s is %s without its result", o.ID, st.Phase)
				}
			}
			terminal := op.Phase().Terminal()
			if wasTerminal && !terminal {
				return fmt.Errorf("%s left its terminal phase", op.ID)
			}
			wasTerminal = terminal
			return nil
		})
	}
	wg.Add(1)
	go func() { // the recorder, and the operation finishing under the readers
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			e.Journal().Record(EvStateSaved, "node99", "beside the readers")
			if i == rounds/2 {
				g.release()
			}
		}
	}()
	wg.Wait()
	if _, err := op.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	evs := op.Events()
	lines, _, terminal, err := op.LinesSince(0)
	if err != nil || !terminal || len(lines) != len(evs) {
		t.Fatalf("final feed = %d lines for %d events (terminal %v, %v)", len(lines), len(evs), terminal, err)
	}
	if err := inSequence(lines, "final feed"); err != nil {
		t.Fatal(err)
	}
}
