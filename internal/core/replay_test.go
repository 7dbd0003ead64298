package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bolted/internal/store"
)

// syntheticLog builds a log long enough for replay to decode on every CPU:
// two enclaves, cycles of op-started / lifecycle events / op-finished, with
// quota, pool and incident records scattered through it.
func syntheticLog(t *testing.T, cycles int) []store.Record {
	t.Helper()
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var recs []store.Record
	add := func(kind store.Kind, payload any) {
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, store.Record{Kind: kind, At: at, Data: data})
	}
	seq := map[string]uint64{}
	event := func(enclave string, kind EventKind, node, detail string) {
		seq[enclave]++
		add(store.KindJournalEvent, journalEventRecord{Enclave: enclave,
			eventRecord: eventRecord{Seq: seq[enclave], At: at, Kind: kind, Node: node, Detail: detail}})
	}
	add(store.KindEnclaveCreated, enclaveRecord{Name: "a", Profile: ProfileBob})
	add(store.KindEnclaveCreated, enclaveRecord{Name: "b", Profile: ProfileCharlie})
	for c := 1; c <= cycles; c++ {
		enclave := []string{"a", "b"}[c%2]
		id := fmt.Sprintf("op-%04d", c)
		node := fmt.Sprintf("node%02d", c%5)
		add(store.KindOpStarted, opStartedRecord{ID: id, Enclave: enclave, Image: "fedora28", Count: 1, Created: at, IdemKey: fmt.Sprintf("k%d", c%9)})
		event(enclave, EvAllocated, node, "image=fedora28")
		for _, k := range []EventKind{EvAirlocked, EvBooting, EvAttesting, EvAttested, EvProvisioned, EvJoined} {
			event(enclave, k, node, "")
		}
		add(store.KindOpFinished, opFinishedRecord{ID: id, Phase: OpDone, Finished: at})
		switch c % 10 {
		case 3:
			add(store.KindQuotaSet, quotaRecord{Tenant: enclave, Quota: TenantQuota{Weight: c}})
		case 5:
			add(store.KindPoolConfigured, poolRecord{Enclave: enclave, Policy: DefaultPoolPolicy()})
		case 7:
			add(store.KindIncidentUpdate, IncidentStatus{ID: fmt.Sprintf("inc-%04d", c), Enclave: enclave, Node: node, State: IncidentResolved})
			event(enclave, EvQuarantined, node, "ima violation")
		}
		if c < cycles-1 && c%10 != 7 { // the last cycle of each enclave keeps its member
			event(enclave, EvReleased, node, "")
		}
	}
	return recs
}

// reopened writes recs to a file store and opens it again, so Load hands
// over what the open-time scan decoded.
func reopened(t *testing.T, recs []store.Record) store.Store {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := st.AppendBuffered(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestReplayMatchesSequentialFold: decoding the log on every CPU as the
// store's scan checks it, and folding afterwards, builds exactly the state
// that decoding and folding one record at a time does.
func TestReplayMatchesSequentialFold(t *testing.T) {
	recs := syntheticLog(t, 400)
	if len(recs) < 2048 {
		t.Fatalf("synthetic log has %d records: too short for replay to fan out", len(recs))
	}
	seq := &replay{m: NewManager(testCloud(t, 1, FirmwareLinuxBoot)), enclaves: map[string]*replayEnclave{}}
	seq.m.mu.Lock()
	for i, rec := range recs {
		step, err := decodeRecord(rec.Kind, rec.Data)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		step.apply(seq)
	}
	seq.m.mu.Unlock()
	m := NewManagerWithStore(testCloud(t, 1, FirmwareLinuxBoot), reopened(t, recs))
	got, err := m.fold()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stateOf(m, got), stateOf(seq.m, seq)) || !reflect.DeepEqual(got.enclaves, seq.enclaves) {
		t.Fatal("concurrent-decode replay and one-at-a-time replay disagree")
	}
	// 400 operations over two enclaves, each keeping its newest
	// MaxRetainedOps as the live manager would.
	if len(m.opOrder) != 2*MaxRetainedOps || m.opSeq != 400 || len(got.enclaves["a"].nodes) == 0 || m.incSeq != 397 {
		t.Fatalf("replayed state is not the log's: %d ops, opSeq %d, incSeq %d", len(m.opOrder), m.opSeq, m.incSeq)
	}
}

// TestReplayNamesFirstBadRecord: with records of the wrong shape in both
// halves of the log, the error is the earliest record's — what a sequential
// replay would have stopped at — whether the store's scan decoded the log
// on every CPU (a file) or the fold decodes it (memory).
func TestReplayNamesFirstBadRecord(t *testing.T) {
	recs := syntheticLog(t, 400)
	early, late := len(recs)/4, 3*len(recs)/4
	recs[early] = store.Record{Kind: store.KindQuotaSet, Data: json.RawMessage(`{"tenant":7}`)}
	recs[late] = store.Record{Kind: store.KindOpFinished, Data: json.RawMessage(`{"id":7}`)}
	mem := store.NewMemory()
	for _, rec := range recs {
		if err := mem.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	for name, st := range map[string]store.Store{"file": reopened(t, recs), "memory": mem} {
		_, err := NewManagerWithStore(testCloud(t, 1, FirmwareLinuxBoot), st).fold()
		if err == nil || !strings.Contains(err.Error(), string(store.KindQuotaSet)) {
			t.Fatalf("%s: replay error = %v, want the %s record at %d", name, err, store.KindQuotaSet, early)
		}
	}
}

// walFrames returns where each frame of a WAL starts, and its end.
func walFrames(t *testing.T, log []byte) []int {
	t.Helper()
	starts := []int{0}
	for off := 0; off < len(log); {
		if len(log)-off < 8 {
			t.Fatalf("torn frame header at %d", off)
		}
		off += 8 + int(binary.LittleEndian.Uint32(log[off:]))
		starts = append(starts, off)
	}
	return starts
}

// walFrame frames payload as the store does: length, CRC32-C, payload.
func walFrame(payload string) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum([]byte(payload), crc32.MakeTable(crc32.Castagnoli)))
	return append(f, payload...)
}

// TestRecoverPayloadChecks pins what the one pass over a real manager's
// WAL (an acquire/release history, then four members) makes of a frame
// whose CRC is right and whose payload is not what its kind says. The
// store's scan decodes each payload as it checks the log, and that decode
// is the only check the payload gets:
//
//   - a payload that is not JSON ends the log's valid prefix at its frame:
//     the file is cut there and Recover equals recovery of the log cut
//     there, for a known kind (the decoder refuses it) and an unknown one
//     (json.Valid does);
//   - JSON of the wrong shape for a known kind keeps the log whole and
//     fails Recover, named by the earliest such record;
//   - an unknown kind carrying JSON is skipped.
func TestRecoverPayloadChecks(t *testing.T) {
	const nodes = 6
	mgr, dir := durableManager(t, nodes)
	e, err := mgr.CreateEnclave("lab", ProfileBob)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; ; c++ {
		op, err := mgr.StartAcquire("lab", "fedora28", 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := op.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if c == 3 {
			break // the last four stay members
		}
		for _, n := range res.Nodes {
			if err := e.ReleaseNode(n.Name, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	starts := walFrames(t, log)
	mid, third, twoThirds := starts[len(starts)/2], starts[len(starts)/3], starts[2*len(starts)/3]

	// withLog writes a data directory whose WAL is log; frames are spliced in
	// before the frame starting at each offset in at.
	withLog := func(log []byte, at []int, payloads ...string) string {
		var out []byte
		prev := 0
		for i, off := range at {
			out = append(append(out, log[prev:off]...), walFrame(payloads[i])...)
			prev = off
		}
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "wal.log"), append(out, log[prev:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// fold opens a crash copy of d and folds it: the state, and the WAL's
	// length once the store has opened it.
	type folded struct {
		state    foldState
		enclaves map[string]*replayEnclave
		size     int64
	}
	fold := func(d string) (folded, error) {
		cp := copyStoreDir(t, d)
		st, err := store.Open(cp)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		info, err := os.Stat(filepath.Join(cp, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		m := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), st)
		rp, err := m.fold()
		if err != nil {
			return folded{size: info.Size()}, err
		}
		return folded{stateOf(m, rp), rp.enclaves, info.Size()}, nil
	}
	mustFold := func(d string) folded {
		t.Helper()
		f, err := fold(d)
		if err != nil {
			t.Fatalf("fold: %v", err)
		}
		return f
	}
	same := func(a, b folded) bool {
		return reflect.DeepEqual(a.state, b.state) && reflect.DeepEqual(a.enclaves, b.enclaves)
	}
	envelope := func(kind, data string) string {
		return `{"kind":"` + kind + `","at":"2026-01-02T03:04:05Z","data":` + data + `}`
	}

	whole := mustFold(dir)
	cutDir := withLog(log[:mid], nil)
	cut := mustFold(cutDir)
	if same(whole, cut) {
		t.Fatal("the log cut in the middle folds like the whole log: the test shows nothing")
	}
	_, wantReport := recoverFrom(t, cutDir, nodes)

	for _, notJSON := range []string{
		envelope(string(store.KindJournalEvent), `{"enclave":"lab","seq":]`),
		envelope("future-kind", `{"x":]`),
	} {
		d := withLog(log, []int{mid}, notJSON)
		got := mustFold(d)
		if got.size != int64(mid) {
			t.Errorf("%s: open left the WAL at %d bytes, want it cut to the frame at %d", notJSON, got.size, mid)
		}
		if !same(got, cut) {
			t.Errorf("%s: the fold is not the fold of the log cut at that frame", notJSON)
		}
		if _, report := recoverFrom(t, d, nodes); !reflect.DeepEqual(report, wantReport) {
			t.Errorf("%s: Recover = %+v, recovery of the cut log = %+v", notJSON, report, wantReport)
		}
	}

	opFinished := envelope(string(store.KindOpFinished), `{"id":7}`)
	event := envelope(string(store.KindJournalEvent), `{"enclave":["lab"]}`)
	for _, c := range []struct {
		first, second string
		want          store.Kind
	}{
		{opFinished, event, store.KindOpFinished},
		{event, opFinished, store.KindJournalEvent},
	} {
		d := withLog(log, []int{third, twoThirds}, c.first, c.second)
		got, err := fold(d)
		if err == nil || !strings.Contains(err.Error(), "replay "+string(c.want)+" record") {
			t.Errorf("wrong-shape %s then wrong-shape %s: fold error = %v, want one naming the %s record", c.first, c.second, err, c.want)
		}
		if got.size != int64(len(log))+int64(len(walFrame(c.first))+len(walFrame(c.second))) {
			t.Errorf("wrong-shape records: open cut the WAL to %d bytes; JSON of the wrong shape must not end the prefix", got.size)
		}
		st, err := store.Open(copyStoreDir(t, d))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewManagerWithStore(testCloud(t, nodes, FirmwareLinuxBoot), st).Recover(context.Background()); err == nil || !strings.Contains(err.Error(), string(c.want)) {
			t.Errorf("Recover over wrong-shape records = %v, want an error naming the %s record", err, c.want)
		}
		st.Close()
	}

	d := withLog(log, []int{mid}, envelope("future-kind", `{"x":[1,"two",{"three":3}]}`))
	if got := mustFold(d); got.size != int64(len(log)+len(walFrame(envelope("future-kind", `{"x":[1,"two",{"three":3}]}`)))) || !same(got, whole) {
		t.Errorf("an unknown kind carrying JSON was not skipped: WAL at %d bytes, fold equal to the whole log's: %v", got.size, same(got, whole))
	}
}

// replayOnly loads the log a Memory store holds and forgets every record
// appended after it, so what a test measures is the journal's own work.
type replayOnly struct{ *store.Memory }

func (replayOnly) Append(store.Record) error         { return nil }
func (replayOnly) AppendBuffered(store.Record) error { return nil }

// TestRecoveredJournalAllocatedOnce: the fold allocates each enclave's
// history once, with room to grow, and the restored journal keeps that
// slice: after Recover over about 10^4 events per enclave, the next 256
// events recorded stay in it and allocate under a KiB each, a quarter of
// one copy of the history in all (a slice copied to its exact length has
// at most a page of room). They are measured together because the
// stop-the-world of ReadMemStats now and then starts an OS thread and
// allocates a few KiB of its own. The log ends with every node released,
// so recovery records nothing before them.
func TestRecoveredJournalAllocatedOnce(t *testing.T) {
	st := replayOnly{store.NewMemory()}
	recs := syntheticLog(t, 2500)
	seq := map[string]uint64{}
	for _, rec := range recs {
		if rec.Kind != store.KindJournalEvent {
			continue
		}
		r, err := decodeJournalEvent(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		seq[r.Enclave] = r.Seq
	}
	for _, enclave := range []string{"a", "b"} {
		for n := 0; n < 5; n++ {
			seq[enclave]++
			data, err := json.Marshal(journalEventRecord{Enclave: enclave, eventRecord: eventRecord{
				Seq: seq[enclave], At: time.Now(), Kind: EvReleased, Node: fmt.Sprintf("node%02d", n)}})
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, store.Record{Kind: store.KindJournalEvent, At: time.Now(), Data: data})
		}
	}
	for _, rec := range recs {
		if rec.Kind == store.KindPoolConfigured {
			continue // no refiller allocating beside the measurement
		}
		if err := st.Memory.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	mgr := NewManagerWithStore(testCloud(t, 5, FirmwareLinuxBoot), st)
	if rep, err := mgr.Recover(context.Background()); err != nil || len(rep.Readopted)+len(rep.Released)+len(rep.Quarantined) != 0 {
		t.Fatalf("Recover = %+v, %v; want no recorded node left", rep, err)
	}
	for _, name := range []string{"a", "b"} {
		e, err := mgr.Enclave(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(e.Journal().Events()); n < 9000 {
			t.Fatalf("%s: %d events recovered, want about 10^4", name, n)
		}
		base := func() *Event {
			e.journal.mu.Lock()
			defer e.journal.mu.Unlock()
			return &e.journal.events[0]
		}
		first := base()
		const more = 256
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < more; i++ {
			e.Journal().Record(EvHealed, "", "after recovery")
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= more*1024 {
			t.Errorf("%s: %d events recorded after recovery allocated %d bytes", name, more, got)
		}
		if base() != first {
			t.Errorf("%s: recording %d events after recovery moved the history", name, more)
		}
	}
}

// TestRecoverRefusesUnparsableID: an operation or incident whose recorded id
// carries no sequence number fails recovery; it is not restored with
// sequence 0, where it would sort before every real one and collide with
// the next id handed out.
func TestRecoverRefusesUnparsableID(t *testing.T) {
	for _, rec := range []store.Record{
		{Kind: store.KindOpStarted, Data: json.RawMessage(`{"id":"op-x1","enclave":"e","image":"i","count":1}`)},
		{Kind: store.KindOpStarted, Data: json.RawMessage(`{"id":"0007","enclave":"e","image":"i","count":1}`)},
		{Kind: store.KindIncidentUpdate, Data: json.RawMessage(`{"id":"inc-","enclave":"e","state":"resolved"}`)},
	} {
		st := store.NewMemory()
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		mgr := NewManagerWithStore(testCloud(t, 1, FirmwareLinuxBoot), st)
		if _, err := mgr.Recover(context.Background()); err == nil || !strings.Contains(err.Error(), "recorded id") {
			t.Errorf("Recover over %s %s = %v, want a recorded-id error", rec.Kind, rec.Data, err)
		}
	}
	if n, err := idSeq("op-10000", opIDPrefix); err != nil || n != 10000 {
		t.Errorf(`idSeq("op-10000") = %d, %v`, n, err)
	}
}

// TestEventStateInvertsStateEvent: every state is reachable from its event,
// so replay derives node states from the one table the lifecycle journals by.
func TestEventStateInvertsStateEvent(t *testing.T) {
	if len(eventState) != len(stateEvent) {
		t.Fatalf("eventState has %d entries for %d states: two states share an event", len(eventState), len(stateEvent))
	}
	for s, ev := range stateEvent {
		if eventState[ev] != s {
			t.Errorf("eventState[%s] = %s, want %s", ev, eventState[ev], s)
		}
	}
}

// TestRecoverGoldenWAL recovers the log the parent commit wrote
// (internal/store/testdata/golden) and holds the outcome to what the parent
// commit's own Recover made of it.
func TestRecoverGoldenWAL(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden-recovered.json"))
	if err != nil {
		t.Fatal(err)
	}
	type opSummary struct {
		ID, Enclave, Image string
		Count              int
		Phase              OpPhase
	}
	type incSummary struct {
		ID, Enclave, Node string
		State             IncidentState
		Steps             int
	}
	var want struct {
		Report    *RecoverReport
		Ops       []opSummary
		Incidents []incSummary
		Quotas    []QuotaStatus
		Replayed  map[string]int
		Guards    map[string]json.RawMessage
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	mgr, report := recoverFrom(t, filepath.Join("..", "store", "testdata", "golden"), 8)
	if !reflect.DeepEqual(report, want.Report) {
		t.Errorf("report = %+v\nparent's = %+v", report, want.Report)
	}
	var ops []opSummary
	for _, op := range mgr.ListOperations() {
		ops = append(ops, opSummary{op.ID, op.Enclave, op.Image, op.Count, op.Status().Phase})
	}
	if !reflect.DeepEqual(ops, want.Ops) {
		t.Errorf("operations = %+v\nparent's   = %+v", ops, want.Ops)
	}
	var incs []incSummary
	for _, inc := range mgr.ListIncidents("") {
		st := inc.Status()
		incs = append(incs, incSummary{st.ID, st.Enclave, st.Node, st.State, len(st.Steps)})
	}
	if !reflect.DeepEqual(incs, want.Incidents) {
		t.Errorf("incidents = %+v\nparent's  = %+v", incs, want.Incidents)
	}
	if got := mgr.ListQuotas(); !reflect.DeepEqual(got, want.Quotas) {
		t.Errorf("quotas = %+v\nparent's = %+v", got, want.Quotas)
	}
	guards := mgr.RecoveredGuardPolicies()
	if len(guards) != len(want.Guards) {
		t.Errorf("guard policies for %d enclaves, parent recovered %d", len(guards), len(want.Guards))
	}
	for name, p := range want.Guards {
		var a, b any
		if json.Unmarshal(p, &a) != nil || json.Unmarshal(guards[name], &b) != nil || !reflect.DeepEqual(a, b) {
			t.Errorf("guard policy of %s = %s, parent's = %s", name, guards[name], p)
		}
	}
	if got := mgr.ListEnclaves(); len(got) != len(want.Replayed) {
		t.Errorf("enclaves = %v, parent recovered %d", got, len(want.Replayed))
	}
	for name, n := range want.Replayed {
		e, err := mgr.Enclave(name)
		if err != nil {
			t.Error(err)
			continue
		}
		events := e.Journal().Events()
		if len(events) <= n {
			t.Errorf("%s: %d journal events after recovery, %d were replayed from the log alone", name, len(events), n)
			continue
		}
		for i, ev := range events[:n] {
			if ev.Seq != uint64(i+1) {
				t.Errorf("%s: replayed event %d has seq %d", name, i, ev.Seq)
				break
			}
		}
	}
}

// TestRecoverReadoptsEnclavesSideBySide: several enclaves with members and
// warm standbys are re-adopted at once (run under -race), every node by its
// own fresh quote, and no pool's refiller runs until every enclave has its
// recorded nodes back — the free pool ends exactly as the log left it.
func TestRecoverReadoptsEnclavesSideBySide(t *testing.T) {
	const (
		enclaves = 3
		members  = 2
		warm     = 1
		nodes    = enclaves*(members+warm) + 2
	)
	mgr1, dir := durableManager(t, nodes)
	want := map[string]map[string]NodeState{}
	for i := 0; i < enclaves; i++ {
		name := fmt.Sprintf("e%d", i)
		e, err := mgr1.CreateEnclave(name, ProfileBob)
		if err != nil {
			t.Fatal(err)
		}
		pol := DefaultPoolPolicy()
		pol.Target = warm
		if _, _, err := mgr1.ConfigurePool(name, pol); err != nil {
			t.Fatal(err)
		}
		waitWarm(t, e, warm)
		op, err := mgr1.StartAcquire(name, "fedora28", members)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := op.Wait(context.Background()); err != nil || len(res.Nodes) != members {
			t.Fatalf("acquire: %v", err)
		}
		waitWarm(t, e, warm)
		want[name] = e.NodeStates()
	}

	mgr2, report := recoverFrom(t, dir, nodes)
	if report.Enclaves != enclaves || len(report.Readopted) != enclaves*(members+warm) || len(report.Rejected)+len(report.Released) != 0 {
		t.Fatalf("report = %+v", report)
	}
	for name, states := range want {
		e, err := mgr2.Enclave(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.NodeStates(); !reflect.DeepEqual(got, states) {
			t.Errorf("%s recovered as %v, recorded %v", name, got, states)
		}
		if got := e.Journal().Count(EvRecovered); got != members+warm {
			t.Errorf("%s: %d recovered events, want one per node (%d)", name, got, members+warm)
		}
		if got := e.Journal().Count(EvAttested); got < 2*(members+warm) {
			t.Errorf("%s: %d attested events: a re-adopted node skipped its fresh quote", name, got)
		}
	}
	free, err := mgr2.cloud.HIL.FreeNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 2 {
		t.Fatalf("free pool after recovery = %v, want the 2 spare nodes", free)
	}
}
