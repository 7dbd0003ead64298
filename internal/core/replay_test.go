package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestReplayMatchesSequentialFold: decoding the log on every CPU and folding
// afterwards builds exactly the state that decoding and folding one record at
// a time does.
func TestReplayMatchesSequentialFold(t *testing.T) {
	recs := syntheticLog(t, 400)
	if len(recs) < 2048 {
		t.Fatalf("synthetic log has %d records: too short for replay to fan out", len(recs))
	}
	want := newReplayState()
	for i, rec := range recs {
		fold, err := decodeRecord(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		fold(want)
	}
	got := newReplayState()
	if err := got.replay(recs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent-decode replay and one-at-a-time replay disagree")
	}
	if len(got.ops) != 400 || got.opSeq != 400 || len(got.enclaves["a"].nodes) == 0 || got.incSeq != 397 {
		t.Fatalf("replayed state is not the log's: %d ops, opSeq %d, incSeq %d", len(got.ops), got.opSeq, got.incSeq)
	}
}

// TestReplayNamesFirstBadRecord: with undecodable records in both halves of
// the log, whichever worker fails first, the error is the earliest record's —
// what a sequential replay would have stopped at.
func TestReplayNamesFirstBadRecord(t *testing.T) {
	recs := syntheticLog(t, 400)
	early, late := len(recs)/4, 3*len(recs)/4
	recs[early] = store.Record{Kind: store.KindQuotaSet, Data: json.RawMessage(`{"tenant":7}`)}
	recs[late] = store.Record{Kind: store.KindOpFinished, Data: json.RawMessage(`[`)}
	err := newReplayState().replay(recs)
	if err == nil || !strings.Contains(err.Error(), string(store.KindQuotaSet)) {
		t.Fatalf("replay error = %v, want the %s record at %d", err, store.KindQuotaSet, early)
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
