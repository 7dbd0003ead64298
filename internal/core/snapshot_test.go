package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// goldenSnapshotDir holds a snapshot and the WAL tail written after it, both
// by an older commit's Checkpoint and store (testdata/golden-snapshot/README.md).
var goldenSnapshotDir = filepath.Join("testdata", "golden-snapshot")

// recoveredSummary is what a restart made of a recorded control plane,
// resource by resource, in a form that holds still between runs: ids,
// phases, states, policies and journal positions, no wall-clock times.
type recoveredSummary struct {
	Report    *RecoverReport
	Ops       []string          // "id enclave image count phase error"
	Idem      map[string]string // idempotency key -> operation
	Incidents []string          // "id enclave node state steps"
	Feed      []string          // incident feed from cursor 0: "cursor: id state steps"
	Quotas    []QuotaStatus
	Pools     map[string]PoolPolicy
	Guards    map[string]json.RawMessage
	RevFeeds  map[string][]string // enclave -> "cursor: uuid reason"
	Journals  map[string][]string // enclave -> "seq kind node" of each recorded event
	Appended  map[string][]string // enclave -> "kind node" of each event recovery added, sorted
	Nodes     map[string]map[string]NodeState
}

// summarizeRecovered summarizes a recovered manager. recorded says how many
// events of each enclave's journal came from the log; the rest recovery
// journalled itself, node by node in parallel, so only their multiset holds
// still.
func summarizeRecovered(t *testing.T, mgr *Manager, report *RecoverReport, recorded map[string]int) recoveredSummary {
	t.Helper()
	s := recoveredSummary{
		Report:   report,
		Idem:     map[string]string{},
		Quotas:   mgr.ListQuotas(),
		Pools:    map[string]PoolPolicy{},
		Guards:   mgr.RecoveredGuardPolicies(),
		RevFeeds: map[string][]string{},
		Journals: map[string][]string{},
		Appended: map[string][]string{},
		Nodes:    map[string]map[string]NodeState{},
	}
	for _, op := range mgr.ListOperations() {
		st := op.Status()
		msg := ""
		if st.Err != nil {
			msg = st.Err.Error()
		}
		s.Ops = append(s.Ops, fmt.Sprintf("%s %s %s %d %s %s", op.ID, op.Enclave, op.Image, op.Count, st.Phase, msg))
	}
	mgr.mu.Lock()
	for k, id := range mgr.idem {
		s.Idem[k] = id
	}
	mgr.mu.Unlock()
	for _, inc := range mgr.ListIncidents("") {
		st := inc.Status()
		s.Incidents = append(s.Incidents, fmt.Sprintf("%s %s %s %s %d", st.ID, st.Enclave, st.Node, st.State, len(st.Steps)))
	}
	feed, _, next := mgr.IncidentUpdatesSince(0)
	for i, st := range feed {
		s.Feed = append(s.Feed, fmt.Sprintf("%d: %s %s %d", next-len(feed)+i, st.ID, st.State, len(st.Steps)))
	}
	for _, st := range mgr.ListPools() {
		s.Pools[st.Enclave] = st.Policy
	}
	for _, name := range mgr.ListEnclaves() {
		evs, _, next, err := mgr.RevocationsSince(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range evs {
			s.RevFeeds[name] = append(s.RevFeeds[name], fmt.Sprintf("%d: %s %s", next-len(evs)+i, ev.UUID, ev.Reason))
		}
		e, err := mgr.Enclave(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range e.Journal().Events() {
			if i < recorded[name] {
				s.Journals[name] = append(s.Journals[name], fmt.Sprintf("%d %s %s", ev.Seq, ev.Kind, ev.Node))
			} else {
				s.Appended[name] = append(s.Appended[name], fmt.Sprintf("%s %s", ev.Kind, ev.Node))
			}
		}
		sort.Strings(s.Appended[name])
		s.Nodes[name] = e.NodeStates()
	}
	sort.Slice(s.Quotas, func(i, j int) bool { return s.Quotas[i].Tenant < s.Quotas[j].Tenant })
	return s
}

// TestRecoverGoldenSnapshot recovers a checkpoint plus WAL tail an older
// commit wrote and holds the outcome to what that commit's own Recover made
// of it: enclaves with their journals, pool and guard policies, operations
// and their idempotency keys, incidents, the incident feed and the
// revocation feeds, each compared field by field.
func TestRecoverGoldenSnapshot(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden-snapshot-recovered.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want recoveredSummary
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(goldenSnapshotDir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}
	mgr, report := recoverFrom(t, goldenSnapshotDir, 8)
	recorded := map[string]int{}
	for name, evs := range want.Journals {
		recorded[name] = len(evs)
	}
	got := summarizeRecovered(t, mgr, report, recorded)
	// Round-trip through JSON so both sides hold the same shapes (nil vs
	// empty, raw policy bytes re-indented).
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	got = recoveredSummary{}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if name == "Guards" {
			for enclave, p := range want.Guards {
				var a, b any
				if json.Unmarshal(p, &a) != nil || json.Unmarshal(got.Guards[enclave], &b) != nil || !reflect.DeepEqual(a, b) {
					t.Errorf("guard policy of %s = %s, recorded %s", enclave, got.Guards[enclave], p)
				}
			}
			if len(got.Guards) != len(want.Guards) {
				t.Errorf("guard policies for %d enclaves, recorded %d", len(got.Guards), len(want.Guards))
			}
			continue
		}
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
