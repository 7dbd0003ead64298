package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bolted/internal/bmi"
	"bolted/internal/store"
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
// revocation feeds, each compared field by field. The one departure is the
// warm-joined alpha/node00, re-adopted now that a snapshot folds in log
// order (testdata/golden-snapshot/README.md).
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

// TestSnapshotWarmJoinsKeepTheirImages: two acquisitions with different
// images each take a member from the warm pool, whose allocation names
// no image, and the manager checkpoints. Recovery from the snapshot alone
// must re-adopt both members, each with the image of the acquisition it
// joined — which only holds if the snapshot's operations and events fold
// in the order the log had them.
func TestSnapshotWarmJoinsKeepTheirImages(t *testing.T) {
	const nodes = 8
	addImage := func(c *Cloud) {
		t.Helper()
		if _, err := c.BMI.CreateOSImage("centos7", bmi.OSImageSpec{
			KernelID: "centos7-3.10",
			Kernel:   []byte("vmlinuz-3.10"),
			Initrd:   []byte("initramfs-3.10"),
			Cmdline:  "root=iscsi",
		}); err != nil {
			t.Fatal(err)
		}
	}
	mgr1, dir := durableManager(t, nodes)
	addImage(mgr1.cloud)
	if _, err := mgr1.CreateEnclave("w", ProfileBob); err != nil {
		t.Fatal(err)
	}
	pol := DefaultPoolPolicy()
	pol.Target = 1
	if _, _, err := mgr1.ConfigurePool("w", pol); err != nil {
		t.Fatal(err)
	}
	e1, _ := mgr1.Enclave("w")
	imageOf := map[string]string{} // member -> image of the acquisition it joined
	for _, image := range []string{"fedora28", "centos7"} {
		waitWarm(t, e1, 1)
		ps, _ := e1.PoolStats()
		op, err := mgr1.StartAcquire("w", image, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := op.Wait(context.Background())
		if err != nil || len(res.Nodes) != 1 || !slices.Contains(ps.WarmNodes, res.Nodes[0].Name) {
			t.Fatalf("acquire %s did not take the warm standby %v: %v %+v", image, ps.WarmNodes, err, res)
		}
		imageOf[res.Nodes[0].Name] = image
	}
	waitWarm(t, e1, 1) // no refill in flight at the checkpoint
	if err := mgr1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(copyStoreDir(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(t, nodes, FirmwareLinuxBoot)
	addImage(cloud)
	mgr2 := NewManagerWithStore(cloud, st)
	report, err := mgr2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for member := range imageOf {
		if !slices.Contains(report.Readopted, "w/"+member) {
			t.Fatalf("re-adopted %v, released %v; want both warm-joined members re-adopted", report.Readopted, report.Released)
		}
	}
	e2, err := mgr2.Enclave("w")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range e2.Journal().Events() {
		image, member := imageOf[ev.Node]
		if ev.Kind != EvRecovered || !member {
			continue // the warm standby is re-adopted as one
		}
		if got, _ := strings.CutPrefix(ev.Detail, "readopted member image="); got != image {
			t.Errorf("%s re-adopted as %q, joined an acquisition of %s", ev.Node, ev.Detail, image)
		}
	}
}
