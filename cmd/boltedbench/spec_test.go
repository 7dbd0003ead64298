package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in spec.go are
// what the harness prints. They must say the same thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the harness measures for %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the file, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the file, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.better() {
				t.Errorf("%s %d: file says %+v, harness says %s %s %s", kind, i, g, m.Name, m.Unit, m.better())
			}
			if bounded && (g.Bound == nil || *g.Bound != bound) {
				t.Errorf("%s %s: bound in the file differs from the harness's %g", kind, m.Name, bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, slots, true)
	check("per_layer", file.PerLayer, perLayer, false)
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("per_layer %s does not say which end-to-end metric it should move", m.Name)
		}
	}
}

// Every row of the end-to-end table reaches the driver through exactly
// one slot that is neither a repeat nor a reciprocal, and every slot is
// filled on every workload.
func TestSlotsCarryEveryRow(t *testing.T) {
	for _, w := range workloadNames {
		fills := slotsOf(w)
		if len(fills) != len(slots) {
			t.Fatalf("%s fills %d of %d slots", w, len(fills), len(slots))
		}
		carried := make(map[string]int)
		for _, f := range fills {
			if f.Source == "" {
				t.Errorf("%s: slot %s is empty", w, f.Slot.Name)
			}
			if !f.Repeat && !f.Recip {
				carried[f.Source]++
			}
		}
		for _, m := range rowsOf(w) {
			if carried[m.Name] != 1 {
				t.Errorf("%s: row %s is carried by %d slots", w, m.Name, carried[m.Name])
			}
		}
	}
	r := &result{E2E: map[string]float64{"recover_ready_p50_ms": 250}}
	for _, f := range slotsOf(wlCrashRecover) {
		if f.Slot.Name == "rate1_per_s" && f.value(r) != 4 {
			t.Errorf("a 250 ms recovery as a rate: got %g per second, want 4", f.value(r))
		}
	}
}

// bench/README.md shows the slot assignment; it is this table.
func TestReadmeShowsSlotTable(t *testing.T) {
	readme, err := os.ReadFile("../../bench/README.md")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| slot (`BENCHMARK.json`) | unit |")
	for _, w := range workloadNames {
		fmt.Fprintf(&b, " `%s` |", w)
	}
	b.WriteString("\n|---|---|" + strings.Repeat("---|", len(workloadNames)) + "\n")
	for i, s := range slots {
		fmt.Fprintf(&b, "| `%s` | %s |", s.Name, s.Unit)
		for _, w := range workloadNames {
			fmt.Fprintf(&b, " %s |", slotsOf(w)[i])
		}
		b.WriteString("\n")
	}
	if !strings.Contains(string(readme), b.String()) {
		t.Errorf("bench/README.md does not contain the slot table:\n%s", b.String())
	}
}
