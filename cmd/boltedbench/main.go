// Command boltedbench is the tenant-view benchmark of this repository:
// four workloads — three against a live boltedd over /v1, one against
// Charlie's disk stack in process — with output checks, end-to-end
// metrics measured untraced, and a traced companion run that charges
// one cycle's time to the layers (this repository's modules). See
// bench/README.md for the workloads, the metrics and how to read them.
//
// It runs in two shapes. With -workload it is one run of one workload,
// untraced (-trace 0) or traced (-trace 1), and its last line of
// output is the JSON object BENCHMARK.json's driver reads. Without
// -workload it is a whole set: every workload untraced, then every
// workload traced, every metric printed by name; -sets N repeats the
// set and checks the sets against each other.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runSeconds is the measured window, BENCHMARK.json's run_seconds. It
// is a constant of the benchmark: results from different windows do
// not compare (GET /v1/operations grows with the cycles done).
const runSeconds = 15

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs a whole set")
		seed     = flag.Int64("seed", 1, "seed for enclave names, offsets and buffer contents")
		seconds  = flag.Int("seconds", runSeconds, "the window BENCHMARK.json's driver passes back; only run_seconds is accepted")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced per-layer run")
		sets     = flag.Int("sets", 1, "without -workload: run the whole set N times (seeds seed..seed+N-1) and compare the sets")
		boltedd  = flag.String("boltedd", "", "path to the boltedd binary to measure (required for the daemon workloads)")
		outDir   = flag.String("out", "bench/out", "directory for trace files, data directories and the result file")
		saveAs   = flag.String("save", "", "without -workload: also write the result JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds != runSeconds || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "boltedbench: bad arguments")
		flag.Usage()
		return 2
	}
	if *boltedd == "" && *workload != wlDiskCharlie {
		fmt.Fprintln(os.Stderr, "boltedbench: -boltedd is required (cmd/boltedbench/run.sh builds it and passes it)")
		return 2
	}
	if *boltedd != "" {
		if _, err := os.Stat(*boltedd); err != nil {
			fmt.Fprintf(os.Stderr, "boltedbench: %v\n", err)
			return 2
		}
	}

	e, err := newEnv(*boltedd, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boltedbench: %v\n", err)
		return 1
	}
	// The harness owns its children: whatever path leaves run, every
	// daemon is killed and reaped and every data directory removed.
	defer e.cleanup()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	window := runSeconds * time.Second
	if *workload != "" {
		return runOne(ctx, e, *workload, *seed, window, *trace == 1)
	}
	return runSets(ctx, e, *seed, *sets, window, *saveAs)
}

// value is one metric as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of a -workload run.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne is one driver run: one workload, one mode, one JSON line.
func runOne(ctx context.Context, e *env, name string, seed int64, window time.Duration, trace bool) int {
	r, err := runWorkload(ctx, e, name, seed, window, trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boltedbench: %v\n", err)
		return 1
	}
	printResult(os.Stdout, r, trace)
	line := driverLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]value)}
	if trace {
		for _, m := range perLayer {
			line.Metrics[m.Name] = value{r.Layer[m.Name], m.Unit}
		}
	} else {
		for _, f := range slotsOf(name) {
			line.Metrics[f.Slot.Name] = value{f.value(r), f.Slot.Unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boltedbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !r.correct() {
		return 1
	}
	return 0
}

// printResult prints every metric of a run by name with its unit.
func printResult(w *os.File, r *result, trace bool) {
	fmt.Fprintf(w, "== %s seed=%d window=%.0fs attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.WindowS, r.Attempted, r.Failed, r.correct())
	for _, f := range r.Causes {
		fmt.Fprintf(w, "   failure  phase=%s error=%s\n", f.Phase, f.Error)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "   CHECK FAILED  %s\n", c)
	}
	if !trace {
		for _, m := range rowsOf(r.Workload) {
			fmt.Fprintf(w, "   %-28s %12.4f %s\n", m.Name, r.E2E[m.Name], m.Unit)
		}
		for _, f := range slotsOf(r.Workload)[1:] {
			fmt.Fprintf(w, "   slot %-23s %12.4f %-6s (= %s)\n", f.Slot.Name, f.value(r), f.Slot.Unit, f)
		}
	}
	names := make([]string, 0, len(r.Timings))
	for n := range r.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := r.Timings[n]
		fmt.Fprintf(w, "   timing %-21s p50 %10.4f ms   p%-4g %10.4f ms   n=%d\n", n, t.P50, t.TailP, t.TailMs, t.N)
	}
	if trace {
		for _, m := range perLayer {
			if v, ok := r.Layer[m.Name]; ok {
				fmt.Fprintf(w, "   %-34s %14.4f %-6s -> %s\n", m.Name, v, m.Unit, m.Moves)
			}
		}
		if len(r.Budget) > 0 {
			printBudget(w, "   budget of one "+r.Workload+" cycle", r.Budget, r.BudgetCycles)
		}
	}
}

// envRecord says what box a result came from.
type envRecord struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	DataDirFS    string  `json:"data_dir_fs"`
	FsyncProbeUs float64 `json:"store.fsync_probe_us"`
}

func recordEnv(e *env) envRecord {
	rec := envRecord{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", DataDirFS: fsType(e.scratch)}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		rec.Kernel = strings.TrimSpace(string(b))
	}
	probe := make(map[string]float64)
	if err := fsyncProbe(e.scratch, probe); err == nil {
		rec.FsyncProbeUs = probe["store.fsync_probe_us"]
	}
	return rec
}

// setResult is one whole set: every workload untraced, then traced.
type setResult struct {
	Seed      int64              `json:"seed"`
	WallS     float64            `json:"wall_s"`
	Workloads map[string]*result `json:"workloads"`
}

// spreadRow compares one end-to-end metric across sets.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"rel_spread"`
	Bound    float64   `json:"bound"`
	Agree    bool      `json:"agree"`
}

// runSets runs the whole benchmark n times back to back and compares
// the sets: two sets of the same code must agree within each metric's
// own bound.
func runSets(ctx context.Context, e *env, seed int64, n int, window time.Duration, saveAs string) int {
	report := struct {
		Env     envRecord    `json:"env"`
		Seconds float64      `json:"window_s"`
		Sets    []*setResult `json:"sets"`
		Compare []spreadRow  `json:"compare,omitempty"`
	}{Env: recordEnv(e), Seconds: window.Seconds()}
	fmt.Printf("env: %+v\n", report.Env)
	ok := true
	for i := 0; i < n; i++ {
		set := &setResult{Seed: seed + int64(i), Workloads: make(map[string]*result)}
		begin := time.Now()
		for _, trace := range []bool{false, true} {
			for _, name := range workloadNames {
				r, err := runWorkload(ctx, e, name, set.Seed, window, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "boltedbench: %v\n", err)
					return 1
				}
				printResult(os.Stdout, r, trace)
				ok = ok && r.correct()
				if prev := set.Workloads[name]; prev != nil {
					// The traced run adds its rows to the untraced result;
					// end-to-end numbers are never taken from it.
					prev.Layer, prev.Budget, prev.BudgetCycles = r.Layer, r.Budget, r.BudgetCycles
					prev.Checks = append(prev.Checks, r.Checks...)
				} else {
					set.Workloads[name] = r
				}
			}
		}
		set.WallS = time.Since(begin).Seconds()
		fmt.Printf("set %d (seed %d): wall time %.1f s\n", i+1, set.Seed, set.WallS)
		report.Sets = append(report.Sets, set)
	}
	if n > 1 {
		report.Compare = compareSets(report.Sets)
		fmt.Printf("%-14s %-24s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, row := range report.Compare {
			verdict := ""
			if !row.Agree {
				verdict = "  SETS DISAGREE"
				ok = false
			}
			fmt.Printf("%-14s %-24s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n", row.Workload, row.Metric,
				row.Median, row.Q1, row.Q3, 100*row.Spread, 100*row.Bound, verdict)
		}
	}
	if saveAs != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(saveAs, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "boltedbench: write %s: %v\n", saveAs, err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// compareSets lines every end-to-end metric up across sets. Sets agree
// on a metric when the worst of them is no worse than the best by more
// than the metric's bound.
func compareSets(sets []*setResult) []spreadRow {
	var rows []spreadRow
	for _, name := range workloadNames {
		for _, m := range rowsOf(name) {
			row := spreadRow{Workload: name, Metric: m.Name, Unit: m.Unit, Bound: bound}
			for _, s := range sets {
				row.Values = append(row.Values, s.Workloads[name].E2E[m.Name])
			}
			row.Q1, row.Median, row.Q3 = quartiles(row.Values)
			row.Spread = relSpread(row.Values)
			asc := sorted(row.Values)
			best, worst := asc[0], asc[len(asc)-1]
			if m.Higher {
				best, worst = worst, best
			}
			row.Agree = worseBy(best, worst, m.Higher) <= bound
			rows = append(rows, row)
		}
	}
	return rows
}

// fsType names the filesystem under dir, for the environment record.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		under := abs == mp || mp == "/" || strings.HasPrefix(abs, mp+"/")
		if under && len(mp) >= len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}
