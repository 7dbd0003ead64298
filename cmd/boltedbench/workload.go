package main

import (
	"context"
	"fmt"
	"time"
)

// Workload names are fixed: later issues refer to them.
const (
	wlChurnCold    = "churn-cold"
	wlPollFeed     = "poll-feed"
	wlCrashRecover = "crash-recover"
	wlDiskCharlie  = "disk-charlie"
)

var workloadNames = []string{wlChurnCold, wlPollFeed, wlCrashRecover, wlDiskCharlie}

// setupRepeats is how many instances of its workload a run sets up
// and measures; setup_s and every end-to-end metric are medians over
// them.
const setupRepeats = 3

// workload is one of the four benchmark workloads. setup brings the
// system to the point of its first measured operation (daemon launch
// or stack construction, seeding, warm-up); measure runs the closed
// loops for the window, checks outputs and returns what it counted
// and its end-to-end numbers; layers is the traced companion run that
// fills the per-layer metrics; close releases everything setup
// created.
type workload interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, window time.Duration) (*tally, map[string]float64, error)
	layers(ctx context.Context, window time.Duration, r *result) error
	close()
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	WindowS   float64            `json:"window_s"`
	SetupS    []float64          `json:"setup_s_each"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Causes    []failure          `json:"failures,omitempty"`
	Checks    []string           `json:"check_violations,omitempty"`
	E2E       map[string]float64 `json:"end_to_end"`
	Timings   map[string]timing  `json:"timings,omitempty"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`

	// The traced run's per-layer table, totals over BudgetCycles cycles.
	Budget       []layerRow `json:"budget,omitempty"`
	BudgetCycles int        `json:"budget_cycles,omitempty"`
}

func (r *result) correct() bool { return len(r.Checks) == 0 }

// absorb copies a tally's counts, causes, violations and timing
// summaries into the result.
func (r *result) absorb(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Causes = append(r.Causes, t.firstCauses(5)...)
	r.Checks = append(r.Checks, t.checks...)
	for name, s := range t.lat {
		r.Timings[name] = summarize(*s)
	}
}

func newWorkload(name string, e *env, seed int64) (workload, error) {
	switch name {
	case wlChurnCold:
		return newChurn(e, seed), nil
	case wlPollFeed:
		return newPollFeed(e, seed), nil
	case wlCrashRecover:
		return newCrashRecover(e, seed), nil
	case wlDiskCharlie:
		return newDisk(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// tolerable reports an error when more than one in a hundred set-up
// operations failed. A single rejected node — the product has a known
// race that rejects a healthy one now and then, see bench/README.md —
// costs its operation and nothing else, so set-up carries on.
func tolerable(t *tally, what string) error {
	if t.failed*100 > t.attempted || len(t.checks) > 0 {
		return fmt.Errorf("%s: %d of %d operations failed: %v %v", what, t.failed, t.attempted, t.firstCauses(3), t.checks)
	}
	return nil
}

// runWorkload sets the workload up setupRepeats times and measures
// each instance for an equal share of the window. Every end-to-end
// metric is the median over the instances, so a disturbance that hits
// one instance — a noisy neighbour, an unlucky heap — does not set the
// result. With trace it runs the per-layer companion on one instance
// instead.
func runWorkload(ctx context.Context, e *env, name string, seed int64, window time.Duration, trace bool) (*result, error) {
	r := &result{Workload: name, Seed: seed, WindowS: window.Seconds(),
		E2E: make(map[string]float64), Timings: make(map[string]timing), Layer: make(map[string]float64)}
	repeats := setupRepeats
	if trace {
		repeats = 1 // set-up time is an end-to-end metric; the traced run does not report it
	}
	each := make(map[string][]float64) // metric -> one value per instance
	pooled := newTally()
	for i := 0; i < repeats; i++ {
		err := func() error {
			w, err := newWorkload(name, e, seed)
			if err != nil {
				return err
			}
			defer w.close()
			begin := time.Now()
			if err := w.setup(ctx); err != nil {
				return fmt.Errorf("%s: set-up: %w", name, err)
			}
			r.SetupS = append(r.SetupS, time.Since(begin).Seconds())
			if trace {
				if err := w.layers(ctx, window, r); err != nil {
					return fmt.Errorf("%s: traced run: %w", name, err)
				}
				return nil
			}
			t, e2e, err := w.measure(ctx, window/time.Duration(repeats))
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			pooled.merge(t)
			for k, v := range e2e {
				each[k] = append(each[k], v)
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	r.absorb(pooled)
	for k, v := range each {
		r.E2E[k] = median(v)
	}
	r.E2E["setup_s"] = median(r.SetupS)
	return r, nil
}
