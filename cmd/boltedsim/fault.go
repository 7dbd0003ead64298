// The fault-injection sweep: chaos validation of the resilience layer
// on the real functional pipeline. Each point in the sweep drives an
// 8-node batch acquire through an in-process cloud whose four backend
// services (HIL, BMI, node driver, registrar) inject seeded transient
// faults at a fixed per-call rate, with retries and circuit breakers
// enabled. The injector's keyed-hash rolls make the whole sweep
// deterministic: the same seed faults the same calls and produces the
// same BENCH_fault.json, which is what lets CI gate on it.
//
// The report's latency percentiles come from the paper's timing model
// (SimulateProvisioning with the same seed and fault rate), not from
// host wall-clock: in-process service calls complete in microseconds,
// so measured wall time would say nothing about a real deployment and
// would differ run to run.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/fault"
)

// Sweep shape: the paper's 8-node batch at transient-fault rates from
// healthy to pathological. The seed fixes every injector roll and every
// timing-model penalty.
const (
	faultSeed    = 1337
	faultNodes   = 8
	faultDefault = "BENCH_fault.json"
	// gateRate is the sweep point CI gates on: at 5% per-call transient
	// faults a full batch must still land with zero spurious rejects —
	// one flaky service call must never send a healthy node to the
	// rejected pool.
	gateRate = 0.05
)

// faultPolicy is the resilience policy the sweep runs under: a retry
// budget deep enough to out-last 20%-rate failure streaks, with
// near-zero backoff so the functional sweep finishes in milliseconds
// (the latency cost of backoff is modeled by the timing side, which
// uses the production defaults' shape).
func faultPolicy() core.ResiliencePolicy {
	return core.ResiliencePolicy{
		MaxAttempts:  8,
		RetryBackoff: 100 * time.Microsecond,
		BackoffCap:   time.Millisecond,
		// The breaker must tolerate a 20%-rate run without tripping the
		// cloud into degraded mode mid-batch: this sweep measures retry
		// behavior, the breaker path is proven by the core and guard
		// tests.
		BreakerThreshold: 64,
		BreakerCooldown:  10 * time.Millisecond,
	}
}

// faultRunReport is one sweep point's measured outcome (the wire form
// in BENCH_fault.json). Every field is deterministic in the seed.
type faultRunReport struct {
	Rate            float64 `json:"rate"`
	Acquired        int     `json:"acquired"`
	SpuriousRejects int     `json:"spurious_rejects"`
	Aborted         int     `json:"aborted"`
	BackendCalls    uint64  `json:"backend_calls"`
	InjectedFaults  uint64  `json:"injected_faults"`
	P50S            float64 `json:"p50_s"`
	P99S            float64 `json:"p99_s"`
}

// faultBench is the whole benchmark document written to
// BENCH_fault.json and gated by CI.
type faultBench struct {
	Bench       string           `json:"bench"`
	Seed        int64            `json:"seed"`
	Nodes       int              `json:"nodes"`
	MaxAttempts int              `json:"max_attempts"`
	Runs        []faultRunReport `json:"runs"`
	GateRate    float64          `json:"gate_rate"`
	Pass        bool             `json:"pass"`
}

// faultSweepPoint runs the functional half of one sweep point: a fresh
// in-process cloud, error-rate injection on all four backends at the
// given rate, resilience on, one batch acquire.
func faultSweepPoint(rate float64) faultRunReport {
	cfg := core.DefaultConfig()
	cfg.Nodes = faultNodes
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
		KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
	}); err != nil {
		panic(err)
	}

	// Injection goes innermost (installed before the resilience layer,
	// so between it and the real services), exactly where a flaky
	// network would sit.
	inj := fault.New(faultSeed)
	defer inj.Close()
	for _, b := range fault.Backends {
		inj.Set(b, fault.Profile{ErrorRate: rate})
	}
	cloud.Intercept(inj.Intercept)
	if err := cloud.EnableResilience(faultPolicy()); err != nil {
		panic(err)
	}

	e, err := core.NewEnclave(cloud, "t", core.ProfileBob)
	if err != nil {
		panic(err)
	}
	res, err := e.AcquireNodes(context.Background(), "os", faultNodes)
	if err != nil {
		panic(err)
	}

	rep := faultRunReport{
		Rate:            rate,
		Acquired:        len(res.Nodes),
		SpuriousRejects: len(res.Failed),
		Aborted:         len(res.Aborted),
	}
	for _, b := range fault.Backends {
		st := inj.StatsFor(b)
		rep.BackendCalls += st.Calls
		for _, n := range st.Injected {
			rep.InjectedFaults += n
		}
	}

	// Latency half: the paper's timing model with the same seed and
	// rate. faultPenalty charges each faulted attempt a service timeout
	// plus the capped backoff, so the percentiles show what the sweep's
	// retries cost on real hardware.
	tc := core.DefaultProvisionConfig()
	tc.Concurrency = faultNodes
	tc.FaultRate = rate
	tc.Seed = faultSeed
	tc.Resilience = faultPolicy()
	tr := core.SimulateProvisioning(tc)
	lat := make([]float64, 0, len(tr.PerNode))
	for _, d := range tr.PerNode {
		lat = append(lat, d.Seconds())
	}
	rep.P50S = quantile(lat, 0.50)
	rep.P99S = quantile(lat, 0.99)
	return rep
}

func figFault(bool) {
	header("Fault sweep: seeded transient faults vs the resilience layer (functional path)")
	pol := faultPolicy()
	fmt.Printf("%d-node batch, seed %d, retries up to %d attempts, faults on all four backends\n",
		faultNodes, faultSeed, pol.MaxAttempts)

	rates := []float64{0, 0.05, 0.10, 0.20}
	runs := make([]faultRunReport, 0, len(rates))
	fmt.Printf("%-8s %9s %9s %8s %8s %8s %9s %9s\n",
		"rate", "acquired", "rejects", "aborts", "calls", "faults", "p50", "p99")
	for _, rate := range rates {
		r := faultSweepPoint(rate)
		runs = append(runs, r)
		fmt.Printf("%-8.2f %9d %9d %8d %8d %8d %8.0fs %8.0fs\n",
			r.Rate, r.Acquired, r.SpuriousRejects, r.Aborted,
			r.BackendCalls, r.InjectedFaults, r.P50S, r.P99S)
	}

	pass := false
	for _, r := range runs {
		if r.Rate == gateRate {
			pass = r.Acquired == faultNodes && r.SpuriousRejects == 0
		}
	}
	fmt.Printf("gate: %.0f%% fault rate must acquire %d/%d with zero spurious rejects: %s\n",
		gateRate*100, faultNodes, faultNodes, map[bool]string{true: "PASS", false: "FAIL"}[pass])
	fmt.Println("expect: full batches at every rate (retries absorb every injected fault);")
	fmt.Println("faulted attempts pay a service timeout plus backoff, nudging per-node")
	fmt.Println("latencies upward while the airlock-serialized tail keeps p99 anchored")

	doc := faultBench{
		Bench:       "fault",
		Seed:        faultSeed,
		Nodes:       faultNodes,
		MaxAttempts: pol.MaxAttempts,
		Runs:        runs,
		GateRate:    gateRate,
		Pass:        pass,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	b = append(b, '\n')
	out := benchOut
	if out == "" {
		out = faultDefault
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "boltedsim: write %s: %v\n", out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	if benchCheck && !pass {
		fmt.Fprintln(os.Stderr, "boltedsim: fault gate failed")
		os.Exit(1)
	}
}
