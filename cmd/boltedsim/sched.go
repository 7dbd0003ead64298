// The scheduler churn benchmark: cluster-scale validation of the
// weighted-fair airlock scheduler on the paper's timing model. It
// replays the same adversarial multi-tenant workload through three
// arbiter configurations — uncontended (slots for everyone), the
// seed's FIFO airlock queue, and the weighted-fair queue with strict
// priority bands — and reports p50/p99 enclave acquire latency plus
// Jain's fairness index over per-tenant responsiveness.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"bolted/internal/core"
	"bolted/internal/obs"
	"bolted/internal/sim"
)

// simMetrics mirrors boltedd's scheduler instruments over the churn
// model — same metric names, same labels, sim-time observations — so
// the 10k-node run is scrapeable with the dashboards built for a live
// control plane. The zero value (no registry) no-ops.
type simMetrics struct {
	wait    map[core.SchedClass]*obs.Histogram
	grants  *obs.CounterVec
	attest  *obs.Histogram
	requote *obs.Histogram
}

func newSimMetrics(reg *obs.Registry) simMetrics {
	if reg == nil {
		return simMetrics{}
	}
	waitVec := reg.HistogramVec("bolted_sched_wait_seconds",
		"Airlock queue wait from enqueue to grant.", nil, "class")
	phaseVec := reg.HistogramVec("bolted_phase_seconds",
		"Per-node time in each Figure-1 lifecycle phase.", nil, "phase")
	return simMetrics{
		wait: map[core.SchedClass]*obs.Histogram{
			core.ClassForeground: waitVec.With(core.ClassForeground.String()),
			core.ClassBackground: waitVec.With(core.ClassBackground.String()),
		},
		grants: reg.CounterVec("bolted_sched_grants_total",
			"Airlock slots granted, by tenant.", "tenant"),
		attest:  phaseVec.With(core.PhaseAttest),
		requote: phaseVec.With(core.PhaseWarmRequote),
	}
}

// Churn workload shape: one 64-node hog in a closed acquire/hold/
// release loop against seven 2-node tenants with Poisson arrivals,
// plus a 256-standby warm pool re-quoting in the background and
// periodic revocation storms forcing replacement acquires.
const (
	schedNodes       = 10_000 // modeled free-node pool
	schedSlots       = 16     // contended airlock slots
	schedUncontended = 4_096  // "infinite" slots for the baseline run
	schedTenantsN    = 8
	schedHorizon     = 2 * time.Hour

	hogNodes = 64
	hogHold  = 60 * time.Second

	smallNodes   = 2
	smallArrival = 48 * time.Second  // mean Poisson interarrival per tenant
	smallHold    = 300 * time.Second // mean enclave lifetime

	bgStandbys   = 256
	requoteEvery = 120 * time.Second

	stormEvery  = 600 * time.Second
	stormPick   = 4 // every storm revokes one node from up to this many enclaves
	healDelay   = 60 * time.Second
	minEnclaves = 1_000 // acceptance floor for the full run
)

// Gates the CI build enforces on the WFQ run (-check).
const (
	gateJain     = 0.8
	gateP99Ratio = 3.0
)

// schedArbiter is the slot-granting discipline under test. Exactly one
// sim process runs at a time, so no locking.
type schedArbiter interface {
	acquire(p *sim.Proc, tenant string, class core.SchedClass)
	release()
	maxQueue() int
}

// fifoArbiter replays the seed's behavior: one flat FIFO queue,
// oblivious to tenant and class — a sim.Resource, plus the deepest
// queue it saw.
type fifoArbiter struct {
	slots *sim.Resource
	n     int
	maxQ  int
}

func newFIFOArbiter(s *sim.Sim, slots int) *fifoArbiter {
	return &fifoArbiter{slots: s.NewResource("airlock", slots), n: slots}
}

func (a *fifoArbiter) acquire(p *sim.Proc, _ string, _ core.SchedClass) {
	if a.slots.InUse() >= a.n || a.slots.Queued() > 0 {
		a.maxQ = max(a.maxQ, a.slots.Queued()+1) // this caller queues
	}
	p.Acquire(a.slots)
}

func (a *fifoArbiter) release() { a.slots.Release() }

func (a *fifoArbiter) maxQueue() int { return a.maxQ }

// wfqArbiter grants slots by the production scheduler's policy: the
// same core.FairQueue (virtual-time weighted-fair within strict
// priority bands) that internal/core uses, driving sim gates instead
// of goroutine channels.
type wfqArbiter struct {
	s     *sim.Sim
	slots int
	inUse int
	fq    *core.FairQueue
	gates map[uint64]*sim.Gate
	maxQ  int
}

func newWFQArbiter(s *sim.Sim, slots int) *wfqArbiter {
	return &wfqArbiter{s: s, slots: slots, fq: core.NewFairQueue(), gates: make(map[uint64]*sim.Gate)}
}

func (a *wfqArbiter) acquire(p *sim.Proc, tenant string, class core.SchedClass) {
	if a.inUse < a.slots && a.fq.Len() == 0 {
		a.inUse++
		return
	}
	id := a.fq.Push(tenant, class)
	g := a.s.NewGate()
	a.gates[id] = g
	if a.fq.Len() > a.maxQ {
		a.maxQ = a.fq.Len()
	}
	p.Wait(g)
}

func (a *wfqArbiter) release() {
	if id, _, ok := a.fq.Pop(); ok {
		g := a.gates[id]
		delete(a.gates, id)
		g.Open()
		return
	}
	a.inUse--
}

func (a *wfqArbiter) maxQueue() int { return a.maxQ }

// schedTenant accumulates one tenant's view of the run.
type schedTenant struct {
	name  string
	nodes int // nodes per enclave acquire
	lat   []float64
}

// activeEncl is a live enclave eligible for revocation storms.
type activeEncl struct {
	tenant *schedTenant
	nodes  int
}

// churnRun is one pass of the workload through one arbiter.
type churnRun struct {
	s   *sim.Sim
	arb schedArbiter
	m   simMetrics

	slots   int
	free    int
	peak    int
	nodeAcq int

	tenants []*schedTenant
	nextID  int
	active  map[int]*activeEncl

	bgGrants int
	bgWaited time.Duration
	storms   int
	replaced int
}

func (r *churnRun) takeNodes(n int) {
	if r.free < n {
		panic(fmt.Sprintf("sched: free-node pool exhausted (%d left, want %d)", r.free, n))
	}
	r.free -= n
	r.nodeAcq += n
	if used := schedNodes - r.free; used > r.peak {
		r.peak = used
	}
}

func (r *churnRun) releaseNodes(n int) { r.free += n }

// nodeAttest is the per-node provisioning cost on the paper's model:
// the airlock-serialized attestation slice, then the rest of the
// attest phase off-slot.
func (r *churnRun) nodeAttest(p *sim.Proc, t *schedTenant) {
	w0 := p.Now()
	r.arb.acquire(p, t.name, core.ClassForeground)
	r.m.wait[core.ClassForeground].Observe((p.Now() - w0).Seconds())
	r.m.grants.With(t.name).Inc()
	t0 := p.Now()
	p.Sleep(core.AirlockSerialDuration)
	r.arb.release()
	p.Sleep(core.AttestDuration)
	r.m.attest.Observe((p.Now() - t0).Seconds())
}

// enclaveAcquire provisions an n-node enclave: every node contends for
// an airlock slot in parallel, and the enclave is up when the last
// node finishes attestation.
func (r *churnRun) enclaveAcquire(p *sim.Proc, t *schedTenant, n int) {
	start := p.Now()
	r.takeNodes(n)
	wg := r.s.NewWaitGroup(n)
	for i := 0; i < n; i++ {
		r.s.Go(t.name+"-node", func(np *sim.Proc) {
			r.nodeAttest(np, t)
			wg.Done()
		})
	}
	p.WaitFor(wg)
	t.lat = append(t.lat, (p.Now() - start).Seconds())
}

func (r *churnRun) register(t *schedTenant, n int) int {
	id := r.nextID
	r.nextID++
	r.active[id] = &activeEncl{tenant: t, nodes: n}
	return id
}

func (r *churnRun) unregister(id int) int {
	e := r.active[id]
	delete(r.active, id)
	return e.nodes
}

// storm revokes one node from up to stormPick live enclaves: the
// revoked node heals back into the free pool after a delay while a
// replacement acquire re-enters the airlock queue — the guard plane's
// revocation-storm load on the scheduler.
func (r *churnRun) storm() {
	ids := make([]int, 0, len(r.active))
	for id := range r.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	r.s.Rand().Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > stormPick {
		ids = ids[:stormPick]
	}
	r.storms++
	for _, id := range ids {
		e := r.active[id]
		if e.nodes == 0 {
			continue
		}
		e.nodes--
		eid := id
		r.s.After(healDelay, func() { r.releaseNodes(1) })
		r.s.Go(e.tenant.name+"-heal", func(p *sim.Proc) {
			r.takeNodes(1)
			r.nodeAttest(p, e.tenant)
			r.replaced++
			if cur, ok := r.active[eid]; ok {
				cur.nodes++
			} else {
				r.releaseNodes(1) // enclave ended mid-replacement
			}
		})
	}
}

// runChurn drives the full workload through one arbiter and returns
// the populated run. A non-nil reg records the run's scheduler metrics
// under boltedd's metric names (sim-time observations).
func runChurn(mkArb func(*sim.Sim, int) schedArbiter, slots int, reg *obs.Registry) *churnRun {
	s := sim.New(7) // fixed seed: identical arrivals across arbiters
	r := &churnRun{
		s:      s,
		arb:    mkArb(s, slots),
		m:      newSimMetrics(reg),
		slots:  slots,
		free:   schedNodes,
		active: make(map[int]*activeEncl),
	}
	expDur := func(mean time.Duration) time.Duration {
		return time.Duration(s.Rand().ExpFloat64() * float64(mean))
	}

	hog := &schedTenant{name: "hog", nodes: hogNodes}
	r.tenants = append(r.tenants, hog)
	s.Go("hog", func(p *sim.Proc) {
		for p.Now() < schedHorizon {
			r.enclaveAcquire(p, hog, hogNodes)
			id := r.register(hog, hogNodes)
			p.Sleep(hogHold)
			r.releaseNodes(r.unregister(id))
		}
	})

	for i := 1; i < schedTenantsN; i++ {
		t := &schedTenant{name: fmt.Sprintf("t%d", i), nodes: smallNodes}
		r.tenants = append(r.tenants, t)
		s.Go(t.name, func(p *sim.Proc) {
			for {
				p.Sleep(expDur(smallArrival))
				if p.Now() >= schedHorizon {
					return
				}
				s.Go(t.name+"-encl", func(ep *sim.Proc) {
					r.enclaveAcquire(ep, t, smallNodes)
					id := r.register(t, smallNodes)
					ep.Sleep(expDur(smallHold))
					r.releaseNodes(r.unregister(id))
				})
			}
		})
	}

	// The warm pool's periodic re-quotes ride the background band:
	// under FIFO they cut ahead of tenants; under WFQ they only run
	// when no foreground acquire is queued.
	for i := 0; i < bgStandbys; i++ {
		s.Go(fmt.Sprintf("standby-%d", i), func(p *sim.Proc) {
			p.Sleep(expDur(requoteEvery)) // de-synchronize the fleet
			for p.Now() < schedHorizon {
				w0 := p.Now()
				r.arb.acquire(p, "pool", core.ClassBackground)
				r.m.wait[core.ClassBackground].Observe((p.Now() - w0).Seconds())
				r.m.grants.With("pool").Inc()
				r.bgWaited += p.Now() - w0
				p.Sleep(core.WarmRequoteDuration)
				r.arb.release()
				r.m.requote.Observe(core.WarmRequoteDuration.Seconds())
				r.bgGrants++
				p.Sleep(requoteEvery)
			}
		})
	}

	var schedStorm func()
	schedStorm = func() {
		if s.Now() >= schedHorizon {
			return
		}
		r.storm()
		s.After(stormEvery, schedStorm)
	}
	s.After(stormEvery, schedStorm)

	s.Run()
	return r
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// idealLatency is the no-contention acquire time for an n-node enclave
// on this many slots: pipelined airlock waves plus the attest tail.
func idealLatency(n, slots int) float64 {
	waves := (n + slots - 1) / slots
	return (time.Duration(waves)*core.AirlockSerialDuration + core.AttestDuration).Seconds()
}

// jainIndex is (Σx)² / (n·Σx²): 1.0 when every tenant is equally well
// served, 1/n when one tenant gets everything.
func jainIndex(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// schedRunReport is one arbiter's measured outcome (the wire form in
// BENCH_sched.json).
type schedRunReport struct {
	Arbiter   string  `json:"arbiter"`
	Enclaves  int     `json:"enclaves"`
	NodeAcqs  int     `json:"node_acquires"`
	PeakNodes int     `json:"peak_nodes"`
	P50       float64 `json:"p50_s"`
	P99       float64 `json:"p99_s"`
	Jain      float64 `json:"jain"`
	MaxQueue  int     `json:"max_queue"`
	BgGrants  int     `json:"bg_requotes"`
	Storms    int     `json:"storms"`
	Replaced  int     `json:"replaced_nodes"`
}

func (r *churnRun) report(name string) schedRunReport {
	var all []float64
	var resp []float64
	for _, t := range r.tenants {
		all = append(all, t.lat...)
		if len(t.lat) == 0 {
			continue
		}
		var mean float64
		for _, l := range t.lat {
			mean += l
		}
		mean /= float64(len(t.lat))
		// Responsiveness = ideal/actual (inverse slowdown), so a
		// tenant's own batch pipelining doesn't read as unfairness.
		resp = append(resp, idealLatency(t.nodes, r.slots)/mean)
	}
	return schedRunReport{
		Arbiter:   name,
		Enclaves:  len(all),
		NodeAcqs:  r.nodeAcq,
		PeakNodes: r.peak,
		P50:       quantile(all, 0.50),
		P99:       quantile(all, 0.99),
		Jain:      jainIndex(resp),
		MaxQueue:  r.arb.maxQueue(),
		BgGrants:  r.bgGrants,
		Storms:    r.storms,
		Replaced:  r.replaced,
	}
}

// schedBench is the whole benchmark document written to
// BENCH_sched.json and gated by CI.
type schedBench struct {
	Bench       string           `json:"bench"`
	Nodes       int              `json:"nodes"`
	Slots       int              `json:"slots"`
	Tenants     int              `json:"tenants"`
	HorizonS    float64          `json:"horizon_s"`
	Runs        []schedRunReport `json:"runs"`
	P99Ratio    float64          `json:"p99_ratio"`
	GateJain    float64          `json:"gate_jain"`
	GateP99Rat  float64          `json:"gate_p99_ratio"`
	MinEnclaves int              `json:"min_enclaves"`
	Pass        bool             `json:"pass"`
}

func figSched(bool) {
	header("Scheduler churn: WFQ airlocks vs FIFO under adversarial multi-tenant load")
	fmt.Printf("%d-node cloud, %d airlock slots, %d tenants (1x%d-node hog + 7x%d-node), %s horizon\n",
		schedNodes, schedSlots, schedTenantsN, hogNodes, smallNodes, schedHorizon)
	fmt.Printf("background: %d warm standbys re-quoting every ~%s; revocation storm every %s\n",
		bgStandbys, requoteEvery, stormEvery)

	// Only the production-policy run (WFQ, contended) records metrics:
	// that is the configuration a live boltedd schedules with.
	var reg *obs.Registry
	if schedMetricsOut != "" {
		reg = obs.NewRegistry()
	}
	runs := []schedRunReport{
		runChurn(func(s *sim.Sim, n int) schedArbiter { return newWFQArbiter(s, n) }, schedUncontended, nil).report("uncontended"),
		runChurn(func(s *sim.Sim, n int) schedArbiter { return newFIFOArbiter(s, n) }, schedSlots, nil).report("fifo"),
		runChurn(func(s *sim.Sim, n int) schedArbiter { return newWFQArbiter(s, n) }, schedSlots, reg).report("wfq"),
	}
	unc, fifo, wfq := runs[0], runs[1], runs[2]

	fmt.Printf("%-12s %9s %9s %9s %7s %7s %9s %7s\n",
		"arbiter", "enclaves", "p50(s)", "p99(s)", "jain", "maxq", "requotes", "nodes")
	for _, r := range runs {
		fmt.Printf("%-12s %9d %9.1f %9.1f %7.3f %7d %9d %7d\n",
			r.Arbiter, r.Enclaves, r.P50, r.P99, r.Jain, r.MaxQueue, r.BgGrants, r.NodeAcqs)
	}

	ratio := math.Inf(1)
	if unc.P99 > 0 {
		ratio = wfq.P99 / unc.P99
	}
	pass := wfq.Jain >= gateJain && ratio <= gateP99Ratio && wfq.Enclaves >= minEnclaves
	fmt.Printf("contended/uncontended p99 ratio: %.2fx (gate <= %.1fx); wfq jain %.3f (gate >= %.1f)\n",
		ratio, gateP99Ratio, wfq.Jain, gateJain)
	fmt.Printf("fifo contrast: p99 %.1fs jain %.3f -> wfq p99 %.1fs jain %.3f\n",
		fifo.P99, fifo.Jain, wfq.P99, wfq.Jain)
	fmt.Printf("gates: %s\n", map[bool]string{true: "PASS", false: "FAIL"}[pass])

	doc := schedBench{
		Bench:       "sched",
		Nodes:       schedNodes,
		Slots:       schedSlots,
		Tenants:     schedTenantsN,
		HorizonS:    schedHorizon.Seconds(),
		Runs:        runs,
		P99Ratio:    ratio,
		GateJain:    gateJain,
		GateP99Rat:  gateP99Ratio,
		MinEnclaves: minEnclaves,
		Pass:        pass,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	b = append(b, '\n')
	out := benchOut
	if out == "" {
		out = "BENCH_sched.json"
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "boltedsim: write %s: %v\n", out, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	if reg != nil {
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			panic(err)
		}
		if err := os.WriteFile(schedMetricsOut, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "boltedsim: write %s: %v\n", schedMetricsOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (Prometheus exposition of the wfq run)\n", schedMetricsOut)
	}
	if benchCheck && !pass {
		fmt.Fprintln(os.Stderr, "boltedsim: sched gates failed")
		os.Exit(1)
	}
}
