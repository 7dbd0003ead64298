package core

import (
	"time"

	"bolted/internal/obs"
)

// This file pre-resolves every core-layer instrument against an
// obs.Registry once, so hot paths (scheduler grants, pool takes,
// per-node phases) touch only lock-free atomics — never the registry's
// name→family map. A cloud without a registry carries a cloudMetrics
// whose instruments are all nil; obs instruments are nil-safe, so the
// uninstrumented path costs one nil check per observation and no call
// site ever guards on "is metrics enabled".

// cloudMetrics holds the cloud-scoped instruments. Always non-nil on a
// Cloud; all fields nil when no registry is attached.
type cloudMetrics struct {
	registry *obs.Registry

	// Per-phase pipeline latency, same vocabulary as BatchTimings.
	phase map[string]*obs.Histogram

	// Scheduler (sched.go).
	schedWait    map[SchedClass]*obs.Histogram
	schedGrants  *obs.CounterVec // tenant
	schedQueued  *obs.GaugeVec   // tenant
	schedInUse   *obs.Gauge
	schedPreempt *obs.Counter

	// Admission control (manager.go): ErrOverQuota rejections, the
	// server side of every /v1 429.
	quotaRejections *obs.CounterVec // tenant

	// Incidents (incident.go).
	incidentSteps          *obs.HistogramVec // step
	incidentsClosed        *obs.CounterVec   // state
	incidentSeconds        *obs.Histogram
	recoveryReplaySeconds  *obs.Gauge
	recoveryReadoptSeconds *obs.Gauge
	recoveredEnclave       *obs.Gauge

	// Resilience (resilience.go, breaker.go).
	retries        *obs.CounterVec // backend: transient failures retried
	retryExhausted *obs.CounterVec // backend: attempt budgets exhausted
	breakerTrips   *obs.CounterVec // backend
	breakerState   *obs.GaugeVec   // backend: 0 closed, 1 half-open, 2 open
	degradedFails  *obs.Counter    // calls failed fast with ErrDegraded
	phaseDeadline  *obs.Counter    // phases that hit their deadline
}

// newCloudMetrics resolves the cloud-scoped instruments (all nil when
// reg is nil).
func newCloudMetrics(reg *obs.Registry) *cloudMetrics {
	cm := &cloudMetrics{registry: reg}
	if reg == nil {
		return cm
	}
	phases := []string{PhaseAirlock, PhaseBoot, PhaseAttest, PhaseProvision, PhaseWarmRefill, PhaseWarmRequote, PhaseWarmProvision}
	phaseVec := reg.HistogramVec("bolted_phase_seconds", "Per-node time in each Figure-1 lifecycle phase.", nil, "phase")
	cm.phase = make(map[string]*obs.Histogram, len(phases))
	for _, p := range phases {
		cm.phase[p] = phaseVec.With(p)
	}
	waitVec := reg.HistogramVec("bolted_sched_wait_seconds", "Airlock queue wait from enqueue to grant.", nil, "class")
	cm.schedWait = map[SchedClass]*obs.Histogram{
		ClassForeground: waitVec.With(ClassForeground.String()),
		ClassBackground: waitVec.With(ClassBackground.String()),
	}
	cm.schedGrants = reg.CounterVec("bolted_sched_grants_total", "Airlock slots granted, by tenant.", "tenant")
	cm.schedQueued = reg.GaugeVec("bolted_sched_queue_depth", "Requests waiting for an airlock slot, by tenant.", "tenant")
	cm.schedInUse = reg.Gauge("bolted_sched_slots_in_use", "Airlock slots currently held.")
	cm.schedPreempt = reg.Counter("bolted_sched_preemptions_total", "Background airlock holders preempted by foreground work.")
	cm.quotaRejections = reg.CounterVec("bolted_quota_rejections_total", "Acquisitions rejected over quota or backpressure (the /v1 429s).", "tenant")
	cm.incidentSteps = reg.HistogramVec("bolted_incident_step_seconds", "Time between consecutive incident response steps.", nil, "step")
	cm.incidentsClosed = reg.CounterVec("bolted_incidents_closed_total", "Incidents reaching a terminal state.", "state")
	cm.incidentSeconds = reg.Histogram("bolted_incident_seconds", "Incident open-to-close duration.", nil)
	cm.recoveryReplaySeconds = reg.Gauge("bolted_recovery_replay_seconds", "Log replay in the last crash recovery: snapshot and WAL load, decode, fold, registries rebuilt.")
	cm.recoveryReadoptSeconds = reg.Gauge("bolted_recovery_readopt_seconds", "Re-adoption in the last crash recovery: enclaves rebuilt, every recorded node re-quoted.")
	cm.recoveredEnclave = reg.Gauge("bolted_recovery_enclaves", "Enclaves rebuilt by the last crash recovery.")
	cm.retries = reg.CounterVec("bolted_retries_total", "Transient backend failures absorbed by the resilience retry loop.", "backend")
	cm.retryExhausted = reg.CounterVec("bolted_retry_exhausted_total", "Backend calls that failed every attempt in the retry budget.", "backend")
	cm.breakerTrips = reg.CounterVec("bolted_breaker_trips_total", "Circuit-breaker trips into the open state.", "backend")
	cm.breakerState = reg.GaugeVec("bolted_breaker_state", "Circuit-breaker state: 0 closed, 1 half-open, 2 open.", "backend")
	cm.degradedFails = reg.Counter("bolted_degraded_failfast_total", "Calls rejected fast with ErrDegraded while a breaker was open.")
	cm.phaseDeadline = reg.Counter("bolted_phase_deadline_total", "Lifecycle phases aborted by their ResiliencePolicy deadline.")
	return cm
}

// incRetry, incRetryExhausted, incBreakerTrip, setBreakerState and
// incDegradedFail fold resilience events into the instruments; all are
// nil-safe no-ops on an uninstrumented cloud.
func (cm *cloudMetrics) incRetry(backend string)          { cm.retries.With(backend).Inc() }
func (cm *cloudMetrics) incRetryExhausted(backend string) { cm.retryExhausted.With(backend).Inc() }
func (cm *cloudMetrics) incBreakerTrip(backend string)    { cm.breakerTrips.With(backend).Inc() }
func (cm *cloudMetrics) incDegradedFail()                 { cm.degradedFails.Inc() }

func (cm *cloudMetrics) setBreakerState(backend string, st BreakerState) {
	var v float64
	switch st {
	case BreakerHalfOpen:
		v = 1
	case BreakerOpen:
		v = 2
	}
	cm.breakerState.With(backend).Set(v)
}

// schedMetrics is the Scheduler's slice of the cloud instruments.
type schedMetrics struct {
	wait    map[SchedClass]*obs.Histogram
	grants  *obs.CounterVec
	queued  *obs.GaugeVec
	inUse   *obs.Gauge
	preempt *obs.Counter
}

func (cm *cloudMetrics) sched() schedMetrics {
	return schedMetrics{
		wait:    cm.schedWait,
		grants:  cm.schedGrants,
		queued:  cm.schedQueued,
		inUse:   cm.schedInUse,
		preempt: cm.schedPreempt,
	}
}

// poolMetrics is one warm pool's instrument set, labeled by enclave.
// The zero value (no registry) is a valid no-op set.
type poolMetrics struct {
	warm          *obs.Gauge
	hits          *obs.Counter
	misses        *obs.Counter
	drained       *obs.Counter
	rejected      *obs.Counter
	refillSeconds *obs.Histogram
	refillFails   *obs.Counter
}

func (cm *cloudMetrics) pool(enclave string) poolMetrics {
	reg := cm.registry
	if reg == nil {
		return poolMetrics{}
	}
	return poolMetrics{
		warm:          reg.GaugeVec("bolted_pool_warm", "Standbys parked ready in the warm pool.", "enclave").With(enclave),
		hits:          reg.CounterVec("bolted_pool_hits_total", "Acquisition slots served from the warm pool.", "enclave").With(enclave),
		misses:        reg.CounterVec("bolted_pool_misses_total", "Acquisition slots that fell back to the cold path.", "enclave").With(enclave),
		drained:       reg.CounterVec("bolted_pool_drained_total", "Standbys released back to the free pool.", "enclave").With(enclave),
		rejected:      reg.CounterVec("bolted_pool_rejected_total", "Standbys quarantined or failed during refill.", "enclave").With(enclave),
		refillSeconds: reg.HistogramVec("bolted_pool_refill_seconds", "Warm-boot latency of successful refills.", nil, "enclave").With(enclave),
		refillFails:   reg.CounterVec("bolted_pool_refill_failures_total", "Refill attempts that found no node or failed (feeds the backoff).", "enclave").With(enclave),
	}
}

// observeIncident folds one incident-status update into the incident
// instruments: the latest step's latency (measured from the previous
// step, or from detection for the first), and on a terminal state the
// closed counter and open-to-close duration.
func (cm *cloudMetrics) observeIncident(st IncidentStatus) {
	if cm.registry == nil {
		return
	}
	if n := len(st.Steps); n > 0 {
		last := st.Steps[n-1]
		prev := st.Opened
		if n > 1 {
			prev = st.Steps[n-2].At
		}
		cm.incidentSteps.With(last.Name).Observe(last.At.Sub(prev).Seconds())
	}
	if st.State.Terminal() && !st.Closed.IsZero() {
		cm.incidentsClosed.With(string(st.State)).Inc()
		cm.incidentSeconds.Observe(st.Closed.Sub(st.Opened).Seconds())
	}
}

// observePhase records one node-phase duration (provisioner and warm
// refiller call it with the canonical phase names).
func (cm *cloudMetrics) observePhase(phase string, d time.Duration) {
	cm.phase[phase].Observe(d.Seconds())
}
