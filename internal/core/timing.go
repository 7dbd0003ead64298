package core

import (
	"fmt"
	"hash/fnv"
	"time"

	"bolted/internal/ceph"
	"bolted/internal/firmware"
	"bolted/internal/sim"
	"bolted/internal/tpm"
)

// This file is the discrete-event timing model behind Figures 4 and 5:
// the functional packages define WHAT happens during provisioning; this
// model charges HOW LONG each phase takes, calibrated to the paper's
// R630/M620 testbed (UEFI POST ≈ 4 min, LinuxBoot ≈ 40 s, TPM quote
// latency, a 27-spindle Ceph pool, and a single-airlock attestation
// bottleneck).

// SecurityLevel is the Figure-4 x-axis: none, attested, or fully
// encrypted (attested + LUKS + IPsec).
type SecurityLevel int

// Security levels.
const (
	SecNone SecurityLevel = iota
	SecAttested
	SecFull
)

func (s SecurityLevel) String() string {
	switch s {
	case SecNone:
		return "no-attestation"
	case SecAttested:
		return "attestation"
	case SecFull:
		return "full-attestation"
	default:
		return fmt.Sprintf("security(%d)", int(s))
	}
}

// Phase durations calibrated to the paper's Figure 4 breakdown.
const (
	phasePXE         = 8 * time.Second  // PXE downloads iPXE
	phaseIPXEFetch   = 20 * time.Second // iPXE downloads the Heads runtime
	phaseRuntimeBoot = 25 * time.Second // booting the LinuxBoot runtime
	phaseAgentFetch  = 5 * time.Second  // download Keylime agent over HTTP
	// phaseAttest covers agent registration, TPM quote, verifier checks
	// and the encrypted kernel/initrd delivery.
	phaseAttest = 45 * time.Second
	// airlockSerial is the portion of attestation serialized by an
	// airlock (§7.3 concurrency limitation: the prototype had exactly
	// one; ProvisionConfig.Airlocks — fed from PoolPolicy.Airlocks via
	// WithPool — sets how many run in parallel).
	airlockSerial = 12 * time.Second
	// phaseWarmRequote is the warm fast path's attestation cost: the
	// agent is already registered and the runtime pre-attested, so only
	// a fresh-nonce quote, its verification and the tenant payload
	// release remain. Compare phaseAttest (45 s) for the cold chain.
	phaseWarmRequote = 5 * time.Second
	// phaseKernelFetch replaces attestation for security-insensitive
	// tenants: plain download of kernel+initrd.
	phaseKernelFetch = 15 * time.Second
	phaseHILMove     = 10 * time.Second // switch reprogramming out of the airlock
	phaseKexecBoot   = 40 * time.Second // kexec + kernel/userspace init (excl. storage I/O)
	// phaseCryptoSetup is SecFull's extra steps: load LUKS key, unlock
	// the volume, establish the IPsec tunnel.
	phaseCryptoSetup = 10 * time.Second

	// Exported mirrors of the timing model for external simulators
	// (cmd/boltedsim's scheduler churn model reuses the calibrated
	// costs instead of inventing its own).
	AirlockSerialDuration = airlockSerial
	AttestDuration        = phaseAttest
	WarmRequoteDuration   = phaseWarmRequote

	// Boot-time storage traffic served by the Ceph pool: first-boot
	// page-ins of the root filesystem, services and first workload
	// warm-up.
	bootIOBytes = 2500 << 20
	// bootIOStreams is the node's read-ahead concurrency against the
	// pool (8 MiB read-ahead keeps ~4 object requests in flight).
	bootIOStreams = 4
	// fullIOSlowdown stretches storage time when the iSCSI path runs
	// over IPsec (Figure 3c: major impact on the remote disk).
	fullIOSlowdown = 1.67

	// Foreman baseline: stateful install copies the whole image to the
	// local disk, then reboots (second POST).
	foremanInstallerBoot = 40 * time.Second
	foremanImageBytes    = 3 << 30
	foremanLocalBoot     = 30 * time.Second
)

// ProvisionConfig selects one Figure-4 bar or Figure-5 point.
type ProvisionConfig struct {
	Firmware    FirmwareKind
	Security    SecurityLevel
	Foreman     bool // baseline provisioner (ignores Security)
	Concurrency int  // nodes provisioned in parallel (Figure 5)
	// Airlocks is the number of parallel attestation airlocks
	// (prototype limitation: 1; the ablation bench raises it). Use
	// WithPool so the model and the real provisioner share one source
	// of truth.
	Airlocks int
	// WarmPool is how many of the batch's nodes are served from a warm
	// pool of pre-attested standbys: those nodes charge only the
	// re-quote, the HIL move and the kexec, while the remainder runs
	// the full cold chain — mirroring AcquireNodes, which drains the
	// pool first and falls back cold. (Ignored under Foreman, whose
	// stateful install cannot park standbys.)
	WarmPool int

	// Infrastructure sizing (defaults: the paper's pool).
	OSDs           int
	SpindlesPerOSD int

	// Resilience is the retry policy the fault model charges when
	// FaultRate > 0 (zero fields take DefaultResiliencePolicy values) —
	// the same policy shape the real provisioner runs under.
	Resilience ResiliencePolicy
	// FaultRate is the per-attempt transient-fault probability the
	// timing model injects into service-facing phases (0 disables).
	// Faulted attempts charge the failed call plus the retry backoff,
	// which is how injected faults surface as p99 latency rather than
	// failures while the retry budget holds.
	FaultRate float64
	// Seed keys the model's deterministic fault draws: same seed, same
	// config, same timeline.
	Seed int64
}

// DefaultProvisionConfig returns a single-node LinuxBoot attested boot
// on the paper's infrastructure.
func DefaultProvisionConfig() ProvisionConfig {
	return ProvisionConfig{
		Firmware:       FirmwareLinuxBoot,
		Security:       SecAttested,
		Concurrency:    1,
		Airlocks:       1,
		OSDs:           3,
		SpindlesPerOSD: 9,
	}
}

// Canonical life-cycle phase names, the vocabulary shared by the real
// provisioner (Enclave.AcquireNodes reports BatchTimings keyed by these)
// and the discrete-event simulation (every simulated Phase carries one
// as its Group), so measured and simulated breakdowns line up. The
// warm-path phases charge only what a pre-attested standby still owes:
// re-quote, HIL move, kexec.
const (
	PhaseAirlock   = "airlock"   // HIL reservation + airlock wiring
	PhaseBoot      = "boot"      // power-on, firmware, agent registration
	PhaseAttest    = "attest"    // quote, verification, payload release
	PhaseProvision = "provision" // network move, volume, crypto, kexec

	PhaseWarmRefill    = "warm-refill"    // background standby boot (refiller failures report it)
	PhaseWarmRequote   = "warm-requote"   // fresh-nonce quote + tenant payload release
	PhaseWarmProvision = "warm-provision" // HIL move, volume, crypto, kexec off a standby
)

// faultRetryCost is the modeled cost of one failed service call inside
// a phase: the time a connect or request burns before its transient
// error surfaces to the retry loop.
const faultRetryCost = 2 * time.Second

// faultPenalty is the deterministic extra latency the fault model adds
// to one node's phase. A keyed hash of (seed, node, phase, attempt)
// decides how many consecutive attempts fault — mirroring
// internal/fault's per-attempt counter walk — and each faulted attempt
// charges the failed call plus the expectation of the capped
// full-jitter backoff (3/4 of the exponential delay), keeping the model
// deterministic while matching the real retry loop's shape.
func (cfg ProvisionConfig) faultPenalty(node int, phase string) time.Duration {
	if cfg.FaultRate <= 0 {
		return 0
	}
	pol := cfg.Resilience.withDefaults()
	var d time.Duration
	for attempt := 1; attempt < pol.MaxAttempts; attempt++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d\x00%d\x00%s\x00%d", cfg.Seed, node, phase, attempt)
		if float64(h.Sum64()>>11)/float64(1<<53) >= cfg.FaultRate {
			break
		}
		d += faultRetryCost + backoffCeiling(pol.RetryBackoff, pol.BackoffCap, attempt)*3/4
	}
	return d
}

// WithPool applies the warm-pool configuration to the timing model:
// the airlock count and warm-path eligibility both come from the same
// PoolPolicy the real provisioner runs under, so simulated and
// measured pipelines agree by construction.
func (cfg ProvisionConfig) WithPool(p PoolPolicy) ProvisionConfig {
	p = p.withDefaults()
	cfg.Airlocks = p.Airlocks
	cfg.WarmPool = p.Target
	return cfg
}

// Phase is one step of a provisioning timeline. Group is the canonical
// phase (PhaseAirlock, PhaseBoot, PhaseAttest, PhaseProvision) the step
// belongs to; Name is the fine-grained label shown in Figure-4 stacks.
type Phase struct {
	Name     string
	Group    string
	Duration time.Duration
}

// PhaseTiming aggregates one canonical phase across a provisioning
// batch: how many nodes went through it, the summed per-node time, and
// the slowest node (the phase's contribution to batch wall-clock).
type PhaseTiming struct {
	Phase string
	Nodes int
	Total time.Duration
	Max   time.Duration
}

// BatchTimings is the real path's counterpart of ProvisionResult: the
// per-phase breakdown of one AcquireNodes batch, in canonical phase
// order, plus the batch's end-to-end wall-clock.
type BatchTimings struct {
	Wall   time.Duration
	Phases []PhaseTiming
}

// ByPhase returns the aggregate for one canonical phase (zero value if
// the batch never entered it).
func (b *BatchTimings) ByPhase(name string) PhaseTiming {
	for _, p := range b.Phases {
		if p.Phase == name {
			return p
		}
	}
	return PhaseTiming{Phase: name}
}

// observe folds one node's time in a phase into the aggregate.
func (b *BatchTimings) observe(phase string, d time.Duration) {
	for i := range b.Phases {
		if b.Phases[i].Phase == phase {
			b.Phases[i].Nodes++
			b.Phases[i].Total += d
			if d > b.Phases[i].Max {
				b.Phases[i].Max = d
			}
			return
		}
	}
	b.Phases = append(b.Phases, PhaseTiming{Phase: phase, Nodes: 1, Total: d, Max: d})
}

// ProvisionResult is the simulation output.
type ProvisionResult struct {
	Config ProvisionConfig
	// Phases is node 0's timeline (the Figure-4 stack).
	Phases []Phase
	// PerNode is each node's completion time (Figure 5 uses the max).
	PerNode []time.Duration
	// Makespan is the time until every node is provisioned.
	Makespan time.Duration
}

// Total returns the sum of node 0's phases.
func (r *ProvisionResult) Total() time.Duration {
	var t time.Duration
	for _, p := range r.Phases {
		t += p.Duration
	}
	return t
}

// ByGroup sums node 0's timeline per canonical phase, for comparison
// with a real batch's BatchTimings.
func (r *ProvisionResult) ByGroup() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, p := range r.Phases {
		out[p.Group] += p.Duration
	}
	return out
}

// SimulateProvisioning runs the boot timeline for cfg.Concurrency nodes
// and returns per-node times and the phase breakdown.
func SimulateProvisioning(cfg ProvisionConfig) *ProvisionResult {
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 1
	}
	if cfg.Airlocks < 1 {
		cfg.Airlocks = 1
	}
	if cfg.OSDs < 1 {
		cfg.OSDs = 3
	}
	if cfg.SpindlesPerOSD < 1 {
		cfg.SpindlesPerOSD = 9
	}
	s := sim.New(42)
	cluster, err := ceph.NewCluster(cfg.OSDs, 1)
	if err != nil {
		panic(err)
	}
	backend := ceph.NewSimBackend(s, cluster, cfg.SpindlesPerOSD)
	// Effective per-spindle rate for boot-pattern I/O (mixed random
	// reads): far below streaming rate.
	backend.SeekTime = 8 * time.Millisecond
	backend.SpindleBandwidthBps = 20e6 * 8

	airlock := s.NewResource("airlock", cfg.Airlocks)
	res := &ProvisionResult{
		Config:  cfg,
		PerNode: make([]time.Duration, cfg.Concurrency),
	}

	for i := 0; i < cfg.Concurrency; i++ {
		i := i
		s.Go(fmt.Sprintf("node%02d", i), func(p *sim.Proc) {
			var phases []Phase
			step := func(name, group string, d time.Duration) {
				d += cfg.faultPenalty(i, group+"/"+name)
				p.Sleep(d)
				phases = append(phases, Phase{name, group, d})
			}
			stepIO := func(name, group string, bytes int64, slowdown float64) {
				start := p.Now()
				demand := int64(float64(bytes) * slowdown)
				wg := p.Sim().NewWaitGroup(bootIOStreams)
				for st := 0; st < bootIOStreams; st++ {
					prefix := fmt.Sprintf("boot-%d-%d", i, st)
					p.Sim().Go("io", func(c *sim.Proc) {
						backend.ChargeImageRead(c, prefix, demand/bootIOStreams)
						wg.Done()
					})
				}
				p.WaitFor(wg)
				phases = append(phases, Phase{name, group, p.Now() - start})
			}

			if cfg.Foreman {
				step("POST (UEFI)", PhaseBoot, firmware.UEFIPOSTTime)
				step("PXE", PhaseBoot, phasePXE)
				step("installer boot", PhaseBoot, foremanInstallerBoot)
				// Full image copy to local disk, one sequential stream.
				start := p.Now()
				backend.ChargeImageRead(p, fmt.Sprintf("foreman-%d", i), foremanImageBytes)
				phases = append(phases, Phase{"copy image to local disk", PhaseProvision, p.Now() - start})
				step("POST again (reboot)", PhaseBoot, firmware.UEFIPOSTTime)
				step("local boot", PhaseProvision, foremanLocalBoot)
			} else if i < cfg.WarmPool {
				// Warm fast path — this node is one of the standbys the
				// pool can supply (nodes beyond WarmPool run the cold
				// chain below, like AcquireNodes' fallback). It sat
				// parked in the attested Heads runtime, so the
				// POST/PXE/iPXE/agent chain was paid by the background
				// refiller, not this acquisition. Only the re-quote
				// (serialized through an airlock slot), the HIL move
				// and the kexec remain.
				if cfg.Security >= SecAttested {
					start := p.Now()
					p.Acquire(airlock)
					p.Sleep(phaseWarmRequote + cfg.faultPenalty(i, PhaseWarmRequote))
					airlock.Release()
					phases = append(phases, Phase{"warm re-quote + payload release", PhaseWarmRequote, p.Now() - start})
				} else {
					step("fetch tenant kernel", PhaseWarmProvision, phaseKernelFetch)
				}
				step("move to tenant network (HIL)", PhaseWarmProvision, phaseHILMove)
				if cfg.Security == SecFull {
					step("LUKS unlock + IPsec tunnel", PhaseWarmProvision, phaseCryptoSetup)
				}
				step("kexec + kernel init", PhaseWarmProvision, phaseKexecBoot)
				slow := 1.0
				if cfg.Security == SecFull {
					slow = fullIOSlowdown
				}
				stepIO("boot I/O (network storage)", PhaseWarmProvision, bootIOBytes, slow)
			} else {
				if cfg.Firmware == FirmwareUEFI {
					step("POST (UEFI)", PhaseBoot, firmware.UEFIPOSTTime)
					step("PXE -> iPXE", PhaseBoot, phasePXE)
					step("iPXE downloads Heads", PhaseBoot, phaseIPXEFetch)
					step("boot LinuxBoot runtime", PhaseBoot, phaseRuntimeBoot)
				} else {
					step("POST (LinuxBoot)", PhaseBoot, firmware.LinuxBootPOSTTime)
				}
				if cfg.Security >= SecAttested {
					step("download Keylime agent", PhaseBoot, phaseAgentFetch)
					// Registration, quote and verification; a slice of
					// it is serialized by the single airlock.
					start := p.Now()
					p.Sleep(phaseAttest - airlockSerial - tpm.QuoteLatency + cfg.faultPenalty(i, PhaseAttest))
					p.Sleep(tpm.QuoteLatency)
					p.Acquire(airlock)
					p.Sleep(airlockSerial)
					airlock.Release()
					phases = append(phases, Phase{"register + attest", PhaseAttest, p.Now() - start})
				} else {
					step("fetch tenant kernel", PhaseProvision, phaseKernelFetch)
				}
				step("move to tenant network (HIL)", PhaseProvision, phaseHILMove)
				if cfg.Security == SecFull {
					step("LUKS unlock + IPsec tunnel", PhaseProvision, phaseCryptoSetup)
				}
				step("kexec + kernel init", PhaseProvision, phaseKexecBoot)
				slow := 1.0
				if cfg.Security == SecFull {
					slow = fullIOSlowdown
				}
				stepIO("boot I/O (network storage)", PhaseProvision, bootIOBytes, slow)
			}

			res.PerNode[i] = p.Now()
			if i == 0 {
				res.Phases = phases
			}
		})
	}
	res.Makespan = s.Run()
	return res
}
