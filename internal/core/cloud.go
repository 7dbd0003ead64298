// Package core is Bolted's orchestration layer — the paper's primary
// contribution (§4): user-controlled scripts that compose the four
// independent services (HIL isolation, BMI provisioning, Keylime
// attestation, LinuxBoot firmware) into secure bare-metal enclaves,
// taking each server through the free → airlock → allocated/rejected
// life cycle of Figure 1, under a tenant-chosen security profile.
package core

import (
	"context"
	"fmt"
	"sync"

	"bolted/internal/bmi"
	"bolted/internal/ceph"
	"bolted/internal/firmware"
	"bolted/internal/hil"
	"bolted/internal/keylime"
	"bolted/internal/netsim"
	"bolted/internal/obs"
	"bolted/internal/tpm"
)

// FirmwareKind selects what is burned into node flash.
type FirmwareKind string

// Firmware kinds.
const (
	FirmwareUEFI      FirmwareKind = "uefi"      // stock vendor firmware; LinuxBoot runtime network-booted
	FirmwareLinuxBoot FirmwareKind = "linuxboot" // LinuxBoot burned into SPI flash
)

// Provider public networks every cloud exposes.
const (
	NetAttestation  = "attestation"
	NetProvisioning = "provisioning"
)

// Service host switch ports.
const (
	PortBMI       = "svc-bmi"
	PortRegistrar = "svc-registrar"
	PortVerifier  = "svc-verifier" // provider-deployed verifier (Bob)
)

// MetadataPlatformPCR is the HIL metadata key for the provider-published
// platform PCR whitelist entry (hex digest of PCRPlatform after clean
// boot).
const MetadataPlatformPCR = "platform_pcr0"

// MetadataPlatformGen is the HIL metadata key for the node's platform
// generation (needed to reproduce the vendor PEI/ACM measurement).
const MetadataPlatformGen = "platform_gen"

// MetadataFirmware is the HIL metadata key naming the canonical
// firmware the provider claims is installed.
const MetadataFirmware = "firmware"

// RejectedProject is the provider-owned quarantine project holding
// nodes that failed attestation.
const RejectedProject = "provider-rejected-pool"

// VerifyPublishedFirmware is the tenant-side deterministic-build check
// (§5): given the LinuxBoot source the tenant trusts (inspected or
// audited), rebuild the image, recompute the expected PCRPlatform
// value, and compare with the provider-published whitelist entry in the
// node's HIL metadata. A mismatch means the provider's published
// measurement does not correspond to the claimed source.
func VerifyPublishedFirmware(metadata map[string]string, sourceID string, source []byte) error {
	published, ok := metadata[MetadataPlatformPCR]
	if !ok {
		return fmt.Errorf("core: provider metadata has no %s entry", MetadataPlatformPCR)
	}
	gen, ok := metadata[MetadataPlatformGen]
	if !ok {
		return fmt.Errorf("core: provider metadata has no %s entry", MetadataPlatformGen)
	}
	img := firmware.BuildLinuxBoot(sourceID, source)
	fw := firmware.NewLinuxBoot(img, gen)
	want := fmt.Sprintf("%x", firmware.ExpectedPCRs(fw, nil)[firmware.PCRPlatform])
	if want != published {
		return fmt.Errorf("core: published platform PCR %s does not match source build %s", published[:16], want[:16])
	}
	return nil
}

// CloudConfig sizes a simulated cloud.
type CloudConfig struct {
	Nodes        int
	Firmware     FirmwareKind
	HeadsSource  []byte // LinuxBoot source tree (deterministic build input)
	OSDs         int
	Replication  int
	SpindlesPerO int
	PlatformGen  string
}

// DefaultConfig mirrors the paper's testbed: 16 M620 blades, a 3-host
// Ceph pool with 27 spindles (9 per host).
func DefaultConfig() CloudConfig {
	return CloudConfig{
		Nodes:        16,
		Firmware:     FirmwareLinuxBoot,
		HeadsSource:  []byte("heads source tree v1.0 (reproducible)"),
		OSDs:         3,
		Replication:  2,
		SpindlesPerO: 9,
		PlatformGen:  "m620",
	}
}

// Cloud is a Bolted deployment as the tenant's orchestration engine
// sees it: the service plane (HIL, BMI, attestation registrar, node
// driver) behind narrow interfaces. NewCloud wires a fully in-process
// deployment including the physical machines; NewRemoteCloud builds
// the same structure from wire clients against a remote boltedd, and
// the enclave pipeline cannot tell the difference.
type Cloud struct {
	Config    CloudConfig
	HIL       HILService
	BMI       BMIService
	Registrar keylime.RegistrarConn
	Driver    NodeDriver

	// Provider-side infrastructure, populated only for in-process
	// clouds; nil when the services live behind a remote boltedd.
	Fabric *netsim.Fabric
	Ceph   *ceph.Cluster
	Heads  firmware.LinuxBootImage

	// Concrete in-process services, kept so a server (boltedd) can put
	// REST handlers in front of the deployment it hosts.
	hilLocal *hil.Service
	bmiLocal *bmi.Service
	regLocal *keylime.Registrar

	// canonicalFW is the firmware the provider *claims* is installed —
	// the basis of the published whitelist. Attestation exists exactly
	// because flash contents may diverge from this.
	canonicalFW firmware.Firmware
	machines    map[string]*firmware.Machine

	// sched arbitrates the cloud's airlock slots across every enclave:
	// the attestation pipeline is a provider-wide resource, so its
	// arbitration (weighted-fair, foreground-over-background) is
	// cloud-scoped, not per-enclave.
	sched *Scheduler

	// metrics holds the pre-resolved observability instruments
	// (metrics.go). Always non-nil; all instruments nil (no-op) until
	// SetMetrics attaches a registry.
	metrics *cloudMetrics

	// resilience is the installed retry/breaker layer (breaker.go);
	// nil until EnableResilience installs it on the call seam.
	resilience *cloudResilience

	rejMu    sync.Mutex
	rejected map[string]string // node -> rejection reason
}

// SetMetrics attaches an observability registry: every subsystem built
// from this cloud afterwards (scheduler grants immediately; pools,
// enclaves and managers at their creation) records into it. Call it
// right after NewCloud/NewRemoteCloud, before serving traffic —
// instruments are resolved once here, not re-checked per observation.
// A nil registry returns the cloud to the uninstrumented default.
func (c *Cloud) SetMetrics(reg *obs.Registry) {
	c.metrics = newCloudMetrics(reg)
	c.sched.setMetrics(c.metrics.sched())
}

// Metrics returns the attached registry (nil when uninstrumented).
func (c *Cloud) Metrics() *obs.Registry { return c.metrics.registry }

// LocalHIL returns the in-process HIL service (nil for remote clouds).
// Server wiring only; the orchestrator goes through c.HIL.
func (c *Cloud) LocalHIL() *hil.Service { return c.hilLocal }

// LocalBMI returns the in-process BMI service (nil for remote clouds).
func (c *Cloud) LocalBMI() *bmi.Service { return c.bmiLocal }

// LocalRegistrar returns the in-process registrar (nil for remote
// clouds).
func (c *Cloud) LocalRegistrar() *keylime.Registrar { return c.regLocal }

// Remote reports whether this cloud's service plane lives behind a
// network API rather than in this process.
func (c *Cloud) Remote() bool { return c.hilLocal == nil }

// RemoteServices bundles the wire clients a remote Cloud is built
// from. Every field is required.
type RemoteServices struct {
	HIL       HILService
	BMI       BMIService
	Registrar keylime.RegistrarConn
	Driver    NodeDriver
}

// NewRemoteCloud builds a Cloud whose entire service plane is driven
// through the given (typically HTTP-backed) interfaces — the paper's
// actual deployment shape, where the tenant's orchestration engine
// trusts nothing but the services' network APIs. The config describes
// the remote deployment (node count, firmware kind) and is advisory:
// the provider's services remain the source of truth.
func NewRemoteCloud(cfg CloudConfig, svc RemoteServices) (*Cloud, error) {
	if svc.HIL == nil || svc.BMI == nil || svc.Registrar == nil || svc.Driver == nil {
		return nil, fmt.Errorf("core: remote cloud needs HIL, BMI, registrar and node driver")
	}
	return &Cloud{
		Config:    cfg,
		HIL:       svc.HIL,
		BMI:       svc.BMI,
		Registrar: svc.Registrar,
		Driver:    svc.Driver,
		sched:     NewScheduler(DefaultAirlocks),
		metrics:   newCloudMetrics(nil),
		rejected:  make(map[string]string),
	}, nil
}

// NewCloud constructs and wires a cloud: fabric ports for every node
// and service host, public attestation/provisioning networks, machines
// with the configured flash firmware, and HIL node registration with
// the provider-published TPM EK and platform PCR metadata.
func NewCloud(cfg CloudConfig) (*Cloud, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("core: need at least one node")
	}
	fabric, err := netsim.NewFabric(100, 999)
	if err != nil {
		return nil, err
	}
	cluster, err := ceph.NewCluster(cfg.OSDs, cfg.Replication)
	if err != nil {
		return nil, err
	}
	hilSvc := hil.New(fabric)
	bmiSvc := bmi.New(cluster)
	regSvc := keylime.NewRegistrar()
	c := &Cloud{
		Config:    cfg,
		Fabric:    fabric,
		HIL:       hilSvc,
		BMI:       bmiSvc,
		Ceph:      cluster,
		Registrar: regSvc,
		Heads:     firmware.BuildLinuxBoot("heads-v1.0", cfg.HeadsSource),
		hilLocal:  hilSvc,
		bmiLocal:  bmiSvc,
		regLocal:  regSvc,
		machines:  make(map[string]*firmware.Machine),
		sched:     NewScheduler(DefaultAirlocks),
		metrics:   newCloudMetrics(nil),
		rejected:  make(map[string]string),
	}
	c.Driver = newLocalDriver(c)

	for _, p := range []string{PortBMI, PortRegistrar, PortVerifier} {
		if _, err := fabric.AddPort(p); err != nil {
			return nil, err
		}
	}
	// Both service networks are private VLANs: every node needs the
	// attestation and provisioning services, but nodes must never see
	// each other through them.
	for _, net := range []string{NetAttestation, NetProvisioning} {
		if err := hilSvc.CreatePublicNetwork(net, true); err != nil {
			return nil, err
		}
	}
	// The rejected pool is a provider-owned project: nodes that fail
	// attestation park here, off every network, until an operator
	// investigates. They must never silently return to the free pool.
	if err := hilSvc.CreateProject(RejectedProject); err != nil {
		return nil, err
	}
	// Provider service placement: BMI on provisioning, registrar and the
	// provider verifier on attestation.
	if err := hilSvc.ConnectServicePort(PortBMI, NetProvisioning); err != nil {
		return nil, err
	}
	for _, p := range []string{PortRegistrar, PortVerifier} {
		if err := hilSvc.ConnectServicePort(p, NetAttestation); err != nil {
			return nil, err
		}
	}

	switch cfg.Firmware {
	case FirmwareLinuxBoot:
		c.canonicalFW = firmware.NewLinuxBoot(c.Heads, cfg.PlatformGen)
	case FirmwareUEFI:
		c.canonicalFW = firmware.NewUEFI("dell", "2.9.1", cfg.PlatformGen)
	default:
		return nil, fmt.Errorf("core: unknown firmware kind %q", cfg.Firmware)
	}

	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%02d", i)
		port := "port-" + name
		if _, err := fabric.AddPort(port); err != nil {
			return nil, err
		}
		m, err := firmware.NewMachine(name, port, c.canonicalFW)
		if err != nil {
			return nil, err
		}
		c.machines[name] = m
		md := map[string]string{
			keylime.EKMetadataKey: keylime.EncodeEK(m.TPM().EKPublic()),
			MetadataPlatformPCR:   fmt.Sprintf("%x", c.platformWhitelistDigest(c.canonicalFW)),
			MetadataPlatformGen:   cfg.PlatformGen,
			MetadataFirmware:      c.canonicalFW.Name(),
		}
		if err := hilSvc.RegisterNode(name, port, m, md); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// platformWhitelistDigest is the expected PCRPlatform value for a clean
// boot of the node's flash firmware — the one-time provider-published
// measurement of §4.1.
func (c *Cloud) platformWhitelistDigest(fw firmware.Firmware) tpm.Digest {
	return firmware.ExpectedPCRs(fw, nil)[firmware.PCRPlatform]
}

// Scheduler returns the cloud-wide airlock scheduler.
func (c *Cloud) Scheduler() *Scheduler { return c.sched }

// Machine returns a physical machine by name (test and example hook; a
// real tenant never touches machines directly).
func (c *Cloud) Machine(name string) (*firmware.Machine, error) {
	m, ok := c.machines[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown machine %q", name)
	}
	return m, nil
}

// ExpectedBootPCRs computes the attestation whitelist for a node under
// this cloud's boot chain: flash-LinuxBoot machines boot straight from
// flash; UEFI machines network-boot the Heads runtime via iPXE. The
// whitelist derives from the provider's *canonical* firmware — never
// from a machine's actual flash contents, which is precisely what
// attestation does not trust.
func (c *Cloud) ExpectedBootPCRs(node string) (map[int][]tpm.Digest, error) {
	if _, err := c.Machine(node); err != nil {
		return nil, err
	}
	var exp map[int]tpm.Digest
	if c.Config.Firmware == FirmwareUEFI {
		exp = firmware.ExpectedPCRs(c.canonicalFW, &c.Heads)
	} else {
		exp = firmware.ExpectedPCRs(c.canonicalFW, nil)
	}
	out := make(map[int][]tpm.Digest, len(exp))
	for pcr, d := range exp {
		out[pcr] = []tpm.Digest{d}
	}
	return out, nil
}

// MarkRejected quarantines a node that failed a lifecycle phase:
// detached from every network, moved from the owning project straight
// into the provider's rejected project — never through the free pool,
// where a concurrent batch could claim the tainted node — and recorded
// for forensics. Quarantine must proceed even for a cancelled batch,
// so it never takes a caller context.
func (c *Cloud) MarkRejected(project, node, reason string) {
	c.rejMu.Lock()
	c.rejected[node] = reason
	c.rejMu.Unlock()
	ctx := context.Background()
	if err := c.HIL.TransferNode(ctx, project, node, RejectedProject); err != nil {
		// Not owned by the project (rejection raced a release): reserve
		// it from the free pool instead.
		_ = c.HIL.AllocateNode(ctx, RejectedProject, node)
		if c.Fabric != nil {
			if port, err := c.HIL.NodePort(node); err == nil {
				_ = c.Fabric.DetachAll(port)
			}
		}
	}
}

// ReclaimRejected is the provider half of the operator's
// scrub-and-return path: a repaired rejected-pool node is powered off
// (nothing from the tainted tenancy survives into the next allocation)
// and freed from the rejected project back into the free pool. Returns
// the recorded rejection reason for the journal.
func (c *Cloud) ReclaimRejected(ctx context.Context, node string) (string, error) {
	reason, ok := c.rejectedReason(node)
	if !ok {
		return "", fmt.Errorf("%w: node %q is not in the rejected pool", ErrNotFound, node)
	}
	// Best-effort: rejected nodes are usually already off (MarkRejected
	// detached and powered them down), and a power fault must not strand
	// an otherwise repaired node.
	_ = c.HIL.PowerOff(ctx, RejectedProject, node)
	if err := c.HIL.FreeNode(ctx, RejectedProject, node); err != nil {
		return "", err
	}
	c.rejMu.Lock()
	delete(c.rejected, node)
	c.rejMu.Unlock()
	return reason, nil
}

// rejectedReason reports why a node is in the rejected pool, if it is.
func (c *Cloud) rejectedReason(node string) (string, bool) {
	c.rejMu.Lock()
	defer c.rejMu.Unlock()
	reason, ok := c.rejected[node]
	return reason, ok
}

// Rejected returns the rejected pool: node -> reason.
func (c *Cloud) Rejected() map[string]string {
	c.rejMu.Lock()
	defer c.rejMu.Unlock()
	out := make(map[string]string, len(c.rejected))
	for k, v := range c.rejected {
		out[k] = v
	}
	return out
}
