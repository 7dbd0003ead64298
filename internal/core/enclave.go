package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bolted/internal/blockdev"
	"bolted/internal/bmi"
	"bolted/internal/firmware"
	"bolted/internal/ima"
	"bolted/internal/ipsec"
	"bolted/internal/keylime"
	"bolted/internal/luks"
)

// EnclaveNet is the tenant's private network name.
const EnclaveNet = "enclave"

// DataVolumeSize is each node's remote data volume (kept small in
// simulation; the layout is what matters).
const DataVolumeSize int64 = 16 << 20

// Node is a server that has joined an enclave.
type Node struct {
	Name string
	// Agent is the node's Keylime agent handle: the in-process agent
	// for local clouds, a RemoteAgent speaking the node's REST API for
	// remote ones.
	Agent keylime.AgentConn
	// Machine is the underlying simulated machine (nil for remote
	// clouds, where only the provider can touch hardware).
	Machine  *firmware.Machine
	BootInfo *bmi.BootInfo
	// Disk is the node's remote data volume: a LUKS volume for
	// encrypting profiles, the raw network device otherwise.
	Disk blockdev.Device
	// IMA is the runtime measurement collector (continuous attestation
	// profiles only; nil for remote clouds, where the collector lives
	// on the node and is read through the agent).
	IMA *ima.Collector

	export  *bmi.Export
	volName string
	tunnels map[string]*ipsec.Endpoint // peer node -> endpoint
}

// Enclave is a tenant's secure pool of bare-metal servers.
type Enclave struct {
	cloud   *Cloud
	Project string
	Profile Profile

	verifier     *keylime.Verifier
	verifierPort string
	tenant       *keylime.Tenant
	imaWhitelist *ima.Whitelist
	netKey       []byte // enclave-wide IPsec PSK, distributed via payloads

	journal Journal
	lc      *lifecycle

	// pool is the enclave's warm pool of pre-attested standby nodes
	// (nil until ConfigurePool).
	poolMu sync.Mutex
	pool   *WarmPool

	// bannedWarm records standbys revoked in the window between being
	// taken from the pool and admission; the walk's gates consult it
	// before a banned node can become a member (provisioner.go).
	banMu      sync.Mutex
	bannedWarm map[string]string

	// resilience optionally overrides the cloud's ResiliencePolicy for
	// this enclave's pipeline (nil = inherit the cloud's).
	resMu      sync.Mutex
	resilience *ResiliencePolicy

	mu    sync.Mutex
	nodes map[string]*Node
}

// Journal returns the enclave's audit log.
func (e *Enclave) Journal() *Journal { return &e.journal }

// NewEnclave creates a tenant project with its private network and the
// profile-appropriate attestation deployment: Charlie hosts his own
// verifier (a dedicated port joined to the attestation network), Bob
// uses the provider's, Alice has none.
func NewEnclave(c *Cloud, name string, profile Profile) (*Enclave, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if err := c.HIL.CreateProject(name); err != nil {
		return nil, err
	}
	if err := c.HIL.CreateNetwork(context.Background(), name, EnclaveNet); err != nil {
		return nil, err
	}
	e := &Enclave{
		cloud:   c,
		Project: name,
		Profile: profile,
		nodes:   make(map[string]*Node),
		netKey:  randKey(32),
	}
	e.lc = newLifecycle(&e.journal)
	if profile.Attest {
		e.verifierPort = PortVerifier
		if profile.TenantVerifier {
			e.verifierPort = "tenant-" + name + "-cv"
			if err := c.Driver.AddServicePort(context.Background(), e.verifierPort); err != nil {
				return nil, err
			}
			if err := c.HIL.ConnectServicePort(e.verifierPort, NetAttestation); err != nil {
				return nil, err
			}
		}
		e.verifier = keylime.NewVerifier(c.Registrar, e.verifierPort)
		e.tenant = keylime.NewTenant(e.verifier)
		if profile.ContinuousAttest {
			e.imaWhitelist = ima.NewWhitelist()
		}
		// Revocation fan-out: when the verifier bans a node, every peer
		// tears down its IPsec SAs with it — the §7.4 cryptographic ban.
		e.verifier.Subscribe(func(ev keylime.RevocationEvent) {
			e.journal.record(EvRevoked, ev.UUID, ev.Reason)
			e.mu.Lock()
			defer e.mu.Unlock()
			for _, n := range e.nodes {
				if ep, ok := n.tunnels[ev.UUID]; ok {
					ep.Revoke()
				}
			}
			if bad, ok := e.nodes[ev.UUID]; ok {
				for _, ep := range bad.tunnels {
					ep.Revoke()
				}
			}
		})
	}
	return e, nil
}

// Verifier returns the enclave's verifier (nil for no-attestation
// profiles).
func (e *Enclave) Verifier() *keylime.Verifier { return e.verifier }

// Resilience returns the policy governing this enclave's pipeline: its
// own override when one was set, the cloud's otherwise.
func (e *Enclave) Resilience() ResiliencePolicy {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if e.resilience != nil {
		return *e.resilience
	}
	return e.cloud.Resilience()
}

// SetResilience overrides the cloud's resilience policy for this
// enclave (surfaced over /v1 and boltedctl). Retry and breaker
// parameters act where the shared backends are wrapped — cloud-wide —
// but the per-phase deadline is honored per enclave, so one tenant can
// bound its own provisioning phases without touching its neighbours.
func (e *Enclave) SetResilience(pol ResiliencePolicy) error {
	if err := pol.Validate(); err != nil {
		return err
	}
	pol = pol.withDefaults()
	e.resMu.Lock()
	e.resilience = &pol
	e.resMu.Unlock()
	return nil
}

// ReclaimRejected is the operator's scrub-and-return path for a node
// this enclave's pipeline sent to the rejected pool: once repaired
// (reflashed, inspected), the node is powered off, freed from the
// provider's rejected project back into the free pool, and the
// recovery journaled. Quarantined members are deliberately excluded —
// a runtime revocation opens an incident (incident.go) and its disk
// state is evidence, not something to recycle from here.
func (e *Enclave) ReclaimRejected(ctx context.Context, name string) error {
	if st := e.lc.state(name); st != StateRejected {
		return fmt.Errorf("%w: node %q is %s, not %s", ErrConflict, name, st, StateRejected)
	}
	reason, ok := e.cloud.rejectedReason(name)
	if !ok {
		return fmt.Errorf("%w: node %q is not in the rejected pool", ErrNotFound, name)
	}
	// The life cycle lets go before the provider frees the node, as in
	// ReleaseNode; a provider that cannot free it leaves it rejected.
	e.journal.record(EvReclaimed, name, "was: "+reason)
	if err := e.lc.to(name, StateFree, "reclaimed"); err != nil {
		return err
	}
	if _, err := e.cloud.ReclaimRejected(ctx, name); err != nil {
		_ = e.lc.to(name, StateRejected, "reclaim failed: "+err.Error())
		return err
	}
	return nil
}

// IMAWhitelist returns the tenant runtime whitelist (nil unless the
// profile enables continuous attestation). The tenant populates it with
// approved binaries before booting nodes.
func (e *Enclave) IMAWhitelist() *ima.Whitelist { return e.imaWhitelist }

// Nodes returns the enclave's current members.
func (e *Enclave) Nodes() []*Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Node, 0, len(e.nodes))
	for _, n := range e.nodes {
		out = append(out, n)
	}
	return out
}

func randKey(n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		panic("core: entropy source failed: " + err.Error())
	}
	return b
}

// airlockNet names the per-node airlock network. One airlock network
// per node: servers under attestation must not see each other (§4.2: "a
// compromised server cannot infect other uncompromised servers").
func airlockNet(node string) string { return "airlock-" + node }

// volName names a node's remote data volume; provisioning and the
// reject/abort cleanup paths must agree on it.
func (e *Enclave) volName(node string) string { return e.Project + "-" + node + "-vol" }

// AcquireNode runs the full Figure-1 lifecycle for one server and
// returns it as an enclave member. It is a single-node wrapper over the
// concurrent batch path (AcquireNodes) and honours ctx the same way:
// cancelling returns the node to the free pool at the next phase
// boundary. Callers that provision more than one node should use the
// batch API directly.
func (e *Enclave) AcquireNode(ctx context.Context, image string) (*Node, error) {
	res, err := e.AcquireNodes(ctx, image, 1)
	if err != nil {
		return nil, err
	}
	if len(res.Nodes) == 1 {
		return res.Nodes[0], nil
	}
	if len(res.Failed) == 0 {
		return nil, errors.New("core: node acquisition produced neither a member nor a failure")
	}
	f := res.Failed[0]
	return nil, fmt.Errorf("core: node %s failed %s phase, moved to rejected pool: %w", f.Node, f.Phase, f.Err)
}

// nodeWork carries one node along its route. A standby's has no boot
// info until an acquisition picks the tenant image.
type nodeWork struct {
	name    string
	boot    *bmi.BootInfo     // unauthenticated: attesting profiles kexec the payload instead
	machine *firmware.Machine // in-process clouds only
	agent   keylime.AgentConn
	diskKey []byte // the tenant-generated LUKS master key, delivered inside the payload

	node      *Node  // set by provisionNode, membership by admitNode
	delivered bool   // the sealed payload (and any enclave PSK) reached the node
	banned    string // why a gate found the node revoked
}

// airlockNode is phase (1): wire the node into its private airlock.
// The node shares VLANs only with the attestation and provisioning
// services, never with other airlocked nodes.
func (e *Enclave) airlockNode(ctx context.Context, w *nodeWork) error {
	c := e.cloud
	if err := c.HIL.CreateNetwork(ctx, e.Project, airlockNet(w.name)); err != nil {
		return err
	}
	for _, net := range []string{airlockNet(w.name), NetAttestation, NetProvisioning} {
		if err := c.HIL.ConnectNode(ctx, e.Project, w.name, net); err != nil {
			return err
		}
	}
	return e.lc.to(w.name, StateAirlocked, "")
}

// bootNode is phase (2): power on — flash firmware measures itself
// (and scrubs, if LinuxBoot), UEFI machines chain-load the Heads
// runtime via iPXE — then the node's Keylime agent comes up and
// enrols. The node-side steps run through the driver, so they happen
// on the node whether the cloud is in-process or remote.
func (e *Enclave) bootNode(ctx context.Context, w *nodeWork) error {
	c := e.cloud
	if err := e.lc.to(w.name, StateBooting, "firmware="+string(c.Config.Firmware)); err != nil {
		return err
	}
	if err := c.HIL.PowerCycle(ctx, e.Project, w.name); err != nil {
		return err
	}
	agent, err := c.Driver.Boot(ctx, w.name)
	if err != nil {
		return err
	}
	w.agent = agent
	if m, err := c.Machine(w.name); err == nil {
		w.machine = m // in-process visibility for tests and examples
	}
	return nil
}

// setAirlocks resizes the cloud-wide airlock slot count. The slots are
// a provider resource shared by every enclave; in-flight attestations
// finish against the grant they hold.
func (e *Enclave) setAirlocks(n int) {
	if n < 1 {
		n = DefaultAirlocks
	}
	e.cloud.sched.SetSlots(n)
}

// acquireAirlock takes one attestation airlock slot through the
// cloud's weighted-fair scheduler, honouring ctx. The tenant is the
// enclave; background work (warm-pool refills) is recognized by its
// context mark and may be preempted by waiting foreground acquires.
// The returned func releases the slot.
func (e *Enclave) acquireAirlock(ctx context.Context) (release func(), err error) {
	class, preempt := schedRequest(ctx)
	return e.cloud.sched.Acquire(ctx, e.Project, class, preempt)
}

// quote builds phase (3) in each of its three forms — the cold quote,
// the warm re-quote, the refill pre-attest: enter StateAttesting unless
// the node stays parked, hold one of the enclave's airlock slots (§7.3:
// the prototype had one; PoolPolicy.Airlocks configures N) while check
// runs, and journal the verdict. detail formats the verifier port.
func quote(enter bool, detail string, check stepFunc) stepFunc {
	return func(e *Enclave, ctx context.Context, w *nodeWork) error {
		d := fmt.Sprintf(detail, e.verifierPort)
		if enter {
			if err := e.lc.to(w.name, StateAttesting, d); err != nil {
				return err
			}
		}
		release, err := e.acquireAirlock(ctx)
		if err != nil {
			return err
		}
		defer release()
		if err := check(e, ctx, w); err != nil {
			return err
		}
		e.journal.record(EvAttested, w.name, d)
		return nil
	}
}

// checkPlatform quotes a standby's runtime against the provider's
// platform whitelist — the "pre-attested" half of the standby promise.
// No tenant payload is involved yet (that comes at acquisition, with a
// fresh nonce); it only guarantees firmware implants never wait in warm.
func (e *Enclave) checkPlatform(ctx context.Context, w *nodeWork) error {
	whitelist, err := e.cloud.Driver.ExpectedBootPCRs(ctx, w.name)
	if err != nil {
		return err
	}
	return keylime.QuoteAgainstWhitelist(ctx, e.cloud.Registrar, w.agent, e.verifierPort, whitelist)
}

// parkNode ends a refill walk: the node waits as a standby in the
// attested runtime.
func (e *Enclave) parkNode(_ context.Context, w *nodeWork) error {
	return e.lc.to(w.name, StateWarm, "standby in attested runtime")
}

// deliverPayload runs the tenant side of attestation: build the sealed
// payload, provision the verifier, and attest the node so the payload
// is released to its agent. Callers hold an airlock slot.
func (e *Enclave) deliverPayload(ctx context.Context, w *nodeWork) error {
	c := e.cloud
	if e.Profile.EncryptDisk {
		w.diskKey = randKey(luks.MasterKeySize)
	}
	payload := &keylime.Payload{
		Kernel:  w.boot.Kernel,
		Initrd:  w.boot.Initrd,
		Script:  "#!/bin/sh\n# join enclave network, kexec tenant kernel\n",
		DiskKey: w.diskKey,
	}
	if e.Profile.EncryptNetwork {
		payload.NetworkKey = e.netKey
	}
	whitelist, err := c.Driver.ExpectedBootPCRs(ctx, w.name)
	if err != nil {
		return err
	}
	md, err := c.HIL.NodeMetadata(w.name)
	if err != nil {
		return err
	}
	_, err = e.tenant.Provision(ctx, c.Registrar, w.agent, keylime.ProvisionSpec{
		Payload:      payload,
		PlatformPCRs: whitelist,
		IMAWhitelist: e.imaWhitelist,
		HILMetadata:  md,
	})
	if err != nil {
		return err
	}
	// The attested payload is authoritative: the node unwraps it with
	// the released key shares and kexecs its contents (KexecAttested),
	// never what came over the unauthenticated image path. The tenant
	// keeps its own copy of the payload contents it authored — the
	// disk key in w.diskKey is the one the node just received.
	w.delivered = true
	return nil
}

// provisionNode is phases (4) and (6): leave the airlock, join the
// tenant enclave, export the remote data volume, assemble the
// disk/network encryption stack, and kexec the tenant OS. The
// provisioning network stays attached (the boot volume is
// iSCSI-mounted for the node's lifetime).
func (e *Enclave) provisionNode(ctx context.Context, w *nodeWork) error {
	c := e.cloud
	if err := c.HIL.DetachNode(ctx, e.Project, w.name, airlockNet(w.name)); err != nil {
		return err
	}
	if err := c.HIL.DeleteNetwork(ctx, e.Project, airlockNet(w.name)); err != nil {
		return err
	}
	if err := c.HIL.ConnectNode(ctx, e.Project, w.name, EnclaveNet); err != nil {
		return err
	}

	node := &Node{
		Name:     w.name,
		Agent:    w.agent,
		Machine:  w.machine,
		BootInfo: w.boot,
		tunnels:  make(map[string]*ipsec.Endpoint),
	}
	node.volName = e.volName(w.name)
	if _, err := c.BMI.CreateImage(ctx, node.volName, DataVolumeSize); err != nil {
		return err
	}
	export, err := c.BMI.ExportForBoot(ctx, w.name, node.volName, false)
	if err != nil {
		return err
	}
	node.export = export

	var transport blockdev.Transport = blockdev.Loopback{Target: export.Target}
	if e.Profile.EncryptNetwork {
		// Charlie does not trust the provider's network between node
		// and iSCSI server: ESP-wrap the block transport.
		tr, err := blockdev.NewIPsecTransport(transport, ipsec.SuiteHWAES, 9000)
		if err != nil {
			return err
		}
		transport = tr
	}
	nbd, err := blockdev.NewClientContext(ctx, transport, blockdev.TunedReadAhead)
	if err != nil {
		return err
	}
	node.Disk = nbd
	if e.Profile.EncryptDisk {
		vol, err := luks.FormatWithIterations(nbd, w.diskKey[:32], 64)
		if err != nil {
			return err
		}
		node.Disk = vol
	}
	if err := e.lc.to(w.name, StateProvisioned, "volume="+node.volName); err != nil {
		return err
	}

	if e.Profile.Attest {
		// Kexec what Keylime delivered: the node's agent unwraps the
		// attested payload; incomplete key shares fail here.
		if err := c.Driver.KexecAttested(ctx, w.name, w.boot.KernelID); err != nil {
			return err
		}
	} else {
		if err := c.Driver.Kexec(ctx, w.name, w.boot.KernelID, w.boot.Kernel, w.boot.Initrd); err != nil {
			return err
		}
	}
	e.journal.record(EvBooted, w.name, "kernel="+w.boot.KernelID)

	// Runtime integrity: attach IMA on the node and whitelist the
	// booted kernel's own components.
	if e.Profile.ContinuousAttest {
		col, err := c.Driver.StartIMA(ctx, w.name)
		if err != nil {
			return err
		}
		node.IMA = col
	}
	w.node = node
	return nil
}

// admitNode completes the lifecycle: past the last ban gate, wire the
// pairwise IPsec mesh with existing members (keyed from the
// payload-delivered enclave PSK) and record full membership. Admissions
// serialize on e.mu, so every concurrent batch member pairs with all
// earlier admits.
func (e *Enclave) admitNode(_ context.Context, w *nodeWork) error {
	if err := e.gate(w); err != nil {
		return err
	}
	e.mu.Lock()
	if e.Profile.EncryptNetwork {
		// Build every pair before installing any: a mid-mesh failure
		// must not leave peers holding tunnels to a never-admitted node.
		type pairing struct {
			peer *Node
			a, b *ipsec.Endpoint
		}
		pairs := make([]pairing, 0, len(e.nodes))
		for peer, pn := range e.nodes {
			key := pairKey(e.netKey, w.name, peer)
			a, b, err := ipsec.NewPair(ipsec.SuiteHWAES, key)
			if err != nil {
				e.mu.Unlock()
				return err
			}
			pairs = append(pairs, pairing{pn, a, b})
		}
		for _, p := range pairs {
			w.node.tunnels[p.peer.Name] = p.a
			p.peer.tunnels[w.name] = p.b
		}
	}
	e.nodes[w.name] = w.node
	e.mu.Unlock()
	return e.lc.to(w.name, StateAllocated, "network="+EnclaveNet)
}

// pairKey derives a deterministic per-pair PSK from the enclave key so
// both ends build matching SAs regardless of join order.
func pairKey(base []byte, a, b string) []byte {
	if a > b {
		a, b = b, a
	}
	out := make([]byte, len(base))
	copy(out, base)
	mix := a + "|" + b
	for i := 0; i < len(mix); i++ {
		out[i%len(out)] ^= mix[i]
	}
	return out
}

// Send transmits enclave traffic between two member nodes. Under
// encrypting profiles it traverses the pairwise ESP tunnel; otherwise
// it only checks fabric reachability. This is the data path continuous
// attestation severs on revocation.
func (e *Enclave) Send(from, to string, payload []byte) ([]byte, error) {
	e.mu.Lock()
	src, ok1 := e.nodes[from]
	_, ok2 := e.nodes[to]
	e.mu.Unlock()
	if !ok1 || !ok2 {
		return nil, errors.New("core: both endpoints must be enclave members")
	}
	srcPort, err := e.cloud.HIL.NodePort(from)
	if err != nil {
		return nil, err
	}
	dstPort, err := e.cloud.HIL.NodePort(to)
	if err != nil {
		return nil, err
	}
	if err := e.cloud.Driver.Reachable(context.Background(), srcPort, dstPort); err != nil {
		return nil, err
	}
	if !e.Profile.EncryptNetwork {
		return payload, nil
	}
	ep, ok := src.tunnels[to]
	if !ok {
		return nil, fmt.Errorf("core: no SA between %s and %s", from, to)
	}
	pkt, err := ep.Send(payload)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	peerEp := e.nodes[to].tunnels[from]
	e.mu.Unlock()
	return peerEp.Recv(pkt)
}

// QuarantineNode executes the enclave-side half of the §7.4 incident
// response for a revoked member: the node is torn out of the enclave —
// every peer's IPsec SA to it revoked, its agent stopped, its BMI block
// export and data volume destroyed, its HIL switch port detached — and
// parked in the provider's rejected project for forensics. It must
// never transit the free pool, where a concurrent batch could claim the
// compromised hardware. A full member (StateAllocated) or a parked
// standby (StateWarm) can be quarantined: nodes still in flight are
// handled by the provisioner's own rejection path.
func (e *Enclave) QuarantineNode(name, reason string) error {
	switch st := e.lc.state(name); st {
	case StateWarm:
		return e.quarantineWarm(name, reason)
	case StateAllocated:
	default:
		return fmt.Errorf("%w: node %q is %s, not %s or %s", ErrConflict, name, st, StateAllocated, StateWarm)
	}
	if e.dropMember(name) == nil {
		return fmt.Errorf("%w: node %q not in enclave", ErrNotFound, name)
	}
	// A compromised node's disk state is evidence, not something to
	// reuse, and its export must not stay reachable from quarantine.
	return e.evict(name, StateQuarantined, reason, reason)
}

// dropMember takes a member out of the enclave (nil if it is not one)
// and revokes every tunnel to or from it — before any slower teardown,
// so a compromised node loses the data plane at once.
func (e *Enclave) dropMember(name string) *Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	n, ok := e.nodes[name]
	if !ok {
		return nil
	}
	delete(e.nodes, name)
	for _, pn := range e.nodes {
		if ep, ok := pn.tunnels[name]; ok {
			ep.Revoke()
			delete(pn.tunnels, name)
		}
	}
	for _, ep := range n.tunnels {
		ep.Revoke()
	}
	return n
}

// RotateNetKey replaces the enclave-wide IPsec PSK and rebuilds every
// surviving pairwise tunnel from the new key, resetting sequence
// numbers, replay windows and lifetime counters. After a member is
// quarantined this retires every SA the compromised node ever held key
// material for; in a real deployment the verifier redistributes the new
// PSK the same way it delivered the first (§7.4). Nodes admitted after
// the call pair under the new key automatically.
func (e *Enclave) RotateNetKey() error {
	e.mu.Lock()
	e.netKey = randKey(32)
	members := len(e.nodes)
	if e.Profile.EncryptNetwork {
		names := make([]string, 0, len(e.nodes))
		for name := range e.nodes {
			names = append(names, name)
		}
		for i, a := range names {
			for _, b := range names[i+1:] {
				key := pairKey(e.netKey, a, b)
				ea, eb, err := ipsec.NewPair(ipsec.SuiteHWAES, key)
				if err != nil {
					e.mu.Unlock()
					return err
				}
				e.nodes[a].tunnels[b] = ea
				e.nodes[b].tunnels[a] = eb
			}
		}
	}
	e.mu.Unlock()
	e.journal.record(EvRekeyed, "", fmt.Sprintf("members=%d", members))
	return nil
}

// StartContinuousAttestation begins the verifier's IMA monitoring loop
// for a member node.
func (e *Enclave) StartContinuousAttestation(node string, interval time.Duration) error {
	if !e.Profile.ContinuousAttest {
		return errors.New("core: profile does not enable continuous attestation")
	}
	return e.verifier.StartMonitoring(node, interval)
}

// ReleaseNode removes a node from the enclave and returns it to the
// free pool. With saveAs non-empty the node's data volume is preserved
// as a BMI image (restartable on any compatible node); otherwise every
// trace of the tenant evaporates with the export.
func (e *Enclave) ReleaseNode(name, saveAs string) error {
	n := e.dropMember(name)
	if n == nil {
		return fmt.Errorf("%w: node %q not in enclave", ErrNotFound, name)
	}

	if e.verifier != nil {
		e.verifier.StopMonitoring(name)
		e.verifier.RemoveNode(name)
	}
	ctx := context.Background()
	c := e.cloud
	// The node is powered off on release; its agent (and any remote
	// agent API) must die with it.
	_ = c.Driver.StopAgent(ctx, name)
	if err := c.BMI.Unexport(ctx, name, ""); err != nil {
		return err
	}
	if saveAs != "" {
		// The volume is exported read-write, so its image already holds
		// the node's state: preserve it under the new name.
		if _, err := c.BMI.CloneImage(ctx, n.volName, saveAs); err != nil {
			return err
		}
		e.journal.record(EvStateSaved, name, "image="+saveAs)
	}
	if err := c.BMI.DeleteImage(ctx, n.volName); err != nil {
		return err
	}
	// The life cycle lets go before the provider does: once the node is
	// free, a reservation in this enclave may claim it, and must find it
	// Free here.
	lcErr := e.lc.to(name, StateFree, "")
	if err := c.HIL.FreeNode(ctx, e.Project, name); err != nil {
		return err
	}
	return lcErr
}

// Destroy releases every node and deletes the enclave's project. The
// warm pool goes first: its refiller must stop allocating and its
// standbys must return to the free pool before the project can go.
func (e *Enclave) Destroy() error {
	e.ClosePool()
	for _, n := range e.Nodes() {
		if err := e.ReleaseNode(n.Name, ""); err != nil {
			return err
		}
	}
	if err := e.cloud.HIL.DeleteNetwork(context.Background(), e.Project, EnclaveNet); err != nil {
		return err
	}
	return e.cloud.HIL.DeleteProject(e.Project)
}
