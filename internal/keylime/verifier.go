package keylime

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"bolted/internal/firmware"
	"bolted/internal/ima"
	"bolted/internal/tpm"
)

// ErrQuoteMismatch marks an attestation verdict failure: the node's
// quote verified cryptographically but a PCR value is outside the
// whitelist. It is a trust decision, not a service hiccup — resilience
// layers must treat it as fatal (reject immediately, never retry) and
// must not count it against service-health circuit breakers.
var ErrQuoteMismatch = errors.New("keylime: quote does not match whitelist")

// NodeStatus is the verifier's view of a monitored node.
type NodeStatus string

// Node statuses.
const (
	StatusPending  NodeStatus = "pending"  // added, not yet attested
	StatusVerified NodeStatus = "verified" // last check passed
	StatusFailed   NodeStatus = "failed"   // boot attestation failed
	StatusRevoked  NodeStatus = "revoked"  // runtime violation; keys revoked
)

// AgentConn is the verifier's and tenant's view of an agent: satisfied
// by *Agent in process and by *RemoteAgent over HTTP.
type AgentConn interface {
	UUID() string
	Quote(nonce []byte, sel []int, verifierPort string) (*tpm.Quote, error)
	IMAList() ([]ima.Entry, error)
	ReceiveU(u []byte)
	ReceiveV(v, sealedPayload []byte)
}

// NodeConfig is everything the verifier needs to attest one node.
type NodeConfig struct {
	Agent AgentConn
	// V is the verifier's key share, released to the agent only after
	// boot attestation passes.
	V []byte
	// SealedPayload is delivered alongside V.
	SealedPayload []byte
	// PlatformPCRs maps PCR index to the set of acceptable values (the
	// whitelist). Every listed PCR must match one allowed value.
	PlatformPCRs map[int][]tpm.Digest
	// IMAWhitelist enables continuous attestation when non-nil.
	IMAWhitelist *ima.Whitelist
}

// RevocationEvent notifies enclave peers that a node's keys are revoked.
type RevocationEvent struct {
	UUID   string
	Reason string
	At     time.Time
}

type monitored struct {
	cfg      NodeConfig
	status   NodeStatus
	released bool
	stop     chan struct{}
	// loopDone is closed by the monitoring goroutine as it exits, so
	// StopMonitoring/RemoveNode can wait for the loop to be truly gone
	// rather than merely signalled.
	loopDone chan struct{}
	lastErr  error
}

// Verifier is the Keylime Cloud Verifier: it maintains whitelists,
// checks server integrity, and releases key shares. Deployable by the
// tenant (Charlie) or the provider (Bob).
type Verifier struct {
	registrar RegistrarConn
	port      string

	mu     sync.Mutex
	nodes  map[string]*monitored
	subs   map[int]func(RevocationEvent)
	subSeq int
}

// NewVerifier creates a verifier reachable on the given switch port.
// The registrar may be in-process or a RegistrarClient for a registrar
// elsewhere on the attestation network.
func NewVerifier(reg RegistrarConn, port string) *Verifier {
	return &Verifier{registrar: reg, port: port, nodes: make(map[string]*monitored)}
}

// Port returns the verifier's switch port.
func (v *Verifier) Port() string { return v.port }

// AddNode registers a node for attestation.
func (v *Verifier) AddNode(uuid string, cfg NodeConfig) error {
	if cfg.Agent == nil {
		return errors.New("keylime: node config needs an agent")
	}
	if len(cfg.PlatformPCRs) == 0 {
		return errors.New("keylime: node config needs a platform PCR whitelist")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.nodes[uuid]; ok {
		return fmt.Errorf("keylime: node %q already monitored", uuid)
	}
	v.nodes[uuid] = &monitored{cfg: cfg, status: StatusPending}
	return nil
}

// RemoveNode stops tracking a node (tenant released it). It does not
// return until the node's monitoring goroutine, if any, has exited.
func (v *Verifier) RemoveNode(uuid string) {
	v.mu.Lock()
	m, ok := v.nodes[uuid]
	if ok {
		delete(v.nodes, uuid)
	}
	v.mu.Unlock()
	if ok && m.stop != nil {
		close(m.stop)
		<-m.loopDone
	}
}

// Status reports a node's attestation state.
func (v *Verifier) Status(uuid string) (NodeStatus, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.nodes[uuid]
	if !ok {
		return "", fmt.Errorf("keylime: node %q not monitored", uuid)
	}
	return m.status, nil
}

// LastError returns the most recent check failure for a node.
func (v *Verifier) LastError(uuid string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok := v.nodes[uuid]; ok {
		return m.lastErr
	}
	return nil
}

func nonce() []byte {
	n := make([]byte, 20)
	if _, err := io.ReadFull(rand.Reader, n); err != nil {
		panic("keylime: entropy source failed: " + err.Error())
	}
	return n
}

// AttestBoot performs the airlock-phase attestation: quote over the
// boot PCRs, verified against the registrar-certified AIK and the
// platform whitelist. On first success the verifier releases V and the
// sealed payload to the agent.
func (v *Verifier) AttestBoot(ctx context.Context, uuid string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("keylime: %w", err)
	}
	v.mu.Lock()
	m, ok := v.nodes[uuid]
	v.mu.Unlock()
	if !ok {
		return fmt.Errorf("keylime: node %q not monitored", uuid)
	}
	err := v.attestBoot(ctx, uuid, m)
	v.mu.Lock()
	defer v.mu.Unlock()
	if err != nil {
		m.status = StatusFailed
		m.lastErr = err
		return err
	}
	m.status = StatusVerified
	m.lastErr = nil
	if !m.released {
		m.cfg.Agent.ReceiveV(m.cfg.V, m.cfg.SealedPayload)
		m.released = true
	}
	return nil
}

func (v *Verifier) attestBoot(ctx context.Context, uuid string, m *monitored) error {
	return QuoteAgainstWhitelist(ctx, v.registrar, m.cfg.Agent, v.port, m.cfg.PlatformPCRs)
}

// QuoteAgainstWhitelist runs one fresh-nonce quote over the whitelisted
// PCRs and verifies it end to end: registrar-certified AIK, signature,
// and every quoted value against its allowed set. It is the attestation
// primitive shared by the verifier's boot attestation and the warm
// pool's pre-attest (which checks a standby against the provider
// whitelist without provisioning any tenant payload).
func QuoteAgainstWhitelist(ctx context.Context, reg RegistrarConn, agent AgentConn, verifierPort string, whitelist map[int][]tpm.Digest) error {
	aik, err := reg.AIK(agent.UUID())
	if err != nil {
		return fmt.Errorf("keylime: no certified AIK: %w", err)
	}
	var sel []int
	for pcr := range whitelist {
		sel = append(sel, pcr)
	}
	sort.Ints(sel)
	n := nonce()
	q, err := agent.Quote(n, sel, verifierPort)
	if err != nil {
		return err
	}
	// The quote round trip is the slow step; honor a cancellation that
	// raced it before committing the verdict.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("keylime: %w", err)
	}
	if err := tpm.VerifyQuote(aik, q, n); err != nil {
		return err
	}
	for i, pcr := range q.PCRSel {
		allowed := whitelist[pcr]
		ok := false
		for _, d := range allowed {
			if q.PCRValues[i] == d {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("%w: PCR %d value %x not in whitelist (firmware compromised or unknown)", ErrQuoteMismatch, pcr, q.PCRValues[i][:8])
		}
	}
	return nil
}

// CheckIMA performs one continuous-attestation round: fetch the node's
// IMA measurement list and a quote over the IMA PCR, verify the list
// is anchored in the TPM (replay matches the quoted aggregate), then
// match every measurement against the whitelist. Any violation revokes
// the node. A list or quote the agent fails to deliver is an error, not
// a verdict: the node is not revoked for it here.
func (v *Verifier) CheckIMA(uuid string) ([]ima.Violation, error) {
	v.mu.Lock()
	m, ok := v.nodes[uuid]
	v.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("keylime: node %q not monitored", uuid)
	}
	if m.cfg.IMAWhitelist == nil {
		return nil, fmt.Errorf("keylime: node %q has no IMA whitelist (continuous attestation disabled)", uuid)
	}
	aik, err := v.registrar.AIK(uuid)
	if err != nil {
		return nil, err
	}
	n := nonce()
	// Fetch list first, then the quote: under concurrent measurement
	// the quote may cover MORE than the list; the verifier accepts a
	// list that is a prefix-consistent explanation produced before the
	// quote. For simplicity we retry once on mismatch, which converges
	// when the node quiesces; persistent mismatch is a violation
	// (list tampering).
	for attempt := 0; ; attempt++ {
		list, err := m.cfg.Agent.IMAList()
		if err != nil {
			return nil, err
		}
		q, err := m.cfg.Agent.Quote(n, []int{ima.PCR}, v.port)
		if err != nil {
			return nil, err
		}
		if err := tpm.VerifyQuote(aik, q, n); err != nil {
			return nil, err
		}
		if ima.ReplayAggregate(list) != q.PCRValues[0] {
			if attempt < 3 {
				continue // racing measurements; re-fetch
			}
			v.Revoke(uuid, "IMA list does not match TPM aggregate (tampered list)")
			return nil, errors.New("keylime: IMA list does not match quoted PCR")
		}
		violations := m.cfg.IMAWhitelist.Check(list)
		if len(violations) > 0 {
			v.Revoke(uuid, violations[0].String())
		}
		return violations, nil
	}
}

// BootPCRSelection is the default whitelist PCR set for airlock
// attestation.
func BootPCRSelection() []int {
	return []int{firmware.PCRPlatform, firmware.PCRBootloader}
}

// Subscribe registers a revocation listener (enclave peers use this to
// drop a banned node's IPsec SAs; the runtime attestation guard uses it
// to drive automated quarantine). The returned func unsubscribes.
func (v *Verifier) Subscribe(fn func(RevocationEvent)) (cancel func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.subs == nil {
		v.subs = make(map[int]func(RevocationEvent))
	}
	id := v.subSeq
	v.subSeq++
	v.subs[id] = fn
	return func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		delete(v.subs, id)
	}
}

// Revoke marks a node compromised and fans the event out to all
// subscribers synchronously — the paper measures detection-to-ban at
// about 3 seconds including IPsec teardown on every peer.
func (v *Verifier) Revoke(uuid, reason string) {
	v.mu.Lock()
	m, ok := v.nodes[uuid]
	if ok {
		if m.status == StatusRevoked {
			v.mu.Unlock()
			return
		}
		m.status = StatusRevoked
		m.lastErr = errors.New("revoked: " + reason)
	}
	subs := make([]func(RevocationEvent), 0, len(v.subs))
	for _, fn := range v.subs {
		subs = append(subs, fn)
	}
	v.mu.Unlock()
	ev := RevocationEvent{UUID: uuid, Reason: reason, At: time.Now()}
	for _, fn := range subs {
		fn(ev)
	}
}

// StartMonitoring launches the continuous-attestation loop for a node
// at the given interval. It stops automatically on revocation or
// RemoveNode/StopMonitoring.
func (v *Verifier) StartMonitoring(uuid string, interval time.Duration) error {
	v.mu.Lock()
	m, ok := v.nodes[uuid]
	if !ok {
		v.mu.Unlock()
		return fmt.Errorf("keylime: node %q not monitored", uuid)
	}
	if m.stop != nil {
		v.mu.Unlock()
		return fmt.Errorf("keylime: node %q already being monitored", uuid)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.loopDone = stop, done
	v.mu.Unlock()

	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				violations, err := v.CheckIMA(uuid)
				if err != nil || len(violations) > 0 {
					return // revoked or unreachable; loop ends
				}
			}
		}
	}()
	return nil
}

// StopMonitoring halts a node's continuous-attestation loop and waits
// for its goroutine to exit, so no check is in flight after the call —
// a later StartMonitoring can never race a stale ticker loop.
func (v *Verifier) StopMonitoring(uuid string) {
	v.mu.Lock()
	m, ok := v.nodes[uuid]
	var stop, done chan struct{}
	if ok && m.stop != nil {
		stop, done = m.stop, m.loopDone
		m.stop, m.loopDone = nil, nil
	}
	v.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
