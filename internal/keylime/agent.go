package keylime

import (
	"context"
	"crypto/ecdh"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"sync"

	"bolted/internal/firmware"
	"bolted/internal/ima"
	"bolted/internal/netsim"
	"bolted/internal/tpm"
)

// Agent runs on the node being attested. During the airlock phase it is
// part of the downloaded LinuxBoot runtime; after kexec it runs inside
// the tenant OS feeding IMA measurement lists to the verifier. All
// remote interactions verify switch-fabric reachability first, so the
// airlock wiring is actually load-bearing: an agent cut off from the
// attestation network cannot register or be attested.
type Agent struct {
	uuid    string
	machine *firmware.Machine
	fabric  *netsim.Fabric

	mu      sync.Mutex
	u, v    []byte
	sealed  []byte
	payload *Payload
	imaCol  *ima.Collector
}

// NewAgent attaches an agent to a machine.
func NewAgent(uuid string, m *firmware.Machine, fabric *netsim.Fabric) *Agent {
	return &Agent{uuid: uuid, machine: m, fabric: fabric}
}

// UUID returns the agent identity (node name in Bolted).
func (a *Agent) UUID() string { return a.uuid }

// Port returns the node's switch port.
func (a *Agent) Port() string { return a.machine.Port() }

// Machine returns the underlying machine (tenant-side orchestration
// uses it for kexec).
func (a *Agent) Machine() *firmware.Machine { return a.machine }

// EKPublic returns the node TPM's endorsement key.
func (a *Agent) EKPublic() *ecdh.PublicKey { return a.machine.TPM().EKPublic() }

// AIKPublic returns the node TPM's attestation key.
func (a *Agent) AIKPublic() *ecdsa.PublicKey { return a.machine.TPM().AIKPublic() }

// checkPath models the agent's network dependency: the peer's port must
// share a VLAN with the node.
func (a *Agent) checkPath(peerPort string) error {
	if a.fabric == nil {
		return nil
	}
	return a.fabric.CheckReachable(a.Port(), peerPort)
}

// RegisterWith enrols the agent with a registrar reachable on
// registrarPort. The registrar may be in-process or a RegistrarClient
// for a remote enrolment endpoint.
//
// A TPM's EK and AIK survive a reboot, so a node the registrar already
// certifies needs no new proof that they share a TPM: when the
// registrar holds an activated entry for this uuid whose AIK and EK
// both equal this TPM's, nothing is written. Any other answer — unknown
// agent, not activated, a lookup fault, a different key — runs the full
// enrolment: submit EK+AIK, activate the returned credential in the
// TPM, return the proof. Attestation is not affected: every acquisition
// still verifies a fresh-nonce quote against the certified AIK.
func (a *Agent) RegisterWith(ctx context.Context, r RegistrarConn, registrarPort string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("keylime: %w", err)
	}
	if err := a.checkPath(registrarPort); err != nil {
		return fmt.Errorf("keylime: agent cannot reach registrar: %w", err)
	}
	if a.certified(r) {
		return nil
	}
	blob, err := r.Register(a.uuid, a.EKPublic(), a.AIKPublic())
	if err != nil {
		return err
	}
	secret, err := a.machine.TPM().ActivateCredential(blob)
	if err != nil {
		return fmt.Errorf("keylime: credential activation failed: %w", err)
	}
	return r.Activate(a.uuid, activationProof(secret, a.uuid))
}

// certified reports whether r already certifies this TPM's AIK and EK
// under the agent's uuid. The EK is looked up only if the AIK matches.
func (a *Agent) certified(r RegistrarConn) bool {
	aik, err := r.AIK(a.uuid)
	if err != nil || aik == nil || !aik.Equal(a.AIKPublic()) {
		return false
	}
	ek, err := r.EK(a.uuid)
	return err == nil && ek != nil && ek.Equal(a.EKPublic())
}

// Quote produces a TPM quote for a verifier-chosen nonce, over the boot
// PCRs plus the IMA PCR.
func (a *Agent) Quote(nonce []byte, sel []int, verifierPort string) (*tpm.Quote, error) {
	if err := a.checkPath(verifierPort); err != nil {
		return nil, fmt.Errorf("keylime: agent cannot reach verifier: %w", err)
	}
	return a.machine.TPM().Quote(nonce, sel)
}

// ReceiveU accepts the tenant's key share.
func (a *Agent) ReceiveU(u []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.u = append([]byte(nil), u...)
}

// ReceiveV accepts the verifier's key share plus the sealed payload
// (released only after attestation passes).
func (a *Agent) ReceiveV(v, sealedPayload []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v = append([]byte(nil), v...)
	a.sealed = append([]byte(nil), sealedPayload...)
}

// Unwrap combines U and V into the bootstrap key and opens the payload.
// It fails until both shares have arrived.
func (a *Agent) Unwrap() (*Payload, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.payload != nil {
		return a.payload, nil
	}
	if a.u == nil || a.v == nil {
		return nil, errors.New("keylime: key shares incomplete (attestation not finished?)")
	}
	k, err := CombineKey(a.u, a.v)
	if err != nil {
		return nil, err
	}
	p, err := OpenPayload(k, a.sealed)
	if err != nil {
		return nil, err
	}
	a.payload = p
	return p, nil
}

// AttachIMA connects the tenant OS's IMA collector for continuous
// attestation (called after kexec into the tenant kernel).
func (a *Agent) AttachIMA(c *ima.Collector) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.imaCol = c
}

// IMAList returns the current measurement list (empty before the tenant
// OS attaches IMA). In process it cannot fail.
func (a *Agent) IMAList() ([]ima.Entry, error) {
	a.mu.Lock()
	c := a.imaCol
	a.mu.Unlock()
	if c == nil {
		return nil, nil
	}
	return c.List(), nil
}
