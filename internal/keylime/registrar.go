package keylime

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"bolted/internal/tpm"
)

// RegistrarConn is the component-side view of a registrar: enrolment
// for agents, certified-key lookup for verifiers and tenants. It is
// satisfied by *Registrar in process and by *RegistrarClient over HTTP,
// so a tenant-run verifier can use a provider registrar it only reaches
// over the network.
type RegistrarConn interface {
	Register(uuid string, ekPub *ecdh.PublicKey, aikPub *ecdsa.PublicKey) (*tpm.CredentialBlob, error)
	Activate(uuid string, proof []byte) error
	AIK(uuid string) (*ecdsa.PublicKey, error)
	EK(uuid string) (*ecdh.PublicKey, error)
}

// Registrar stores and certifies agents' attestation identity keys. It
// is a pure trust root: it holds no tenant secrets (§5). An AIK is
// certified only after the agent proves, via TPM credential activation,
// that the AIK lives in the same TPM as the claimed endorsement key.
type Registrar struct {
	mu      sync.Mutex
	entries map[string]*regEntry
}

type regEntry struct {
	ekPub     *ecdh.PublicKey
	aikPub    *ecdsa.PublicKey
	challenge []byte // secret the agent must prove knowledge of
	activated bool
}

// NewRegistrar creates an empty registrar.
func NewRegistrar() *Registrar {
	return &Registrar{entries: make(map[string]*regEntry)}
}

// Register begins enrolment of an agent's keys and returns the
// credential blob challenge. Agent.RegisterWith calls it on a node's
// first boot and whenever the registrar does not already certify that
// TPM's AIK and EK (a new AIK, a swapped TPM, an entry never
// activated); a reboot of a certified node does not. Re-registration
// replaces the entry and restarts the binding from scratch: the AIK is
// uncertified until the new credential is activated.
func (r *Registrar) Register(uuid string, ekPub *ecdh.PublicKey, aikPub *ecdsa.PublicKey) (*tpm.CredentialBlob, error) {
	if uuid == "" || ekPub == nil || aikPub == nil {
		return nil, errors.New("keylime: registration needs uuid, EK and AIK")
	}
	secret := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, secret); err != nil {
		return nil, err
	}
	blob, err := tpm.MakeCredential(ekPub, tpm.AIKBinding(aikPub), secret)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.entries[uuid] = &regEntry{ekPub: ekPub, aikPub: aikPub, challenge: secret}
	r.mu.Unlock()
	return blob, nil
}

// activationProof is what the agent returns: HMAC(secret, uuid), proving
// it recovered the challenge without revealing it on the wire.
func activationProof(secret []byte, uuid string) []byte {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(uuid))
	return mac.Sum(nil)
}

// Activate completes enrolment: the proof demonstrates the agent's TPM
// decrypted the challenge, binding AIK to EK.
func (r *Registrar) Activate(uuid string, proof []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[uuid]
	if !ok {
		return fmt.Errorf("keylime: unknown agent %q", uuid)
	}
	if !hmac.Equal(proof, activationProof(e.challenge, uuid)) {
		return errors.New("keylime: activation proof invalid")
	}
	e.activated = true
	return nil
}

// AIK returns an agent's certified attestation key; it fails before
// activation completes — an unactivated AIK proves nothing.
func (r *Registrar) AIK(uuid string) (*ecdsa.PublicKey, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[uuid]
	if !ok {
		return nil, fmt.Errorf("keylime: unknown agent %q", uuid)
	}
	if !e.activated {
		return nil, fmt.Errorf("keylime: agent %q not activated", uuid)
	}
	return e.aikPub, nil
}

// EK returns the endorsement key an agent registered with, for tenants
// to compare against the provider-published node metadata (anti-
// spoofing: the node you attest is the node HIL says you reserved).
func (r *Registrar) EK(uuid string) (*ecdh.PublicKey, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[uuid]
	if !ok {
		return nil, fmt.Errorf("keylime: unknown agent %q", uuid)
	}
	if !e.activated {
		return nil, fmt.Errorf("keylime: agent %q not activated", uuid)
	}
	return e.ekPub, nil
}
