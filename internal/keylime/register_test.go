package keylime

import (
	"context"
	"crypto/ecdh"
	"crypto/ecdsa"
	"errors"
	"net/http/httptest"
	"testing"

	"bolted/internal/firmware"
	"bolted/internal/tpm"
)

// countingConn forwards to a RegistrarConn and counts each method. It can
// also lie on the two lookups: aikErr fails every AIK call, ekLie replaces
// the EK the registrar answers with.
type countingConn struct {
	RegistrarConn
	aikErr error
	ekLie  *ecdh.PublicKey

	register, activate, aik, ek int
}

func (c *countingConn) Register(uuid string, ekPub *ecdh.PublicKey, aikPub *ecdsa.PublicKey) (*tpm.CredentialBlob, error) {
	c.register++
	return c.RegistrarConn.Register(uuid, ekPub, aikPub)
}

func (c *countingConn) Activate(uuid string, proof []byte) error {
	c.activate++
	return c.RegistrarConn.Activate(uuid, proof)
}

func (c *countingConn) AIK(uuid string) (*ecdsa.PublicKey, error) {
	c.aik++
	if c.aikErr != nil {
		return nil, c.aikErr
	}
	return c.RegistrarConn.AIK(uuid)
}

func (c *countingConn) EK(uuid string) (*ecdh.PublicKey, error) {
	c.ek++
	if c.ekLie != nil {
		return c.ekLie, nil
	}
	return c.RegistrarConn.EK(uuid)
}

// enrol runs the full enrolment of agent against the rig's registrar.
func enrol(t *testing.T, r *rig, agent *Agent) {
	t.Helper()
	if err := agent.RegisterWith(context.Background(), r.reg, regPort); err != nil {
		t.Fatal(err)
	}
}

// otherMachine is a second blade on the rig's node port: same firmware,
// its own TPM.
func otherMachine(t *testing.T) *firmware.Machine {
	t.Helper()
	m, err := firmware.NewMachine("node2", "node-port", firmware.NewLinuxBoot(heads, "m620"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PowerOn(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRegisterWithContract pins when Agent.RegisterWith runs the
// MakeCredential/ActivateCredential enrolment and when it leaves the
// registrar alone. Every row runs against the registrar in process and
// through a RegistrarClient over HTTP.
func TestRegisterWithContract(t *testing.T) {
	rows := []struct {
		name string
		// Background: the registrar state the node boots into.
		// Test logic: what RegisterWith must do about it.
		setup func(t *testing.T, r *rig, c *countingConn)
		// Calls RegisterWith must make.
		register, activate, aik, ek int
	}{
		{
			// Background: a node's first boot; the registrar has never
			// heard of its uuid.
			// Test logic: the AIK lookup fails, so the node does exactly
			// one Register and one Activate, and its AIK ends certified.
			name:     "first-boot",
			setup:    func(*testing.T, *rig, *countingConn) {},
			register: 1, activate: 1, aik: 1,
		},
		{
			// Background: the node was enrolled, then power-cycled. The
			// TPM reset clears PCRs but keeps EK and AIK.
			// Test logic: a new agent on the rebooted machine finds its
			// AIK and EK certified and writes nothing: zero Register and
			// Activate calls, one lookup of each key.
			name: "reboot",
			setup: func(t *testing.T, r *rig, _ *countingConn) {
				enrol(t, r, r.agent)
				boots := r.machine.TPM().BootCount()
				if err := r.machine.PowerCycle(); err != nil {
					t.Fatal(err)
				}
				if r.machine.TPM().BootCount() != boots+1 {
					t.Fatal("power cycle did not reset the TPM")
				}
				r.agent = NewAgent("node1", r.machine, r.fabric)
			},
			aik: 1, ek: 1,
		},
		{
			// Background: an earlier boot registered the node's keys
			// but never completed activation.
			// Test logic: an unactivated AIK proves nothing, so the
			// lookup fails and the node runs the full enrolment.
			name: "registered-not-activated",
			setup: func(t *testing.T, r *rig, _ *countingConn) {
				if _, err := r.reg.Register("node1", r.agent.EKPublic(), r.agent.AIKPublic()); err != nil {
					t.Fatal(err)
				}
			},
			register: 1, activate: 1, aik: 1,
		},
		{
			// Background: the registrar certifies another TPM under
			// this uuid (the blade's TPM was swapped).
			// Test logic: the AIK differs, so the EK is never looked up,
			// the node runs the full enrolment, and its own AIK replaces
			// the other one.
			name: "other-tpm-same-uuid",
			setup: func(t *testing.T, r *rig, _ *countingConn) {
				enrol(t, r, NewAgent("node1", otherMachine(t), r.fabric))
			},
			register: 1, activate: 1, aik: 1,
		},
		{
			// Background: the certified AIK matches, but the registrar
			// answers with another TPM's EK.
			// Test logic: both keys must match, so the node runs the
			// full enrolment.
			name: "ek-mismatch",
			setup: func(t *testing.T, r *rig, c *countingConn) {
				enrol(t, r, r.agent)
				c.ekLie = otherMachine(t).TPM().EKPublic()
			},
			register: 1, activate: 1, aik: 1, ek: 1,
		},
		{
			// Background: the node is enrolled, but the AIK lookup
			// fails (a transient registrar fault).
			// Test logic: a lookup error never counts as certified; the
			// node falls back to the full enrolment.
			name: "aik-lookup-error",
			setup: func(t *testing.T, r *rig, c *countingConn) {
				enrol(t, r, r.agent)
				c.aikErr = errors.New("registrar unavailable")
			},
			register: 1, activate: 1, aik: 1,
		},
	}
	transports := []struct {
		name string
		conn func(t *testing.T, reg *Registrar) RegistrarConn
	}{
		{"in-process", func(_ *testing.T, reg *Registrar) RegistrarConn { return reg }},
		{"http", func(t *testing.T, reg *Registrar) RegistrarConn {
			srv := httptest.NewServer(NewRegistrarHandler(reg))
			t.Cleanup(srv.Close)
			return NewRegistrarClient(srv.URL)
		}},
	}
	for _, tr := range transports {
		for _, row := range rows {
			t.Run(tr.name+"/"+row.name, func(t *testing.T) {
				r := newRig(t)
				c := &countingConn{RegistrarConn: tr.conn(t, r.reg)}
				row.setup(t, r, c)
				if err := r.agent.RegisterWith(context.Background(), c, regPort); err != nil {
					t.Fatal(err)
				}
				if c.register != row.register || c.activate != row.activate || c.aik != row.aik || c.ek != row.ek {
					t.Fatalf("calls Register=%d Activate=%d AIK=%d EK=%d, want %d %d %d %d",
						c.register, c.activate, c.aik, c.ek, row.register, row.activate, row.aik, row.ek)
				}
				aik, err := r.reg.AIK("node1")
				if err != nil || !aik.Equal(r.machine.TPM().AIKPublic()) {
					t.Fatalf("certified AIK is not this TPM's: %v", err)
				}
				ek, err := r.reg.EK("node1")
				if err != nil || !ek.Equal(r.machine.TPM().EKPublic()) {
					t.Fatalf("certified EK is not this TPM's: %v", err)
				}
			})
		}
	}
}

// BenchmarkAgentRegisterWith prices enrolment on a node's first boot
// (MakeCredential in the registrar, ActivateCredential in the TPM) and
// on a reboot, where the registrar already certifies the TPM's keys.
func BenchmarkAgentRegisterWith(b *testing.B) {
	b.Run("first-boot", func(b *testing.B) {
		r := newRig(b)
		b.ReportAllocs()
		for b.Loop() {
			if err := r.agent.RegisterWith(context.Background(), NewRegistrar(), regPort); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reboot", func(b *testing.B) {
		r := newRig(b)
		if err := r.agent.RegisterWith(context.Background(), r.reg, regPort); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if err := r.agent.RegisterWith(context.Background(), r.reg, regPort); err != nil {
				b.Fatal(err)
			}
		}
	})
}
