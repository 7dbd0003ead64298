package core

import (
	"context"
	"sync/atomic"
	"testing"

	"bolted/internal/firmware"
)

// countEnrolments counts the registrar.Register calls that cross c's
// seam. Each one makes the registrar run tpm.MakeCredential, and the
// node's TPM run ActivateCredential on the blob it returns.
func countEnrolments(c *Cloud) *atomic.Int64 {
	var n atomic.Int64
	c.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		if call.Backend == BackendRegistrar && call.Method == "Register" {
			n.Add(1)
		}
		return next(ctx)
	})
	return &n
}

// TestReacquireSkipsEnrolmentNotQuote checks the security property of
// enrolling a node only once. Background: a TPM's EK and AIK survive a
// power cycle, so the registrar's certification of a released node
// still holds when it is booted again. Test logic: acquire the one node
// of a cloud, release it and acquire it again; the second acquisition
// makes no credential exchange, takes exactly one fresh quote and ends
// joined. Then reflash the node's firmware between a release and an
// acquisition: the node is still certified, and its quote still rejects it.
func TestReacquireSkipsEnrolmentNotQuote(t *testing.T) {
	c := testCloud(t, 1, FirmwareLinuxBoot)
	enrolments := countEnrolments(c)
	e, err := NewEnclave(c, "charlie", ProfileCharlie)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	n, err := e.AcquireNode(ctx, "fedora28")
	if err != nil {
		t.Fatal(err)
	}
	if got := enrolments.Load(); got != 1 {
		t.Fatalf("first boot made %d enrolments, want 1", got)
	}
	if err := e.ReleaseNode(n.Name, ""); err != nil {
		t.Fatal(err)
	}

	m, err := c.Machine(n.Name)
	if err != nil {
		t.Fatal(err)
	}
	quotes := m.TPM().QuoteCount()
	n2, err := e.AcquireNode(ctx, "fedora28")
	if err != nil {
		t.Fatal(err)
	}
	if n2.Name != n.Name {
		t.Fatalf("reacquired %s, want %s", n2.Name, n.Name)
	}
	if got := enrolments.Load(); got != 1 {
		t.Fatalf("reboot made %d more enrolments, want 0", got-1)
	}
	if got := m.TPM().QuoteCount() - quotes; got != 1 {
		t.Fatalf("reacquisition took %d quotes, want 1", got)
	}
	if st := e.NodeState(n.Name); st != StateAllocated {
		t.Fatalf("node state = %s, want %s", st, StateAllocated)
	}
	trail := e.Journal().ByNode(n.Name)
	if last := trail[len(trail)-1].Kind; last != EvJoined {
		t.Fatalf("last event = %s, want %s", last, EvJoined)
	}

	if err := e.ReleaseNode(n.Name, ""); err != nil {
		t.Fatal(err)
	}
	evil := firmware.BuildLinuxBoot("heads-v1.0", []byte("implanted heads"))
	m.ReflashFirmware(firmware.NewLinuxBoot(evil, "m620"))
	quotes = m.TPM().QuoteCount()
	if _, err := e.AcquireNode(ctx, "fedora28"); err == nil {
		t.Fatal("reflashed node passed attestation")
	}
	if got := enrolments.Load(); got != 1 {
		t.Fatalf("reflashed reboot made %d more enrolments, want 0", got-1)
	}
	if got := m.TPM().QuoteCount() - quotes; got != 1 {
		t.Fatalf("reflashed node took %d quotes, want 1", got)
	}
	if _, ok := c.Rejected()[n.Name]; !ok {
		t.Fatalf("reflashed node not in the rejected pool: %v", c.Rejected())
	}
}
