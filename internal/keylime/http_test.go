package keylime

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"bolted/internal/ima"
)

// TestFullAttestationOverHTTP runs the complete Keylime flow with every
// component behind REST: the agent serves quotes/IMA/keys, the
// registrar serves enrolment, and the verifier reaches the node only
// through a RemoteAgent.
func TestFullAttestationOverHTTP(t *testing.T) {
	r := provisionOverHTTP(t, NewAgentHandler)

	// Continuous attestation through REST: measure, check, violate.
	col := ima.NewCollector(r.machine.TPM(), ima.StressPolicy)
	r.agent.AttachIMA(col)
	col.Measure("/bin/ok", []byte("ok"), ima.HookExec, 0)
	if v, err := r.verifier.CheckIMA("node1"); err != nil || len(v) != 0 {
		t.Fatalf("clean HTTP IMA check: %v %v", v, err)
	}
	col.Measure("/bin/evil", []byte("evil"), ima.HookExec, 0)
	v, err := r.verifier.CheckIMA("node1")
	if err != nil || len(v) != 1 {
		t.Fatalf("HTTP violation check: %v %v", v, err)
	}
	if status, _ := r.verifier.Status("node1"); status != StatusRevoked {
		t.Fatalf("status = %s", status)
	}
}

// TestIMAOutageOverHTTPNotRevoked: a stretch of 503s from the agent's
// /ima is an unreachable agent, not a tampered list. Each round fails
// with an error (the guard counts those against its FailureTolerance),
// none revokes the node, and checks pass again once /ima answers.
func TestIMAOutageOverHTTPNotRevoked(t *testing.T) {
	var down atomic.Bool
	r := provisionOverHTTP(t, func(a *Agent) http.Handler {
		h := NewAgentHandler(a)
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if down.Load() && req.URL.Path == "/ima" {
				http.Error(w, "agent busy", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, req)
		})
	})
	col := ima.NewCollector(r.machine.TPM(), ima.StressPolicy)
	r.agent.AttachIMA(col)
	col.Measure("/bin/ok", []byte("ok"), ima.HookExec, 0)
	down.Store(true)
	for round := 0; round < 5; round++ {
		if _, err := r.verifier.CheckIMA("node1"); err == nil {
			t.Fatalf("round %d: check passed with /ima answering 503", round)
		}
		if status, _ := r.verifier.Status("node1"); status == StatusRevoked {
			t.Fatalf("round %d: an unreachable /ima revoked the node", round)
		}
	}
	down.Store(false)
	if v, err := r.verifier.CheckIMA("node1"); err != nil || len(v) != 0 {
		t.Fatalf("check after the outage: %v %v", v, err)
	}
}

// provisionOverHTTP enrols node1 over HTTP and provisions it through a
// RemoteAgent for the agent handler serve builds, with an IMA whitelist
// that allows /bin/ok.
func provisionOverHTTP(t *testing.T, serve func(*Agent) http.Handler) *rig {
	t.Helper()
	r := newRig(t)

	agentSrv := httptest.NewServer(serve(r.agent))
	t.Cleanup(agentSrv.Close)
	regSrv := httptest.NewServer(NewRegistrarHandler(r.reg))
	t.Cleanup(regSrv.Close)

	// Enrolment over HTTP (credential activation round trip).
	if err := r.agent.RegisterOverHTTP(regSrv.URL, regPort); err != nil {
		t.Fatal(err)
	}
	aik, err := r.reg.AIK("node1")
	if err != nil || !aik.Equal(r.machine.TPM().AIKPublic()) {
		t.Fatalf("HTTP enrolment broken: %v", err)
	}

	// Attestation driven through the remote agent.
	remote := NewRemoteAgent("node1", agentSrv.URL)
	wl := ima.NewWhitelist()
	wl.AllowContent("/bin/ok", []byte("ok"))
	spec := r.spec()
	spec.IMAWhitelist = wl
	tenant := NewTenant(r.verifier)
	specRemote := ProvisionSpec{
		Payload:      spec.Payload,
		PlatformPCRs: spec.PlatformPCRs,
		IMAWhitelist: wl,
		HILMetadata:  spec.HILMetadata,
	}
	if _, err := tenant.Provision(context.Background(), r.reg, remote, specRemote); err != nil {
		t.Fatal(err)
	}
	// The V share and payload reached the real agent through its REST
	// endpoint; U too. Unwrap works on the node.
	p, err := r.agent.Unwrap()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Kernel, spec.Payload.Kernel) {
		t.Fatal("payload corrupted over HTTP")
	}
	return r
}

func TestAgentHTTPValidation(t *testing.T) {
	r := newRig(t)
	srv := httptest.NewServer(NewAgentHandler(r.agent))
	defer srv.Close()

	for _, url := range []string{
		srv.URL + "/quote?nonce=zz&pcrs=0",    // bad nonce
		srv.URL + "/quote?nonce=aabb&pcrs=x",  // bad pcr
		srv.URL + "/quote?nonce=&pcrs=0",      // empty nonce
		srv.URL + "/quote?nonce=aabb&pcrs=99", // out-of-range pcr
	} {
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("%s accepted", url)
		}
	}
}

func TestRegistrarHTTPValidation(t *testing.T) {
	r := newRig(t)
	srv := httptest.NewServer(NewRegistrarHandler(r.reg))
	defer srv.Close()

	post := func(path, body string) int {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/agents/x/register", `{"EK":"zz","AIK":"zz"}`); code == 200 {
		t.Error("garbage keys accepted")
	}
	if code := post("/agents/x/register", `not json`); code == 200 {
		t.Error("non-JSON accepted")
	}
	if code := post("/agents/x/activate", `{"Proof":"aabb"}`); code == 200 {
		t.Error("activation of unregistered agent accepted")
	}
	resp, _ := srv.Client().Get(srv.URL + "/agents/ghost/aik")
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("AIK of unknown agent served")
	}
}

func TestQuoteWireRoundTrip(t *testing.T) {
	r := newRig(t)
	q, err := r.machine.TPM().Quote([]byte("nonce"), []int{0, 4, 10})
	if err != nil {
		t.Fatal(err)
	}
	back, err := wireToQuote(quoteToWire(q))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Nonce, q.Nonce) || len(back.PCRValues) != 3 ||
		back.PCRValues[1] != q.PCRValues[1] || !bytes.Equal(back.Sig, q.Sig) {
		t.Fatal("quote wire round trip corrupted")
	}
}
