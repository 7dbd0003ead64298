package keylime

import (
	"context"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"

	"bolted/internal/httpjson"
	"bolted/internal/ima"
	"bolted/internal/tpm"
)

// This file puts the Keylime components behind REST, matching the real
// project's deployment: the agent serves quotes and accepts key shares
// over HTTP on the node; the registrar serves enrolment. A verifier (or
// tenant) anywhere on the attestation network can then drive them via
// RemoteAgent / RegistrarClient, which satisfy the same interfaces as
// the in-process objects.

// --- wire encodings ---

type wireQuote struct {
	Nonce     string   `json:"nonce"`
	PCRSel    []int    `json:"pcr_sel"`
	PCRValues []string `json:"pcr_values"`
	BootCount uint64   `json:"boot_count"`
	Sig       string   `json:"sig"`
}

func quoteToWire(q *tpm.Quote) wireQuote {
	w := wireQuote{
		Nonce:     hex.EncodeToString(q.Nonce),
		PCRSel:    q.PCRSel,
		BootCount: q.BootCount,
		Sig:       hex.EncodeToString(q.Sig),
	}
	for _, v := range q.PCRValues {
		w.PCRValues = append(w.PCRValues, hex.EncodeToString(v[:]))
	}
	return w
}

func wireToQuote(w wireQuote) (*tpm.Quote, error) {
	nonce, err := hex.DecodeString(w.Nonce)
	if err != nil {
		return nil, err
	}
	sig, err := hex.DecodeString(w.Sig)
	if err != nil {
		return nil, err
	}
	q := &tpm.Quote{Nonce: nonce, PCRSel: w.PCRSel, BootCount: w.BootCount, Sig: sig}
	for _, s := range w.PCRValues {
		raw, err := hex.DecodeString(s)
		if err != nil || len(raw) != tpm.DigestSize {
			return nil, errors.New("keylime: bad PCR value encoding")
		}
		var d tpm.Digest
		copy(d[:], raw)
		q.PCRValues = append(q.PCRValues, d)
	}
	return q, nil
}

type wireIMAEntry struct {
	Path     string `json:"path"`
	FileHash string `json:"file_hash"`
	Hook     string `json:"hook"`
}

func imaToWire(es []ima.Entry) []wireIMAEntry {
	out := make([]wireIMAEntry, 0, len(es))
	for _, e := range es {
		out = append(out, wireIMAEntry{
			Path:     e.Path,
			FileHash: hex.EncodeToString(e.FileHash[:]),
			Hook:     string(e.Hook),
		})
	}
	return out
}

func wireToIMA(ws []wireIMAEntry) ([]ima.Entry, error) {
	out := make([]ima.Entry, 0, len(ws))
	for _, w := range ws {
		raw, err := hex.DecodeString(w.FileHash)
		if err != nil || len(raw) != tpm.DigestSize {
			return nil, errors.New("keylime: bad IMA hash encoding")
		}
		e := ima.Entry{Path: w.Path, Hook: ima.Hook(w.Hook)}
		copy(e.FileHash[:], raw)
		out = append(out, e)
	}
	return out, nil
}

func encodeECDSA(pub *ecdsa.PublicKey) string {
	var xy [64]byte
	pub.X.FillBytes(xy[:32])
	pub.Y.FillBytes(xy[32:])
	return hex.EncodeToString(xy[:])
}

func decodeECDSA(s string) (*ecdsa.PublicKey, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != 64 {
		return nil, errors.New("keylime: bad ECDSA key encoding")
	}
	pub := &ecdsa.PublicKey{
		Curve: elliptic.P256(),
		X:     new(big.Int).SetBytes(raw[:32]),
		Y:     new(big.Int).SetBytes(raw[32:]),
	}
	if !pub.Curve.IsOnCurve(pub.X, pub.Y) {
		return nil, errors.New("keylime: ECDSA point not on curve")
	}
	return pub, nil
}

// --- agent HTTP server ---

// NewAgentHandler serves an agent's REST API: quotes, IMA lists, and
// key-share delivery — what the real keylime agent exposes on the node.
func NewAgentHandler(a *Agent) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /quote", func(w http.ResponseWriter, r *http.Request) {
		nonce, err := hex.DecodeString(r.URL.Query().Get("nonce"))
		if err != nil || len(nonce) == 0 {
			http.Error(w, "bad nonce", http.StatusBadRequest)
			return
		}
		var sel []int
		for _, part := range strings.Split(r.URL.Query().Get("pcrs"), ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				http.Error(w, "bad pcr selection", http.StatusBadRequest)
				return
			}
			sel = append(sel, n)
		}
		q, err := a.Quote(nonce, sel, r.URL.Query().Get("from"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		httpjson.Reply(w, http.StatusOK, quoteToWire(q))
	})
	mux.HandleFunc("GET /ima", func(w http.ResponseWriter, r *http.Request) {
		list, _ := a.IMAList() // in process it cannot fail
		httpjson.Reply(w, http.StatusOK, imaToWire(list))
	})
	mux.HandleFunc("POST /keys/u", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ U string }
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		u, err := hex.DecodeString(req.U)
		if err != nil {
			http.Error(w, "bad key share", http.StatusBadRequest)
			return
		}
		a.ReceiveU(u)
	})
	mux.HandleFunc("POST /keys/v", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ V, Payload string }
		// The sealed payload carries a kernel and an initrd: this body is
		// not held to httpjson.Decode's policy-sized cap.
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, err1 := hex.DecodeString(req.V)
		payload, err2 := hex.DecodeString(req.Payload)
		if err1 != nil || err2 != nil {
			http.Error(w, "bad key share or payload", http.StatusBadRequest)
			return
		}
		a.ReceiveV(v, payload)
	})
	return mux
}

// call is one JSON round trip to an agent or a registrar; what names it
// in the error for a status >= 400.
func call(hc *http.Client, method, url, what string, body, out interface{}) error {
	return httpjson.Call(context.Background(), hc, method, url, body, out, func(resp *http.Response, msg []byte) error {
		return fmt.Errorf("keylime: %s: %s: %s", what, resp.Status, msg)
	})
}

// RemoteAgent drives an agent's REST API; it satisfies AgentConn, so a
// verifier can monitor nodes it only reaches over the network.
type RemoteAgent struct {
	uuid string
	Base string
	HTTP *http.Client
}

var _ AgentConn = (*RemoteAgent)(nil)

// NewRemoteAgent returns a client for an agent at base URL.
func NewRemoteAgent(uuid, base string) *RemoteAgent {
	return &RemoteAgent{uuid: uuid, Base: base, HTTP: http.DefaultClient}
}

// UUID implements AgentConn.
func (ra *RemoteAgent) UUID() string { return ra.uuid }

// Quote implements AgentConn.
func (ra *RemoteAgent) Quote(nonce []byte, sel []int, verifierPort string) (*tpm.Quote, error) {
	parts := make([]string, len(sel))
	for i, s := range sel {
		parts[i] = strconv.Itoa(s)
	}
	q := neturl.Values{
		"nonce": {hex.EncodeToString(nonce)},
		"pcrs":  {strings.Join(parts, ",")},
		"from":  {verifierPort},
	}
	var wq wireQuote
	if err := call(ra.HTTP, "GET", ra.Base+"/quote?"+q.Encode(), "remote quote", nil, &wq); err != nil {
		return nil, err
	}
	return wireToQuote(wq)
}

// IMAList implements AgentConn. A transport failure or an undecodable
// list is an error, as for Quote: an empty list in its place would fail
// the verifier's aggregate check and revoke the node as tampered.
func (ra *RemoteAgent) IMAList() ([]ima.Entry, error) {
	var ws []wireIMAEntry
	if err := call(ra.HTTP, "GET", ra.Base+"/ima", "/ima", nil, &ws); err != nil {
		return nil, err
	}
	return wireToIMA(ws)
}

// ReceiveU implements AgentConn.
func (ra *RemoteAgent) ReceiveU(u []byte) {
	_ = call(ra.HTTP, "POST", ra.Base+"/keys/u", "/keys/u", map[string]string{"U": hex.EncodeToString(u)}, nil)
}

// ReceiveV implements AgentConn.
func (ra *RemoteAgent) ReceiveV(v, sealedPayload []byte) {
	_ = call(ra.HTTP, "POST", ra.Base+"/keys/v", "/keys/v", map[string]string{
		"V": hex.EncodeToString(v), "Payload": hex.EncodeToString(sealedPayload),
	}, nil)
}

// --- registrar HTTP server ---

// NewRegistrarHandler serves the registrar's enrolment REST API.
func NewRegistrarHandler(reg *Registrar) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /agents/{uuid}/register", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ EK, AIK string }
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ekRaw, err := hex.DecodeString(req.EK)
		if err != nil {
			http.Error(w, "bad EK", http.StatusBadRequest)
			return
		}
		ek, err := ecdh.P256().NewPublicKey(ekRaw)
		if err != nil {
			http.Error(w, "bad EK point", http.StatusBadRequest)
			return
		}
		aik, err := decodeECDSA(req.AIK)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		blob, err := reg.Register(r.PathValue("uuid"), ek, aik)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		httpjson.Reply(w, http.StatusOK, map[string]string{
			"ephemeral":   hex.EncodeToString(blob.EphemeralPub),
			"nonce":       hex.EncodeToString(blob.Nonce),
			"ciphertext":  hex.EncodeToString(blob.Ciphertext),
			"aik_binding": hex.EncodeToString(blob.AIKBinding[:]),
		})
	})
	mux.HandleFunc("POST /agents/{uuid}/activate", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Proof string }
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		proof, err := hex.DecodeString(req.Proof)
		if err != nil {
			http.Error(w, "bad proof", http.StatusBadRequest)
			return
		}
		if err := reg.Activate(r.PathValue("uuid"), proof); err != nil {
			http.Error(w, err.Error(), http.StatusForbidden)
			return
		}
	})
	mux.HandleFunc("GET /agents/{uuid}/aik", func(w http.ResponseWriter, r *http.Request) {
		aik, err := reg.AIK(r.PathValue("uuid"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		httpjson.Reply(w, http.StatusOK, map[string]string{"aik": encodeECDSA(aik)})
	})
	mux.HandleFunc("GET /agents/{uuid}/ek", func(w http.ResponseWriter, r *http.Request) {
		ek, err := reg.EK(r.PathValue("uuid"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		httpjson.Reply(w, http.StatusOK, map[string]string{"ek": hex.EncodeToString(ek.Bytes())})
	})
	return mux
}

// RegistrarClient drives a registrar's REST API; it satisfies
// RegistrarConn, so agents can enrol with — and verifiers and tenants
// can look up certified keys from — a registrar they only reach over
// the network.
type RegistrarClient struct {
	Base string
	HTTP *http.Client
}

var _ RegistrarConn = (*RegistrarClient)(nil)

// NewRegistrarClient returns a client for the registrar API at base URL.
func NewRegistrarClient(base string) *RegistrarClient {
	return &RegistrarClient{Base: base, HTTP: http.DefaultClient}
}

// call is one round trip about one enrolled agent ("/agents/{uuid}" + sub).
func (rc *RegistrarClient) call(method, uuid, sub string, body, out interface{}) error {
	path := "/agents/" + neturl.PathEscape(uuid) + sub
	return call(rc.HTTP, method, rc.Base+path, path, body, out)
}

// Register implements RegistrarConn.
func (rc *RegistrarClient) Register(uuid string, ekPub *ecdh.PublicKey, aikPub *ecdsa.PublicKey) (*tpm.CredentialBlob, error) {
	if ekPub == nil || aikPub == nil {
		return nil, errors.New("keylime: registration needs EK and AIK")
	}
	var raw map[string]string
	err := rc.call("POST", uuid, "/register", map[string]string{
		"EK":  hex.EncodeToString(ekPub.Bytes()),
		"AIK": encodeECDSA(aikPub),
	}, &raw)
	if err != nil {
		return nil, err
	}
	blob := &tpm.CredentialBlob{}
	if blob.EphemeralPub, err = hex.DecodeString(raw["ephemeral"]); err != nil {
		return nil, err
	}
	if blob.Nonce, err = hex.DecodeString(raw["nonce"]); err != nil {
		return nil, err
	}
	if blob.Ciphertext, err = hex.DecodeString(raw["ciphertext"]); err != nil {
		return nil, err
	}
	binding, err := hex.DecodeString(raw["aik_binding"])
	if err != nil || len(binding) != tpm.DigestSize {
		return nil, errors.New("keylime: bad AIK binding")
	}
	copy(blob.AIKBinding[:], binding)
	return blob, nil
}

// Activate implements RegistrarConn.
func (rc *RegistrarClient) Activate(uuid string, proof []byte) error {
	return rc.call("POST", uuid, "/activate", map[string]string{
		"Proof": hex.EncodeToString(proof),
	}, nil)
}

// AIK implements RegistrarConn.
func (rc *RegistrarClient) AIK(uuid string) (*ecdsa.PublicKey, error) {
	var raw map[string]string
	if err := rc.call("GET", uuid, "/aik", nil, &raw); err != nil {
		return nil, err
	}
	return decodeECDSA(raw["aik"])
}

// EK implements RegistrarConn.
func (rc *RegistrarClient) EK(uuid string) (*ecdh.PublicKey, error) {
	var raw map[string]string
	if err := rc.call("GET", uuid, "/ek", nil, &raw); err != nil {
		return nil, err
	}
	ekRaw, err := hex.DecodeString(raw["ek"])
	if err != nil {
		return nil, err
	}
	return ecdh.P256().NewPublicKey(ekRaw)
}

// RegisterOverHTTP performs the agent's full enrolment dance against a
// registrar's REST endpoint. It is RegisterWith over a RegistrarClient.
func (a *Agent) RegisterOverHTTP(base, registrarPort string) error {
	return a.RegisterWith(context.Background(), NewRegistrarClient(base), registrarPort)
}
