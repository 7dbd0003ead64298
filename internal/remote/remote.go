// Package remote is the transport seam that lets the enclave pipeline
// run against a deployment in another process: NewHandler puts the
// full Bolted service plane (HIL, BMI, Keylime registrar, and the
// node plane) behind one REST surface, and Dial builds a core.Cloud
// whose services are HTTP clients against that surface. The tenant's
// orchestration engine then trusts nothing but the wire API — the
// deployment shape of the paper's §4, where HIL, BMI and attestation
// are provider-run network services.
package remote

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/hil"
	"bolted/internal/httpjson"
	"bolted/internal/ima"
	"bolted/internal/keylime"
	"bolted/internal/tpm"
)

// Route prefixes of the combined surface. HIL stays at the root so
// existing HIL-only tooling keeps working against a full boltedd.
const (
	prefixBMI       = "/bmi"
	prefixRegistrar = "/registrar"
	prefixPlane     = "/plane"
)

// serverInfo describes a deployment to dialling tenants.
type serverInfo struct {
	Nodes       int    `json:"nodes"`
	Firmware    string `json:"firmware"`
	PlatformGen string `json:"platform_gen"`
}

// nodePlane serves the node-side pipeline steps over REST by
// delegating to the cloud's in-process driver, and fronts each booted
// node's Keylime agent under /nodes/{node}/agent/.
type nodePlane struct {
	cloud  *core.Cloud
	agents sync.Map // node -> the http.Handler of its running agent
}

// kexecRequest is the wire form of a kexec. Attested kexecs carry no
// kernel bytes: the node boots what its agent unwrapped.
type kexecRequest struct {
	KernelID string
	Kernel   []byte
	Initrd   []byte
	Attested bool
}

// routes is the node plane's REST surface. A driver failure is 409
// (the node is not in a state for the step), an unknown node's PCRs 404.
func (np *nodePlane) routes() *httpjson.Mux {
	conflict := func(err error) error { return httpjson.WithStatus(http.StatusConflict, err) }
	m := httpjson.NewMux(httpjson.WriteError)
	m.Row("POST /nodes/{node}/boot", func(r *http.Request) (int, any, error) {
		node := r.PathValue("node")
		conn, err := np.cloud.Driver.Boot(r.Context(), node)
		if err != nil {
			return 0, nil, conflict(err)
		}
		agent, ok := conn.(*keylime.Agent)
		if !ok {
			return 0, nil, errors.New("boltedd: driver returned a non-local agent")
		}
		np.agents.Store(node, keylime.NewAgentHandler(agent))
		return http.StatusOK, map[string]string{"uuid": conn.UUID()}, nil
	})
	m.Raw("/nodes/{node}/agent/", func(w http.ResponseWriter, r *http.Request) {
		node := r.PathValue("node")
		h, ok := np.agents.Load(node)
		if !ok {
			httpjson.WriteError(w, httpjson.WithStatus(http.StatusNotFound, fmt.Errorf("boltedd: node %q has no running agent", node)))
			return
		}
		http.StripPrefix("/nodes/"+node+"/agent", h.(http.Handler)).ServeHTTP(w, r)
	})
	m.Row("GET /nodes/{node}/pcrs", func(r *http.Request) (int, any, error) {
		pcrs, err := np.cloud.Driver.ExpectedBootPCRs(r.Context(), r.PathValue("node"))
		if err != nil {
			return 0, nil, httpjson.WithStatus(http.StatusNotFound, err)
		}
		wire := make(map[string][]string, len(pcrs))
		for pcr, ds := range pcrs {
			key := fmt.Sprintf("%d", pcr)
			for _, d := range ds {
				wire[key] = append(wire[key], hex.EncodeToString(d[:]))
			}
		}
		return http.StatusOK, wire, nil
	})
	m.Row("POST /nodes/{node}/kexec", func(r *http.Request) (int, any, error) {
		var req kexecRequest
		// A kexec carries a kernel and an initrd: this body is not held
		// to httpjson.Decode's policy-sized cap.
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return 0, nil, httpjson.WithStatus(http.StatusBadRequest, err)
		}
		if req.Attested {
			return http.StatusOK, nil, conflict(np.cloud.Driver.KexecAttested(r.Context(), r.PathValue("node"), req.KernelID))
		}
		return http.StatusOK, nil, conflict(np.cloud.Driver.Kexec(r.Context(), r.PathValue("node"), req.KernelID, req.Kernel, req.Initrd))
	})
	m.Row("POST /nodes/{node}/stop", func(r *http.Request) (int, any, error) {
		node := r.PathValue("node")
		if err := np.cloud.Driver.StopAgent(r.Context(), node); err != nil {
			return 0, nil, conflict(err)
		}
		np.agents.Delete(node)
		return http.StatusOK, nil, nil
	})
	// The collector stays attached to the node's agent server-side;
	// the tenant's verifier reads it through the agent's IMA list.
	m.Row("POST /nodes/{node}/ima", func(r *http.Request) (int, any, error) {
		_, err := np.cloud.Driver.StartIMA(r.Context(), r.PathValue("node"))
		return http.StatusOK, nil, conflict(err)
	})
	m.Row("PUT /ports/{port}", func(r *http.Request) (int, any, error) {
		return http.StatusCreated, nil, conflict(np.cloud.Driver.AddServicePort(r.Context(), r.PathValue("port")))
	})
	m.Row("GET /reachable", func(r *http.Request) (int, any, error) {
		from, to := r.URL.Query().Get("from"), r.URL.Query().Get("to")
		return http.StatusOK, nil, conflict(np.cloud.Driver.Reachable(r.Context(), from, to))
	})
	return m
}

// NewHandler exposes a fully in-process cloud's complete service plane
// over HTTP: HIL at /, BMI under /bmi, the Keylime registrar under
// /registrar, the node plane under /plane, and the versioned tenant
// control plane under /v1 (server-side enclaves with async
// acquisition Operations, backed by a fresh core.Manager). A tenant
// holding only this surface can run the entire enclave pipeline via
// Dial, or let the server run it via /v1.
func NewHandler(cloud *core.Cloud) (http.Handler, error) {
	return NewHandlerWithManager(cloud, core.NewManager(cloud))
}

// NewHandlerWithManager is NewHandler with a caller-owned control
// plane — for servers (and tests) that need to reach the Manager
// behind the /v1 surface.
func NewHandlerWithManager(cloud *core.Cloud, mgr *core.Manager) (http.Handler, error) {
	h, b, reg := cloud.LocalHIL(), cloud.LocalBMI(), cloud.LocalRegistrar()
	if h == nil || b == nil || reg == nil {
		return nil, fmt.Errorf("remote: handler needs an in-process cloud (got a remote one?)")
	}
	np := &nodePlane{cloud: cloud}
	info := serverInfo{Nodes: cloud.Config.Nodes, Firmware: string(cloud.Config.Firmware), PlatformGen: cloud.Config.PlatformGen}
	m := httpjson.NewMux(httpjson.WriteError)
	m.Raw(prefixBMI+"/", http.StripPrefix(prefixBMI, bmi.NewHandler(b)).ServeHTTP)
	m.Raw(prefixRegistrar+"/", http.StripPrefix(prefixRegistrar, keylime.NewRegistrarHandler(reg)).ServeHTTP)
	m.Raw(prefixPlane+"/", http.StripPrefix(prefixPlane, np.routes()).ServeHTTP)
	m.Raw(prefixV1+"/", http.StripPrefix(prefixV1, NewV1Handler(mgr)).ServeHTTP)
	m.Row("GET /info", func(*http.Request) (int, any, error) { return http.StatusOK, info, nil })
	m.Raw("/", hil.NewHandler(h).ServeHTTP)
	return m, nil
}

// nodeDriver implements core.NodeDriver against boltedd's node-plane
// REST API.
type nodeDriver struct {
	base string
	http *http.Client
}

var _ core.NodeDriver = (*nodeDriver)(nil)

func (d *nodeDriver) do(ctx context.Context, method, path string, body, out interface{}) error {
	return httpjson.Call(ctx, d.http, method, d.base+prefixPlane+path, body, out, func(resp *http.Response, msg []byte) error {
		return fmt.Errorf("remote: %s %s: %s: %s", method, path, resp.Status, msg)
	})
}

// Boot implements core.NodeDriver: the node boots server-side; the
// returned handle drives its agent's REST API.
func (d *nodeDriver) Boot(ctx context.Context, node string) (keylime.AgentConn, error) {
	if err := d.do(ctx, "POST", "/nodes/"+url.PathEscape(node)+"/boot", struct{}{}, nil); err != nil {
		return nil, err
	}
	agent := keylime.NewRemoteAgent(node, d.base+prefixPlane+"/nodes/"+url.PathEscape(node)+"/agent")
	agent.HTTP = sharedHTTPClient // keep agent round trips on the pooled transport
	return agent, nil
}

// ExpectedBootPCRs implements core.NodeDriver.
func (d *nodeDriver) ExpectedBootPCRs(ctx context.Context, node string) (map[int][]tpm.Digest, error) {
	var wire map[string][]string
	if err := d.do(ctx, "GET", "/nodes/"+url.PathEscape(node)+"/pcrs", nil, &wire); err != nil {
		return nil, err
	}
	out := make(map[int][]tpm.Digest, len(wire))
	for key, ds := range wire {
		var pcr int
		if _, err := fmt.Sscanf(key, "%d", &pcr); err != nil {
			return nil, fmt.Errorf("remote: bad PCR index %q", key)
		}
		for _, s := range ds {
			raw, err := hex.DecodeString(s)
			if err != nil || len(raw) != tpm.DigestSize {
				return nil, fmt.Errorf("remote: bad PCR digest for %d", pcr)
			}
			var dig tpm.Digest
			copy(dig[:], raw)
			out[pcr] = append(out[pcr], dig)
		}
	}
	return out, nil
}

// KexecAttested implements core.NodeDriver.
func (d *nodeDriver) KexecAttested(ctx context.Context, node, kernelID string) error {
	return d.do(ctx, "POST", "/nodes/"+url.PathEscape(node)+"/kexec", kexecRequest{KernelID: kernelID, Attested: true}, nil)
}

// Kexec implements core.NodeDriver.
func (d *nodeDriver) Kexec(ctx context.Context, node, kernelID string, kernel, initrd []byte) error {
	return d.do(ctx, "POST", "/nodes/"+url.PathEscape(node)+"/kexec", kexecRequest{KernelID: kernelID, Kernel: kernel, Initrd: initrd}, nil)
}

// StartIMA implements core.NodeDriver: the collector lives on the
// node; the tenant reads measurements through the agent.
func (d *nodeDriver) StartIMA(ctx context.Context, node string) (*ima.Collector, error) {
	return nil, d.do(ctx, "POST", "/nodes/"+url.PathEscape(node)+"/ima", struct{}{}, nil)
}

// StopAgent implements core.NodeDriver.
func (d *nodeDriver) StopAgent(ctx context.Context, node string) error {
	return d.do(ctx, "POST", "/nodes/"+url.PathEscape(node)+"/stop", struct{}{}, nil)
}

// AddServicePort implements core.NodeDriver.
func (d *nodeDriver) AddServicePort(ctx context.Context, name string) error {
	return d.do(ctx, "PUT", "/ports/"+url.PathEscape(name), nil, nil)
}

// Reachable implements core.NodeDriver.
func (d *nodeDriver) Reachable(ctx context.Context, portA, portB string) error {
	q := url.Values{"from": {portA}, "to": {portB}}
	return d.do(ctx, "GET", "/reachable?"+q.Encode(), nil, nil)
}

// Dial connects to a boltedd serving the full service plane and
// returns a Cloud whose HIL, BMI, Keylime registrar and node driver
// are HTTP clients against it. The returned Cloud runs the same
// enclave pipeline as an in-process one — AcquireNodes provisions a
// concurrent batch entirely over the wire.
func Dial(serverURL string) (*core.Cloud, error) {
	base := strings.TrimRight(serverURL, "/")
	// Bound the probe: a blackholed server must not hang the dial
	// (http.DefaultClient has no timeout).
	infoClient := &http.Client{Timeout: 30 * time.Second}
	resp, err := httpjson.Do(context.Background(), infoClient, "GET", base+"/info", nil, nil, func(resp *http.Response, _ []byte) error {
		return fmt.Errorf("%s (not a full-surface boltedd?)", resp.Status)
	})
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", serverURL, err)
	}
	defer resp.Body.Close()
	var info serverInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("remote: dial %s: bad server info: %w", serverURL, err)
	}
	cfg := core.CloudConfig{
		Nodes:       info.Nodes,
		Firmware:    core.FirmwareKind(info.Firmware),
		PlatformGen: info.PlatformGen,
	}
	// All four service clients ride the shared pooled transport: a
	// concurrent batch multiplexes its request storm over a few
	// kept-alive connections instead of dialing per request.
	hilCli := hil.NewClient(base)
	hilCli.HTTP = sharedHTTPClient
	bmiCli := bmi.NewClient(base + prefixBMI)
	bmiCli.HTTP = sharedHTTPClient
	regCli := keylime.NewRegistrarClient(base + prefixRegistrar)
	regCli.HTTP = sharedHTTPClient
	return core.NewRemoteCloud(cfg, core.RemoteServices{
		HIL:       hilCli,
		BMI:       bmiCli,
		Registrar: regCli,
		Driver:    &nodeDriver{base: base, http: sharedHTTPClient},
	})
}
