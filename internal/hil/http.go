package hil

import (
	"context"
	"net/http"
	"net/url"

	"bolted/internal/httpjson"
)

// This file provides HIL's REST surface, mirroring the real project's
// HTTP API, so tenant tooling (cmd/boltedctl) and the transport-
// agnostic orchestrator drive the service the same way they would drive
// a deployed HIL. The surface covers everything the enclave pipeline
// needs, so Client satisfies the orchestrator's HILService interface.

// sentinels are the error classes whose identity crosses the wire.
var sentinels = httpjson.Sentinels{
	{Err: ErrNotFound, Tag: "not-found", Status: http.StatusNotFound},
	{Err: ErrUnauthorized, Tag: "unauthorized", Status: http.StatusForbidden},
	{Err: ErrInUse, Tag: "in-use", Status: http.StatusConflict},
}

// NewHandler exposes a Service over HTTP.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	writeErr := sentinels.Write
	// serve adapts a route that reads no body: it answers status with
	// what h returns as JSON (nothing, for nil) or h's error, mapped.
	serve := func(status int, h func(r *http.Request) (interface{}, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			body, err := h(r)
			if err != nil {
				writeErr(w, err)
				return
			}
			httpjson.Reply(w, status, body)
		}
	}

	mux.HandleFunc("PUT /projects/{project}", serve(http.StatusCreated, func(r *http.Request) (interface{}, error) {
		return nil, s.CreateProject(r.PathValue("project"))
	}))
	mux.HandleFunc("DELETE /projects/{project}", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		return nil, s.DeleteProject(r.PathValue("project"))
	}))
	mux.HandleFunc("GET /nodes/free", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		return s.FreeNodes()
	}))
	mux.HandleFunc("PUT /nodes/{node}", func(w http.ResponseWriter, r *http.Request) {
		// Admin operation: register a node with its switch port and
		// provider-published metadata. The BMC stays provider-side; a
		// node registered over the wire gets power ops only if the
		// service later learns its BMC by other means.
		var req struct {
			Port     string
			Metadata map[string]string
		}
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.RegisterNode(r.PathValue("node"), req.Port, nil, req.Metadata); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("GET /nodes/{node}/metadata", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		return s.NodeMetadata(r.PathValue("node"))
	}))
	mux.HandleFunc("GET /nodes/{node}/owner", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		owner, err := s.NodeOwner(r.PathValue("node"))
		return map[string]string{"owner": owner}, err
	}))
	mux.HandleFunc("GET /nodes/{node}/port", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		port, err := s.NodePort(r.PathValue("node"))
		return map[string]string{"port": port}, err
	}))
	mux.HandleFunc("POST /projects/{project}/nodes", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Node string }
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var err error
		node := req.Node
		if node == "" {
			node, err = s.AllocateAnyNode(r.Context(), r.PathValue("project"))
		} else {
			err = s.AllocateNode(r.Context(), r.PathValue("project"), node)
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		httpjson.Reply(w, http.StatusOK, map[string]string{"node": node})
	})
	mux.HandleFunc("DELETE /projects/{project}/nodes/{node}", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		return nil, s.FreeNode(r.Context(), r.PathValue("project"), r.PathValue("node"))
	}))
	mux.HandleFunc("POST /projects/{project}/nodes/{node}/transfer", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ To string }
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.TransferNode(r.Context(), r.PathValue("project"), r.PathValue("node"), req.To); err != nil {
			writeErr(w, err)
			return
		}
	})
	mux.HandleFunc("PUT /projects/{project}/networks/{network}", serve(http.StatusCreated, func(r *http.Request) (interface{}, error) {
		return nil, s.CreateNetwork(r.Context(), r.PathValue("project"), r.PathValue("network"))
	}))
	mux.HandleFunc("DELETE /projects/{project}/networks/{network}", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		return nil, s.DeleteNetwork(r.Context(), r.PathValue("project"), r.PathValue("network"))
	}))
	mux.HandleFunc("PUT /projects/{project}/nodes/{node}/networks/{network}", serve(http.StatusCreated, func(r *http.Request) (interface{}, error) {
		return nil, s.ConnectNode(r.Context(), r.PathValue("project"), r.PathValue("node"), r.PathValue("network"))
	}))
	mux.HandleFunc("DELETE /projects/{project}/nodes/{node}/networks/{network}", serve(http.StatusOK, func(r *http.Request) (interface{}, error) {
		return nil, s.DetachNode(r.Context(), r.PathValue("project"), r.PathValue("node"), r.PathValue("network"))
	}))
	mux.HandleFunc("PUT /service-ports/{port}/networks/{network}", serve(http.StatusCreated, func(r *http.Request) (interface{}, error) {
		return nil, s.ConnectServicePort(r.PathValue("port"), r.PathValue("network"))
	}))
	mux.HandleFunc("POST /projects/{project}/nodes/{node}/power", func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Op string }
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var err error
		switch req.Op {
		case "on":
			err = s.PowerOn(r.Context(), r.PathValue("project"), r.PathValue("node"))
		case "off":
			err = s.PowerOff(r.Context(), r.PathValue("project"), r.PathValue("node"))
		case "cycle":
			err = s.PowerCycle(r.Context(), r.PathValue("project"), r.PathValue("node"))
		default:
			http.Error(w, "unknown power op "+req.Op, http.StatusBadRequest)
			return
		}
		if err != nil {
			writeErr(w, err)
		}
	})
	return mux
}

// Client is an HTTP client for a remote HIL service. Its methods mirror
// *Service exactly, including sentinel-error semantics: errors.Is
// against ErrNotFound / ErrUnauthorized / ErrInUse behaves the same
// whether the service is in-process or across the wire.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a client for the HIL API at base URL.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: http.DefaultClient}
}

func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	return httpjson.Call(ctx, c.HTTP, method, c.Base+path, body, out, func(resp *http.Response, msg []byte) error {
		return sentinels.Error(resp, "hil", method+" "+path, msg)
	})
}

// CreateProject creates a project.
func (c *Client) CreateProject(name string) error {
	return c.do(context.Background(), "PUT", "/projects/"+url.PathEscape(name), nil, nil)
}

// DeleteProject removes an empty project.
func (c *Client) DeleteProject(name string) error {
	return c.do(context.Background(), "DELETE", "/projects/"+url.PathEscape(name), nil, nil)
}

// FreeNodes lists unallocated nodes.
func (c *Client) FreeNodes() ([]string, error) {
	var out []string
	err := c.do(context.Background(), "GET", "/nodes/free", nil, &out)
	return out, err
}

// RegisterNode registers a node with its switch port and provider
// metadata (admin operation; the BMC never crosses the wire).
func (c *Client) RegisterNode(name, port string, metadata map[string]string) error {
	return c.do(context.Background(), "PUT", "/nodes/"+url.PathEscape(name), map[string]interface{}{
		"Port": port, "Metadata": metadata,
	}, nil)
}

// AllocateNode reserves a specific free node into a project.
func (c *Client) AllocateNode(ctx context.Context, project, node string) error {
	return c.do(ctx, "POST", "/projects/"+url.PathEscape(project)+"/nodes", map[string]string{"Node": node}, nil)
}

// AllocateAnyNode reserves an arbitrary free node and returns its name.
func (c *Client) AllocateAnyNode(ctx context.Context, project string) (string, error) {
	var out struct{ Node string }
	err := c.do(ctx, "POST", "/projects/"+url.PathEscape(project)+"/nodes", map[string]string{"Node": ""}, &out)
	return out.Node, err
}

// TransferNode moves an owned node between projects without passing
// through the free pool (the quarantine path).
func (c *Client) TransferNode(ctx context.Context, from, node, to string) error {
	return c.do(ctx, "POST", "/projects/"+url.PathEscape(from)+"/nodes/"+url.PathEscape(node)+"/transfer", map[string]string{"To": to}, nil)
}

// FreeNode releases a node back to the free pool.
func (c *Client) FreeNode(ctx context.Context, project, node string) error {
	return c.do(ctx, "DELETE", "/projects/"+url.PathEscape(project)+"/nodes/"+url.PathEscape(node), nil, nil)
}

// CreateNetwork allocates a tenant network.
func (c *Client) CreateNetwork(ctx context.Context, project, network string) error {
	return c.do(ctx, "PUT", "/projects/"+url.PathEscape(project)+"/networks/"+url.PathEscape(network), nil, nil)
}

// DeleteNetwork frees a tenant network.
func (c *Client) DeleteNetwork(ctx context.Context, project, network string) error {
	return c.do(ctx, "DELETE", "/projects/"+url.PathEscape(project)+"/networks/"+url.PathEscape(network), nil, nil)
}

// ConnectNode attaches a node to a network.
func (c *Client) ConnectNode(ctx context.Context, project, node, network string) error {
	return c.do(ctx, "PUT", "/projects/"+url.PathEscape(project)+"/nodes/"+url.PathEscape(node)+"/networks/"+url.PathEscape(network), nil, nil)
}

// DetachNode removes a node from a network.
func (c *Client) DetachNode(ctx context.Context, project, node, network string) error {
	return c.do(ctx, "DELETE", "/projects/"+url.PathEscape(project)+"/nodes/"+url.PathEscape(node)+"/networks/"+url.PathEscape(network), nil, nil)
}

// ConnectServicePort attaches a service host's switch port to a public
// network as a promiscuous member.
func (c *Client) ConnectServicePort(port, publicNet string) error {
	return c.do(context.Background(), "PUT", "/service-ports/"+url.PathEscape(port)+"/networks/"+url.PathEscape(publicNet), nil, nil)
}

// NodeMetadata fetches a node's provider-published metadata.
func (c *Client) NodeMetadata(node string) (map[string]string, error) {
	var out map[string]string
	err := c.do(context.Background(), "GET", "/nodes/"+url.PathEscape(node)+"/metadata", nil, &out)
	return out, err
}

// NodeOwner reports which project owns a node ("" if free).
func (c *Client) NodeOwner(node string) (string, error) {
	var out struct{ Owner string }
	err := c.do(context.Background(), "GET", "/nodes/"+url.PathEscape(node)+"/owner", nil, &out)
	return out.Owner, err
}

// NodePort returns a node's switch port name.
func (c *Client) NodePort(node string) (string, error) {
	var out struct{ Port string }
	err := c.do(context.Background(), "GET", "/nodes/"+url.PathEscape(node)+"/port", nil, &out)
	return out.Port, err
}

// Power issues a power operation: "on", "off" or "cycle".
func (c *Client) Power(ctx context.Context, project, node, op string) error {
	return c.do(ctx, "POST", "/projects/"+url.PathEscape(project)+"/nodes/"+url.PathEscape(node)+"/power", map[string]string{"Op": op}, nil)
}

// PowerOn powers on an owned node via its BMC.
func (c *Client) PowerOn(ctx context.Context, project, node string) error {
	return c.Power(ctx, project, node, "on")
}

// PowerOff powers off an owned node via its BMC.
func (c *Client) PowerOff(ctx context.Context, project, node string) error {
	return c.Power(ctx, project, node, "off")
}

// PowerCycle power-cycles an owned node via its BMC.
func (c *Client) PowerCycle(ctx context.Context, project, node string) error {
	return c.Power(ctx, project, node, "cycle")
}
