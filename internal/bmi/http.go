package bmi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"

	"bolted/internal/blockdev"
	"bolted/internal/httpjson"
)

// This file provides BMI's REST surface so tenant tooling and the
// transport-agnostic orchestrator can manage images AND boot exports
// remotely — mirroring the real M2/BMI HTTP API. Binary image content
// travels base64-encoded inside JSON (the volumes here are
// simulation-sized); block I/O against an export travels as raw
// request/response frames of the blockdev wire protocol, the
// iSCSI-like path a diskless node uses to page in its image.

// sentinels are the error classes whose identity crosses the wire. A
// bare 409 from a server that predates the header means ErrExists.
var sentinels = httpjson.Sentinels{
	{Err: ErrNotFound, Tag: "not-found", Status: http.StatusNotFound},
	{Err: ErrExists, Tag: "exists", Status: http.StatusConflict},
	{Err: ErrInUse, Tag: "in-use", Status: http.StatusConflict},
}

// NewHandler exposes a Service over HTTP.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	writeErr := sentinels.Write

	mux.HandleFunc("GET /images", func(w http.ResponseWriter, r *http.Request) {
		imgs, err := s.ListImages()
		if err != nil {
			writeErr(w, err)
			return
		}
		httpjson.Reply(w, http.StatusOK, imgs)
	})
	mux.HandleFunc("GET /images/{name}", func(w http.ResponseWriter, r *http.Request) {
		img, err := s.GetImage(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		httpjson.Reply(w, http.StatusOK, map[string]interface{}{
			"name": img.Name, "size": img.Size, "snapshot": img.Snapshot,
		})
	})
	mux.HandleFunc("PUT /images/{name}", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Size int64
			OS   *OSImageSpec
		}
		// An OS spec carries a kernel, an initrd and a root file system:
		// this body is not held to httpjson.Decode's policy-sized cap.
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var err error
		if req.OS != nil {
			_, err = s.CreateOSImage(r.PathValue("name"), *req.OS)
		} else {
			_, err = s.CreateImage(r.Context(), r.PathValue("name"), req.Size)
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("DELETE /images/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.DeleteImage(r.Context(), r.PathValue("name")); err != nil {
			writeErr(w, err)
		}
	})
	mux.HandleFunc("POST /images/{name}/clone", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Target   string
			Snapshot bool
		}
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var err error
		if req.Snapshot {
			_, err = s.SnapshotImage(r.Context(), r.PathValue("name"), req.Target)
		} else {
			_, err = s.CloneImage(r.Context(), r.PathValue("name"), req.Target)
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("GET /images/{name}/bootinfo", func(w http.ResponseWriter, r *http.Request) {
		bi, err := s.ExtractBootInfo(r.Context(), r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		httpjson.Reply(w, http.StatusOK, bi)
	})
	mux.HandleFunc("PUT /exports/{node}", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Image string
			Cow   bool
		}
		if err := httpjson.Decode(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := s.ExportForBoot(r.Context(), r.PathValue("node"), req.Image, req.Cow); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("DELETE /exports/{node}", func(w http.ResponseWriter, r *http.Request) {
		saveAs := r.URL.Query().Get("save-as")
		if err := s.Unexport(r.Context(), r.PathValue("node"), saveAs); err != nil {
			writeErr(w, err)
		}
	})
	mux.HandleFunc("POST /exports/{node}/io", func(w http.ResponseWriter, r *http.Request) {
		e, err := s.GetExport(r.PathValue("node"))
		if err != nil {
			writeErr(w, err)
			return
		}
		frame, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := e.Target.Handle(frame)
		if err != nil {
			// Device-level failures travel in-band as protocol error
			// frames; only a malformed frame lands here.
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(resp)
	})
	return mux
}

// Client is an HTTP client for a remote BMI service. Its methods mirror
// *Service exactly, including sentinel-error semantics: errors.Is
// against ErrNotFound / ErrExists / ErrInUse behaves the same whether
// the service is in-process or across the wire.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a client for the BMI API at base URL.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: http.DefaultClient}
}

func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	return httpjson.Call(ctx, c.HTTP, method, c.Base+path, body, out, func(resp *http.Response, msg []byte) error {
		return sentinels.Error(resp, "bmi", method+" "+path, msg)
	})
}

// ListImages lists image names.
func (c *Client) ListImages() ([]string, error) {
	var out []string
	err := c.do(context.Background(), "GET", "/images", nil, &out)
	return out, err
}

// GetImage looks up an image.
func (c *Client) GetImage(name string) (*Image, error) {
	var out struct {
		Name     string `json:"name"`
		Size     int64  `json:"size"`
		Snapshot bool   `json:"snapshot"`
	}
	if err := c.do(context.Background(), "GET", "/images/"+url.PathEscape(name), nil, &out); err != nil {
		return nil, err
	}
	return &Image{Name: out.Name, Size: out.Size, Snapshot: out.Snapshot}, nil
}

// CreateImage allocates an empty image.
func (c *Client) CreateImage(ctx context.Context, name string, size int64) (*Image, error) {
	if err := c.do(ctx, "PUT", "/images/"+url.PathEscape(name), map[string]interface{}{"Size": size}, nil); err != nil {
		return nil, err
	}
	return &Image{Name: name, Size: size}, nil
}

// CreateOSImage builds a bootable OS image remotely.
func (c *Client) CreateOSImage(name string, spec OSImageSpec) (*Image, error) {
	if err := c.do(context.Background(), "PUT", "/images/"+url.PathEscape(name), map[string]interface{}{"OS": &spec}, nil); err != nil {
		return nil, err
	}
	return c.GetImage(name)
}

// DeleteImage removes an image.
func (c *Client) DeleteImage(ctx context.Context, name string) error {
	return c.do(ctx, "DELETE", "/images/"+url.PathEscape(name), nil, nil)
}

// CloneImage copies an image.
func (c *Client) CloneImage(ctx context.Context, src, dst string) (*Image, error) {
	if err := c.do(ctx, "POST", "/images/"+url.PathEscape(src)+"/clone", map[string]interface{}{"Target": dst}, nil); err != nil {
		return nil, err
	}
	return c.GetImage(dst)
}

// SnapshotImage creates an immutable snapshot.
func (c *Client) SnapshotImage(ctx context.Context, src, snap string) (*Image, error) {
	if err := c.do(ctx, "POST", "/images/"+url.PathEscape(src)+"/clone", map[string]interface{}{"Target": snap, "Snapshot": true}, nil); err != nil {
		return nil, err
	}
	return c.GetImage(snap)
}

// ExtractBootInfo fetches an image's kernel/initrd/cmdline.
func (c *Client) ExtractBootInfo(ctx context.Context, name string) (*BootInfo, error) {
	var out BootInfo
	err := c.do(ctx, "GET", "/images/"+url.PathEscape(name)+"/bootinfo", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// exportTransport moves blockdev wire-protocol frames to a remote
// export over HTTP — the iSCSI session of the diskless boot path.
type exportTransport struct {
	c    *Client
	node string
}

// octetStream marks a request body as a raw frame, not JSON.
var octetStream = http.Header{"Content-Type": {"application/octet-stream"}}

// RoundTrip implements blockdev.Transport.
func (t *exportTransport) RoundTrip(req []byte) ([]byte, error) {
	resp, err := httpjson.Do(context.Background(), t.c.HTTP, "POST", t.c.Base+"/exports/"+url.PathEscape(t.node)+"/io", octetStream, req,
		func(resp *http.Response, msg []byte) error {
			return sentinels.Error(resp, "bmi", "export io "+t.node, msg)
		})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// ExportForBoot creates the node's boot target on the server and
// returns an Export whose Target proxies block I/O over HTTP, so the
// caller assembles exactly the same transport/encryption stack as for
// an in-process export.
func (c *Client) ExportForBoot(ctx context.Context, node, image string, cow bool) (*Export, error) {
	err := c.do(ctx, "PUT", "/exports/"+url.PathEscape(node), map[string]interface{}{"Image": image, "Cow": cow}, nil)
	if err != nil {
		return nil, err
	}
	// No read-ahead here: the caller's own block client (the node's
	// NBD initiator) decides the read-ahead policy, and a second cache
	// below it would only duplicate prefetches over the wire.
	dev, err := blockdev.NewClient(&exportTransport{c: c, node: node}, 0)
	if err != nil {
		// The export exists server-side but is unusable; tear it down.
		_ = c.Unexport(context.Background(), node, "")
		return nil, err
	}
	return &Export{Node: node, Image: image, Target: blockdev.NewTarget(dev)}, nil
}

// Unexport tears down a node's boot target, optionally persisting its
// CoW state as a new image.
func (c *Client) Unexport(ctx context.Context, node, saveAs string) error {
	path := "/exports/" + url.PathEscape(node)
	if saveAs != "" {
		path += "?save-as=" + url.QueryEscape(saveAs)
	}
	return c.do(ctx, "DELETE", path, nil, nil)
}
