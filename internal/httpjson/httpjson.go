// Package httpjson is the one way a JSON request crosses HTTP in this
// repository. The client half sends a request on the caller's
// *http.Client, hands a status >= 400 and a bounded piece of its body to
// the caller's own error mapper, and decodes or drains a 2xx; the server
// half writes a JSON reply and reads a size-capped request body. Every
// wire client (hil, bmi, keylime, remote) and every handler goes through
// it, so what a peer on the other side of the tenant↔provider boundary
// can make this side read is bounded here and nowhere else.
package httpjson

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
)

const (
	// MaxErrorBody bounds what a client reads of a non-2xx body (and of a
	// 2xx body it only drains): the peer is the less trusted side, and an
	// error message worth showing fits.
	MaxErrorBody = 64 << 10
	// MaxRequestBody bounds a request body Decode reads. It is sized for
	// policy JSON; bodies that carry kernels or block frames do not come
	// through Decode.
	MaxRequestBody = 1 << 20
)

// ErrorFunc turns a response with a status >= 400 into the caller's
// error. msg is at most MaxErrorBody of the body, space-trimmed.
type ErrorFunc func(resp *http.Response, msg []byte) error

// Marshal renders a request body; a nil v is no body.
func Marshal(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	return json.Marshal(v)
}

// Do runs one round trip and returns the 2xx response for the caller to
// read and close. body is sent as is, as application/json unless hdr
// names another Content-Type; a nil body sends none. A status >= 400
// comes back as onError's error, the response closed.
func Do(ctx context.Context, hc *http.Client, method, url string, hdr http.Header, body []byte, onError ErrorFunc) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if body != nil && req.Header.Get("Content-Type") == "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, MaxErrorBody)) // what arrived before a read error is still the best message
		return nil, onError(resp, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// CallRaw is Do for a JSON reply: a 2xx body is decoded into out, or
// drained when out is nil so the keep-alive connection goes back to the
// pool. It reports the status so callers can tell 200 from 202.
func CallRaw(ctx context.Context, hc *http.Client, method, url string, hdr http.Header, body []byte, out any, onError ErrorFunc) (int, error) {
	resp, err := Do(ctx, hc, method, url, hdr, body, onError)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.CopyN(io.Discard, resp.Body, MaxErrorBody) // a longer body costs the connection, not the caller
	return resp.StatusCode, nil
}

// Call is CallRaw for a body still to be marshalled.
func Call(ctx context.Context, hc *http.Client, method, url string, body, out any, onError ErrorFunc) error {
	b, err := Marshal(body)
	if err != nil {
		return err
	}
	_, err = CallRaw(ctx, hc, method, url, nil, b, out, onError)
	return err
}

// replyBufs recycles the buffers Reply encodes into.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Reply answers status with v as application/json, byte for byte what
// json.Encoder sends, in one Write; a nil v sends the status alone. v is
// encoded before the header goes out, so a value that does not marshal
// is a plain 500 and not a 2xx with half a body.
func Reply(w http.ResponseWriter, status int, v any) {
	if v == nil {
		w.WriteHeader(status)
		return
	}
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the peer hanging up is not the handler's error
}

// Decode reads r's JSON body into v, refusing more than MaxRequestBody.
// (No ResponseWriter is handed to MaxBytesReader: all it would add is
// closing the connection early, which the server does anyway when the
// unread rest of an oversized body is large.)
func Decode(r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxRequestBody)).Decode(v)
}

// Sentinels is how a raw plane's error classes keep their identity across
// the wire: the server names the class in the X-Bolted-Error header beside
// its status, and the client maps the header — or, from a server that
// predates it, the bare status — back onto the sentinel, so errors.Is
// behaves the same in process and over HTTP. Where two classes share a
// status, the earlier row is the one the bare status means.
type Sentinels []struct {
	Err    error
	Tag    string
	Status int
}

const sentinelHeader = "X-Bolted-Error"

// Write answers err as plain text under the first row it wraps, or 500.
func (ss Sentinels) Write(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	for _, s := range ss {
		if errors.Is(err, s.Err) {
			w.Header().Set(sentinelHeader, s.Tag)
			status = s.Status
			break
		}
	}
	http.Error(w, err.Error(), status)
}

// Error is the client's error for a status >= 400 and its bounded body:
// "<sentinel>: what: msg" when a row matches, "pkg: what: status: msg"
// otherwise. what names the call ("GET /images").
func (ss Sentinels) Error(resp *http.Response, pkg, what string, msg []byte) error {
	tag := resp.Header.Get(sentinelHeader)
	var byStatus error
	for _, s := range ss {
		if s.Tag == tag {
			return fmt.Errorf("%w: %s: %s", s.Err, what, msg)
		}
		if byStatus == nil && s.Status == resp.StatusCode {
			byStatus = s.Err
		}
	}
	if byStatus != nil {
		return fmt.Errorf("%w: %s: %s", byStatus, what, msg)
	}
	return fmt.Errorf("%s: %s: %s: %s", pkg, what, resp.Status, msg)
}
