package httpjson

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// endless answers status and then streams a body that never ends; the
// handler returns once the client hangs up.
func endless(status int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		chunk := bytes.Repeat([]byte("x"), 32<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}
}

func TestDoBoundsTheErrorBody(t *testing.T) {
	srv := httptest.NewServer(endless(http.StatusBadGateway))
	defer srv.Close()
	var got []byte
	_, err := CallRaw(context.Background(), srv.Client(), "GET", srv.URL, nil, nil, nil, func(resp *http.Response, msg []byte) error {
		got = msg
		return fmt.Errorf("mapped: %s", resp.Status)
	})
	if err == nil || err.Error() != "mapped: 502 Bad Gateway" {
		t.Fatalf("err = %v, want the mapper's", err)
	}
	if len(got) != MaxErrorBody {
		t.Fatalf("mapper saw %d bytes of an endless body, want exactly %d", len(got), MaxErrorBody)
	}
}

func TestCallRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in struct{ N int }
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("request Content-Type = %q", ct)
		}
		if err := Decode(r, &in); err != nil {
			http.Error(w, "  "+err.Error()+"\n", http.StatusBadRequest)
			return
		}
		Reply(w, http.StatusAccepted, map[string]int{"n": in.N + 1})
	}))
	defer srv.Close()
	plain := func(resp *http.Response, msg []byte) error { return fmt.Errorf("%s: %s", resp.Status, msg) }

	var out struct{ N int }
	status, err := CallRaw(context.Background(), srv.Client(), "POST", srv.URL, nil, []byte(`{"N":41}`), &out, plain)
	if err != nil || status != http.StatusAccepted || out.N != 42 {
		t.Fatalf("CallRaw = %d, %v, out %+v", status, err, out)
	}
	// out == nil drains; Call marshals.
	if err := Call(context.Background(), srv.Client(), "POST", srv.URL, map[string]int{"N": 1}, nil, plain); err != nil {
		t.Fatal(err)
	}
	// A malformed body is the handler's 400, its text space-trimmed.
	_, err = CallRaw(context.Background(), srv.Client(), "POST", srv.URL, nil, []byte(`{`), nil, plain)
	if err == nil || !strings.HasPrefix(err.Error(), "400 Bad Request: unexpected EOF") {
		t.Fatalf("malformed body: %v", err)
	}
	// So is one past the cap.
	big := []byte(`{"pad":"` + strings.Repeat("a", MaxRequestBody) + `"}`)
	_, err = CallRaw(context.Background(), srv.Client(), "POST", srv.URL, nil, big, nil, plain)
	if err == nil || !strings.Contains(err.Error(), "request body too large") {
		t.Fatalf("oversized body: %v", err)
	}
}

func TestDoKeepsTheCallersContentType(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Saw", r.Header.Get("Content-Type"))
	}))
	defer srv.Close()
	hdr := http.Header{"Content-Type": {"application/octet-stream"}}
	resp, err := Do(context.Background(), srv.Client(), "POST", srv.URL, hdr, []byte{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if saw := resp.Header.Get("X-Saw"); saw != "application/octet-stream" {
		t.Fatalf("server saw Content-Type %q", saw)
	}
}

func TestReply(t *testing.T) {
	w := httptest.NewRecorder()
	Reply(w, http.StatusCreated, map[string]string{"a": "<b>"})
	if w.Code != http.StatusCreated || w.Header().Get("Content-Type") != "application/json" || w.Body.String() != "{\"a\":\"\\u003cb\\u003e\"}\n" {
		t.Fatalf("Reply = %d %q %q", w.Code, w.Header().Get("Content-Type"), w.Body.String())
	}
	w = httptest.NewRecorder()
	Reply(w, http.StatusNoContent, nil)
	if w.Code != http.StatusNoContent || w.Body.Len() != 0 || w.Header().Get("Content-Type") != "" {
		t.Fatalf("Reply(nil) = %d %q", w.Code, w.Body.String())
	}
	// A value that does not marshal is a 500, not a 2xx with half a body.
	w = httptest.NewRecorder()
	Reply(w, http.StatusOK, map[string]any{"f": func() {}})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "unsupported type") {
		t.Fatalf("Reply(unmarshalable) = %d %q", w.Code, w.Body.String())
	}
}

func TestSentinels(t *testing.T) {
	errGone, errDup, errBusy := errors.New("t: gone"), errors.New("t: dup"), errors.New("t: busy")
	ss := Sentinels{
		{Err: errGone, Tag: "gone", Status: http.StatusNotFound},
		{Err: errDup, Tag: "dup", Status: http.StatusConflict},
		{Err: errBusy, Tag: "busy", Status: http.StatusConflict},
	}
	for _, c := range []struct {
		err, is error
		status  int
		tag     string
	}{
		{fmt.Errorf("%w: x", errGone), errGone, http.StatusNotFound, "gone"},
		{fmt.Errorf("%w: x", errBusy), errBusy, http.StatusConflict, "busy"},
		{errors.New("other"), nil, http.StatusInternalServerError, ""},
	} {
		w := httptest.NewRecorder()
		ss.Write(w, c.err)
		if w.Code != c.status || w.Header().Get(sentinelHeader) != c.tag || strings.TrimSpace(w.Body.String()) != c.err.Error() {
			t.Errorf("Write(%v) = %d, tag %q, body %q", c.err, w.Code, w.Header().Get(sentinelHeader), w.Body.String())
		}
		// And back: the header decides, whatever the status says.
		resp := w.Result()
		got := ss.Error(resp, "t", "GET /x", []byte("msg"))
		if c.tag == "" {
			if got.Error() != "t: GET /x: 500 Internal Server Error: msg" {
				t.Errorf("Error(untagged 500) = %v", got)
			}
		} else if !errors.Is(got, c.is) || !strings.HasSuffix(got.Error(), ": GET /x: msg") {
			t.Errorf("Error(tag %q) = %v", c.tag, got)
		}
	}
	// A server that predates the header: the bare status means the
	// earlier row.
	bare := &http.Response{StatusCode: http.StatusConflict, Status: "409 Conflict", Header: http.Header{}}
	if got := ss.Error(bare, "t", "PUT /x", nil); !errors.Is(got, errDup) {
		t.Errorf("Error(bare 409) = %v, want the first 409 row", got)
	}
}
