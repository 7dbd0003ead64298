package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/hil"
	"bolted/internal/httpjson"
	"bolted/internal/keylime"
)

// lie answers status and then streams a body that never ends — a peer
// trying to grow its caller without limit. It returns once the client
// hangs up.
func lie(status int) http.HandlerFunc {
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

// TestLyingPeerErrorBodies: every wire client, one row per family, reads a
// bounded piece of an error body — the call returns, its error keeps the
// family's prefix or sentinel, and its text holds at most
// httpjson.MaxErrorBody of what the peer sent.
func TestLyingPeerErrorBodies(t *testing.T) {
	ctx := context.Background()
	// The export transport is only reached through an export that exists.
	exports := http.NewServeMux()
	exports.HandleFunc("PUT /exports/{node}", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusCreated) })
	exports.HandleFunc("DELETE /exports/{node}", func(http.ResponseWriter, *http.Request) {})
	exports.Handle("/", lie(http.StatusInternalServerError))

	for _, c := range []struct {
		name   string
		peer   http.Handler
		call   func(base string) error
		prefix string // of the error text, or
		is     error  // the sentinel it must wrap
	}{
		{"hil", lie(http.StatusInternalServerError), func(base string) error {
			return hil.NewClient(base).CreateProject("p")
		}, "hil: PUT /projects/p: 500 Internal Server Error: xxx", nil},
		{"hil sentinel by status", lie(http.StatusNotFound), func(base string) error {
			_, err := hil.NewClient(base).NodeOwner("n")
			return err
		}, "", hil.ErrNotFound},
		{"bmi", lie(http.StatusInternalServerError), func(base string) error {
			_, err := bmi.NewClient(base).ListImages()
			return err
		}, "bmi: GET /images: 500 Internal Server Error: xxx", nil},
		{"bmi sentinel by status", lie(http.StatusConflict), func(base string) error {
			return bmi.NewClient(base).DeleteImage(ctx, "img")
		}, "", bmi.ErrExists},
		{"bmi export io", exports, func(base string) error {
			_, err := bmi.NewClient(base).ExportForBoot(ctx, "n", "img", true)
			return err
		}, "blockdev: size negotiation: bmi: export io n: 500 Internal Server Error: xxx", nil},
		{"keylime agent", lie(http.StatusServiceUnavailable), func(base string) error {
			_, err := keylime.NewRemoteAgent("n", base).Quote([]byte{1}, []int{0}, "port")
			return err
		}, "keylime: remote quote: 503 Service Unavailable: xxx", nil},
		{"keylime registrar", lie(http.StatusInternalServerError), func(base string) error {
			_, err := keylime.NewRegistrarClient(base).AIK("u")
			return err
		}, "keylime: /agents/u/aik: 500 Internal Server Error: xxx", nil},
		{"node plane", lie(http.StatusConflict), func(base string) error {
			return (&nodeDriver{base: base, http: http.DefaultClient}).StopAgent(ctx, "n")
		}, "remote: POST /nodes/n/stop: 409 Conflict: xxx", nil},
		{"v1", lie(http.StatusBadGateway), func(base string) error {
			_, err := NewV1Client(base).GetEnclave(ctx, "e")
			return err
		}, "remote: transport error: 502 Bad Gateway: xxx", ErrTransport},
		{"dial", lie(http.StatusInternalServerError), func(base string) error {
			_, err := Dial(base)
			return err
		}, "remote: dial ", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := httptest.NewServer(c.peer)
			defer srv.Close()
			done := make(chan error, 1)
			go func() { done <- c.call(srv.URL) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the call is still reading the peer's endless error body")
			}
			if err == nil {
				t.Fatal("no error from a peer that answered one")
			}
			text := err.Error()
			// What the peer sent, bounded, plus the call's own few words.
			if len(text) > httpjson.MaxErrorBody+256 {
				t.Fatalf("error text is %d bytes", len(text))
			}
			if !strings.HasPrefix(text, c.prefix) {
				t.Fatalf("error = %.120q, want prefix %q", text, c.prefix)
			}
			if c.is != nil && !errors.Is(err, c.is) {
				t.Fatalf("error = %.120q, want it to wrap %v", text, c.is)
			}
		})
	}
}

// ctRecorder notes what one response said about itself.
type ctRecorder struct {
	http.ResponseWriter
	status, wrote int
}

func (r *ctRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *ctRecorder) Write(b []byte) (int, error) {
	r.wrote += len(b)
	return r.ResponseWriter.Write(b)
}

// TestRawPlaneContentType: every 2xx reply with a body, on each of the four
// raw planes (and the per-node agent API the node plane fronts), says
// application/json — all but the export's block frames. A full charlie
// acquisition and release over Dial visits them all.
func TestRawPlaneContentType(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Nodes = 2
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.BMI.CreateOSImage("fedora28", testSpec()); err != nil {
		t.Fatal(err)
	}
	handler, err := NewHandler(cloud)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	jsonReplies := map[string]int{} // by plane
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &ctRecorder{ResponseWriter: w, status: http.StatusOK}
		handler.ServeHTTP(rec, r)
		if rec.status >= 300 || rec.wrote == 0 || strings.HasSuffix(r.URL.Path, "/io") {
			return
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s answered %d with %d bytes as %q", r.Method, r.URL.Path, rec.status, rec.wrote, ct)
		}
		plane := "hil"
		for _, p := range []string{prefixBMI, prefixRegistrar, prefixPlane} {
			if strings.HasPrefix(r.URL.Path, p+"/") {
				plane = p
			}
		}
		if strings.Contains(r.URL.Path, "/agent/") {
			plane = "agent"
		}
		mu.Lock()
		jsonReplies[plane]++
		mu.Unlock()
	}))
	defer srv.Close()

	remoteCloud, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEnclave(remoteCloud, "tenant", core.ProfileCharlie)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AcquireNodes(context.Background(), "fedora28", 2)
	if err != nil || len(res.Nodes) != 2 {
		t.Fatalf("acquire over the wire: %v, %+v", err, res)
	}
	if _, err := remoteCloud.HIL.FreeNodes(); err != nil {
		t.Fatal(err)
	}
	if _, err := remoteCloud.BMI.ListImages(); err != nil {
		t.Fatal(err)
	}
	if _, err := remoteCloud.Registrar.EK(res.Nodes[0].Name); err != nil {
		t.Fatal(err)
	}
	if err := e.ReleaseNode(res.Nodes[0].Name, ""); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, plane := range []string{"hil", prefixBMI, prefixRegistrar, prefixPlane, "agent"} {
		if jsonReplies[plane] == 0 {
			t.Errorf("no JSON reply seen on plane %q: %v", plane, jsonReplies)
		}
	}
}

// verbSegments spells the three custom-verb wildcards the way tenants (and
// the README) write them.
var verbSegments = strings.NewReplacer(
	"{idverb}", "{id}:cancel", "{enclaveverb}", "{enclave}:drain", "{nodeverb}", "{node}:reclaim")

var wildcard = regexp.MustCompile(`\{[a-z]+\}`)

// probe sends one request to a row with every wildcard set to ghost, the
// name of nothing that exists, and returns the status, the Content-Type
// and the envelope (zero when the body is not one).
func probe(t *testing.T, base, pattern, ghost, body string) (int, string, errorEnvelope) {
	t.Helper()
	method, path, _ := strings.Cut(verbSegments.Replace(pattern), " ")
	req, err := http.NewRequest(method, base+wildcard.ReplaceAllString(path, ghost), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var env errorEnvelope
	_ = json.Unmarshal(raw, &env)
	return resp.StatusCode, resp.Header.Get("Content-Type"), env
}

// TestV1RouteTable ranges over the route table: a row whose path names
// something that does not exist answers the typed envelope, never a bare
// http.Error string, and every row is documented in a README route table
// — so a route someone adds and forgets to document fails here.
func TestV1RouteTable(t *testing.T) {
	_, mgr, cli := startV1Server(t, 2)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	// A quota may be set before its tenant exists, so that row succeeds.
	succeeds := map[string]bool{"PUT /quotas/{tenant}": true}
	rows := (&v1{mgr: mgr}).routes()
	if len(rows) < 34 {
		t.Fatalf("route table has %d rows", len(rows))
	}
	for i, rt := range rows {
		method, path, _ := strings.Cut(verbSegments.Replace(rt.pattern), " ")
		doc := "| `" + method + " " + prefixV1 + path
		if !bytes.Contains(readme, []byte(doc+"`")) && !bytes.Contains(readme, []byte(doc+"[")) {
			t.Errorf("%s: no README route table has a row starting %q", rt.pattern, doc)
		}
		if !strings.Contains(rt.pattern, "{") {
			continue
		}
		status, ct, env := probe(t, cli.base, rt.pattern, fmt.Sprint("ghost", i), "{}") // what one row creates, the next must not find
		if succeeds[rt.pattern] {
			if status >= 300 {
				t.Errorf("%s on an unknown name = %d, listed as succeeding", rt.pattern, status)
			}
			continue
		}
		if status < 400 || ct != "application/json" || env.Error.Code == "" || env.Error.Message == "" {
			t.Errorf("%s on an unknown name = %d %q %+v, want a typed error envelope", rt.pattern, status, ct, env)
		}
	}
}

// TestV1RequestBodies: every row that takes a request body answers a
// malformed one, and one past the size cap, with the typed
// invalid_argument envelope; a row that takes none ignores what is sent.
func TestV1RequestBodies(t *testing.T) {
	_, mgr, cli := startV1Server(t, 2)
	takesBody := map[string]bool{
		"POST /enclaves":                      true,
		"POST /enclaves/{name}/nodes:acquire": true,
		"PUT /pools/{enclave}":                true,
		"PUT /quotas/{tenant}":                true,
		"PUT /resilience":                     true,
		"PUT /enclaves/{name}/resilience":     true,
		"PUT /enclaves/{name}/guard":          true,
	}
	oversized := `{"pad":"` + strings.Repeat("a", httpjson.MaxRequestBody) + `"}`
	seen := 0
	for _, rt := range (&v1{mgr: mgr}).routes() {
		if !strings.HasPrefix(rt.pattern, "POST ") && !strings.HasPrefix(rt.pattern, "PUT ") {
			continue
		}
		status, ct, env := probe(t, cli.base, rt.pattern, "ghost", "{")
		refused := status == http.StatusBadRequest && ct == "application/json" && env.Error.Code == codeInvalid
		if refused != takesBody[rt.pattern] {
			t.Errorf("%s with a malformed body = %d %+v; takes a body: %v", rt.pattern, status, env, takesBody[rt.pattern])
		}
		if !takesBody[rt.pattern] {
			continue
		}
		seen++
		status, ct, env = probe(t, cli.base, rt.pattern, "ghost", oversized)
		if status != http.StatusBadRequest || ct != "application/json" || env.Error.Code != codeInvalid ||
			!strings.Contains(env.Error.Message, "request body too large") {
			t.Errorf("%s with a body past the cap = %d %q %+v", rt.pattern, status, ct, env)
		}
	}
	if seen != len(takesBody) {
		t.Errorf("%d of the %d body-taking rows are in the route table", seen, len(takesBody))
	}
}

// TestGuardInfoWire pins the guard resource's bytes: GuardInfo IS
// guard.Status, so a field added there would otherwise change /v1 silently.
func TestGuardInfoWire(t *testing.T) {
	got, err := json.Marshal(GuardInfo{
		Enclave: "lab", Rounds: 3, Checks: 6, Revocations: 1, Paused: true, Incidents: []string{"inc-0001"},
		Policy: GuardPolicyInfo{Interval: time.Second, MaxConcurrent: 4, FailureTolerance: 2, CoalesceWindow: time.Millisecond, SelfHeal: true, Image: "fedora28"},
	})
	const want = `{"enclave":"lab","policy":{"interval_ns":1000000000,"max_concurrent":4,"failure_tolerance":2,` +
		`"coalesce_window_ns":1000000,"self_heal":true,"image":"fedora28"},"rounds":3,"checks":6,"revocations":1,` +
		`"paused":true,"incidents":["inc-0001"]}`
	if err != nil || string(got) != want {
		t.Fatalf("GuardInfo on the wire = %s, %v\nwant %s", got, err, want)
	}
	// Every field is set above: a new one, omitempty or not, shows here.
	if n, m := reflect.TypeOf(GuardInfo{}).NumField(), reflect.TypeOf(GuardPolicyInfo{}).NumField(); n != 7 || m != 6 {
		t.Fatalf("guard.Status has %d fields and guard.Policy %d: pin the new ones above", n, m)
	}
}
