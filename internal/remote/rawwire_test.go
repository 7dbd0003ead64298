package remote

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bolted/internal/bmi"
	"bolted/internal/hil"
	"bolted/internal/httpjson"
	"bolted/internal/keylime"
)

var update = flag.Bool("update", false, "rewrite testdata/rawplane.golden from this run")

// rawCall is one request of the raw-plane wire golden. row names the
// plane and the ServeMux pattern it exercises; random marks a reply
// whose body carries fresh keys, nonces or signatures and so is not
// recorded (its status and headers still are).
type rawCall struct {
	row, method, path, body string
	random                  bool
}

// rawCalls visits every row of the raw planes — HIL at /, BMI, the
// registrar, the node plane and the agent API it fronts — in an order
// where each call sees what the earlier ones made: a name that does not
// exist, a malformed body where the row reads one, and a valid request.
// p256X and p256Y are the P-256 base point: a public key the registrar
// accepts for both the EK and the AIK, and one whose reply bytes are fixed.
const (
	p256X = "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
	p256Y = "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"
)

var rawCalls = []rawCall{
	{"root GET /info", "GET", "/info", "", false},
	{"root unrouted", "GET", "/no/such/route", "", false},
	{"root unrouted", "GET", "/projects/ghost", "", false},

	{"hil PUT /projects/{project}", "PUT", "/projects/tenant", "", false},
	{"hil PUT /projects/{project}", "PUT", "/projects/tenant", "", false},
	{"hil PUT /projects/{project}", "PUT", "/projects/other", "", false},
	{"hil DELETE /projects/{project}", "DELETE", "/projects/ghost", "", false},
	{"hil GET /nodes/free", "GET", "/nodes/free", "", false},
	{"hil PUT /nodes/{node}", "PUT", "/nodes/node99", "{", false},
	{"hil PUT /nodes/{node}", "PUT", "/nodes/node00", `{"Port":"port-node00"}`, false},
	{"hil PUT /nodes/{node}", "PUT", "/nodes/node99", `{"Port":"port-node99","Metadata":{"rack":"r9"}}`, false},
	{"hil GET /nodes/{node}/metadata", "GET", "/nodes/ghost/metadata", "", false},
	{"hil GET /nodes/{node}/metadata", "GET", "/nodes/node99/metadata", "", false},
	{"hil GET /nodes/{node}/owner", "GET", "/nodes/ghost/owner", "", false},
	{"hil GET /nodes/{node}/owner", "GET", "/nodes/node00/owner", "", false},
	{"hil GET /nodes/{node}/port", "GET", "/nodes/ghost/port", "", false},
	{"hil GET /nodes/{node}/port", "GET", "/nodes/node00/port", "", false},
	{"hil POST /projects/{project}/nodes", "POST", "/projects/ghost/nodes", `{"Node":""}`, false},
	{"hil POST /projects/{project}/nodes", "POST", "/projects/tenant/nodes", "{", false},
	{"hil POST /projects/{project}/nodes", "POST", "/projects/tenant/nodes", `{"Node":"ghost"}`, false},
	{"hil POST /projects/{project}/nodes", "POST", "/projects/tenant/nodes", `{"Node":"node00"}`, false},
	{"hil POST /projects/{project}/nodes", "POST", "/projects/other/nodes", `{"Node":"node00"}`, false},
	{"hil POST /projects/{project}/nodes", "POST", "/projects/tenant/nodes", `{"Node":""}`, false},
	{"hil PUT /projects/{project}/networks/{network}", "PUT", "/projects/ghost/networks/net", "", false},
	{"hil PUT /projects/{project}/networks/{network}", "PUT", "/projects/tenant/networks/net", "", false},
	{"hil PUT /projects/{project}/nodes/{node}/networks/{network}", "PUT", "/projects/ghost/nodes/ghost/networks/ghost", "", false},
	{"hil PUT /projects/{project}/nodes/{node}/networks/{network}", "PUT", "/projects/other/nodes/node00/networks/net", "", false},
	{"hil PUT /projects/{project}/nodes/{node}/networks/{network}", "PUT", "/projects/tenant/nodes/node00/networks/net", "", false},
	{"hil DELETE /projects/{project}/networks/{network}", "DELETE", "/projects/ghost/networks/ghost", "", false},
	{"hil DELETE /projects/{project}/networks/{network}", "DELETE", "/projects/tenant/networks/net", "", false},
	{"hil DELETE /projects/{project}/nodes/{node}/networks/{network}", "DELETE", "/projects/ghost/nodes/ghost/networks/ghost", "", false},
	{"hil DELETE /projects/{project}/nodes/{node}/networks/{network}", "DELETE", "/projects/tenant/nodes/node00/networks/net", "", false},
	{"hil DELETE /projects/{project}/networks/{network}", "DELETE", "/projects/tenant/networks/net", "", false},
	{"hil PUT /service-ports/{port}/networks/{network}", "PUT", "/service-ports/ghost/networks/ghost", "", false},
	{"hil POST /projects/{project}/nodes/{node}/power", "POST", "/projects/ghost/nodes/ghost/power", `{"Op":"on"}`, false},
	{"hil POST /projects/{project}/nodes/{node}/power", "POST", "/projects/tenant/nodes/node00/power", "{", false},
	{"hil POST /projects/{project}/nodes/{node}/power", "POST", "/projects/tenant/nodes/node00/power", `{"Op":"sideways"}`, false},
	{"hil POST /projects/{project}/nodes/{node}/power", "POST", "/projects/other/nodes/node00/power", `{"Op":"off"}`, false},
	{"hil POST /projects/{project}/nodes/{node}/power", "POST", "/projects/tenant/nodes/node00/power", `{"Op":"cycle"}`, false},
	{"hil POST /projects/{project}/nodes/{node}/transfer", "POST", "/projects/ghost/nodes/ghost/transfer", `{"To":"tenant"}`, false},
	{"hil POST /projects/{project}/nodes/{node}/transfer", "POST", "/projects/tenant/nodes/node00/transfer", "{", false},
	{"hil POST /projects/{project}/nodes/{node}/transfer", "POST", "/projects/tenant/nodes/node00/transfer", `{"To":"other"}`, false},
	{"hil DELETE /projects/{project}", "DELETE", "/projects/other", "", false},
	{"hil DELETE /projects/{project}/nodes/{node}", "DELETE", "/projects/ghost/nodes/ghost", "", false},
	{"hil DELETE /projects/{project}/nodes/{node}", "DELETE", "/projects/other/nodes/node00", "", false},
	{"hil DELETE /projects/{project}", "DELETE", "/projects/tenant", "", false},
	{"hil PUT /projects/{project}/nodes/{node}/networks/{network}", "PUT", "/projects/tenant/nodes/node01/networks/attestation", "", false},
	{"hil POST /projects/{project}/nodes/{node}/power", "POST", "/projects/tenant/nodes/node01/power", `{"Op":"on"}`, false},

	{"bmi GET /images", "GET", "/bmi/images", "", false},
	{"bmi GET /images/{name}", "GET", "/bmi/images/ghost", "", false},
	{"bmi GET /images/{name}", "GET", "/bmi/images/fedora28", "", false},
	{"bmi PUT /images/{name}", "PUT", "/bmi/images/blank", "{", false},
	{"bmi PUT /images/{name}", "PUT", "/bmi/images/blank", `{"Size":65536}`, false},
	{"bmi PUT /images/{name}", "PUT", "/bmi/images/blank", `{"Size":65536}`, false},
	{"bmi PUT /images/{name}", "PUT", "/bmi/images/tiny", `{"OS":{"KernelID":"k","Kernel":"a2VybmVs","Initrd":"aW5pdHJk","Cmdline":"ro","RootFS":"cm9vdA=="}}`, false},
	{"bmi POST /images/{name}/clone", "POST", "/bmi/images/ghost/clone", `{"Target":"copy"}`, false},
	{"bmi POST /images/{name}/clone", "POST", "/bmi/images/blank/clone", "{", false},
	{"bmi POST /images/{name}/clone", "POST", "/bmi/images/blank/clone", `{"Target":"copy"}`, false},
	{"bmi POST /images/{name}/clone", "POST", "/bmi/images/blank/clone", `{"Target":"snap","Snapshot":true}`, false},
	{"bmi POST /images/{name}/clone", "POST", "/bmi/images/blank/clone", `{"Target":"snap"}`, false},
	{"bmi GET /images/{name}/bootinfo", "GET", "/bmi/images/ghost/bootinfo", "", false},
	{"bmi GET /images/{name}/bootinfo", "GET", "/bmi/images/fedora28/bootinfo", "", false},
	{"bmi PUT /exports/{node}", "PUT", "/bmi/exports/node01", "{", false},
	{"bmi PUT /exports/{node}", "PUT", "/bmi/exports/node01", `{"Image":"ghost","Cow":true}`, false},
	{"bmi PUT /exports/{node}", "PUT", "/bmi/exports/node01", `{"Image":"copy","Cow":true}`, false},
	{"bmi PUT /exports/{node}", "PUT", "/bmi/exports/node01", `{"Image":"copy","Cow":true}`, false},
	{"bmi POST /exports/{node}/io", "POST", "/bmi/exports/ghost/io", "frame", false},
	{"bmi POST /exports/{node}/io", "POST", "/bmi/exports/node01/io", "frame", false},
	{"bmi DELETE /images/{name}", "DELETE", "/bmi/images/ghost", "", false},
	{"bmi DELETE /images/{name}", "DELETE", "/bmi/images/copy", "", false},
	{"bmi DELETE /exports/{node}", "DELETE", "/bmi/exports/ghost", "", false},
	{"bmi DELETE /exports/{node}", "DELETE", "/bmi/exports/node01?save-as=saved", "", false},
	{"bmi DELETE /images/{name}", "DELETE", "/bmi/images/snap", "", false},
	{"bmi GET /images", "GET", "/bmi/images", "", false},

	{"registrar POST /agents/{uuid}/register", "POST", "/registrar/agents/ghost/register", "{", false},
	{"registrar POST /agents/{uuid}/register", "POST", "/registrar/agents/ghost/register", `{"EK":"zz","AIK":"zz"}`, false},
	{"registrar POST /agents/{uuid}/register", "POST", "/registrar/agents/ghost/register", `{"EK":"00","AIK":"zz"}`, false},
	{"registrar POST /agents/{uuid}/activate", "POST", "/registrar/agents/ghost/activate", "{", false},
	{"registrar POST /agents/{uuid}/activate", "POST", "/registrar/agents/ghost/activate", `{"Proof":"zz"}`, false},
	{"registrar POST /agents/{uuid}/activate", "POST", "/registrar/agents/ghost/activate", `{"Proof":"aabb"}`, false},
	{"registrar POST /agents/{uuid}/register", "POST", "/registrar/agents/golden/register", `{"EK":"04` + p256X + p256Y + `","AIK":"zz"}`, false},
	{"registrar POST /agents/{uuid}/register", "POST", "/registrar/agents/golden/register", `{"EK":"04` + p256X + p256Y + `","AIK":"` + p256X + p256Y + `"}`, true},
	{"registrar POST /agents/{uuid}/activate", "POST", "/registrar/agents/golden/activate", `{"Proof":"aabb"}`, false},
	{"registrar GET /agents/{uuid}/aik", "GET", "/registrar/agents/ghost/aik", "", false},
	{"registrar GET /agents/{uuid}/aik", "GET", "/registrar/agents/golden/aik", "", false},
	{"registrar GET /agents/{uuid}/ek", "GET", "/registrar/agents/ghost/ek", "", false},
	{"registrar GET /agents/{uuid}/ek", "GET", "/registrar/agents/golden/ek", "", false},

	{"plane POST /nodes/{node}/boot", "POST", "/plane/nodes/ghost/boot", "{}", false},
	{"plane /nodes/{node}/agent/", "GET", "/plane/nodes/node01/agent/ima", "", false},
	{"plane POST /nodes/{node}/boot", "POST", "/plane/nodes/node01/boot", "{}", false},
	{"plane GET /nodes/{node}/pcrs", "GET", "/plane/nodes/ghost/pcrs", "", false},
	{"plane GET /nodes/{node}/pcrs", "GET", "/plane/nodes/node01/pcrs", "", false},
	{"plane POST /nodes/{node}/ima", "POST", "/plane/nodes/ghost/ima", "{}", false},
	{"plane POST /nodes/{node}/ima", "POST", "/plane/nodes/node01/ima", "{}", false},
	{"plane PUT /ports/{port}", "PUT", "/plane/ports/svc-golden", "", false},
	{"plane PUT /ports/{port}", "PUT", "/plane/ports/svc-golden", "", false},
	{"plane GET /reachable", "GET", "/plane/reachable?from=ghost&to=svc-golden", "", false},
	{"plane GET /reachable", "GET", "/plane/reachable?from=port-node01&to=svc-registrar", "", false},
	{"hil PUT /service-ports/{port}/networks/{network}", "PUT", "/service-ports/svc-golden/networks/provisioning", "", false},

	{"agent GET /quote", "GET", "/plane/nodes/node01/agent/quote?nonce=zz&pcrs=0", "", false},
	{"agent GET /quote", "GET", "/plane/nodes/node01/agent/quote?nonce=&pcrs=0", "", false},
	{"agent GET /quote", "GET", "/plane/nodes/node01/agent/quote?nonce=aabb&pcrs=x", "", false},
	{"agent GET /quote", "GET", "/plane/nodes/node01/agent/quote?nonce=aabb&pcrs=99&from=svc-registrar", "", false},
	{"agent GET /quote", "GET", "/plane/nodes/node01/agent/quote?nonce=aabb&pcrs=0&from=ghost", "", false},
	{"agent GET /quote", "GET", "/plane/nodes/node01/agent/quote?nonce=aabb&pcrs=0,4&from=svc-registrar", "", true},
	{"agent GET /ima", "GET", "/plane/nodes/node01/agent/ima", "", false},
	{"agent POST /keys/u", "POST", "/plane/nodes/node01/agent/keys/u", "{", false},
	{"agent POST /keys/u", "POST", "/plane/nodes/node01/agent/keys/u", `{"U":"zz"}`, false},
	{"agent POST /keys/u", "POST", "/plane/nodes/node01/agent/keys/u", `{"U":"aabb"}`, false},
	{"agent POST /keys/v", "POST", "/plane/nodes/node01/agent/keys/v", "{", false},
	{"agent POST /keys/v", "POST", "/plane/nodes/node01/agent/keys/v", `{"V":"aabb","Payload":"zz"}`, false},
	{"agent POST /keys/v", "POST", "/plane/nodes/node01/agent/keys/v", `{"V":"aabb","Payload":"ccdd"}`, false},
	{"agent unrouted", "GET", "/plane/nodes/node01/agent/keys/u", "", false},

	{"plane POST /nodes/{node}/kexec", "POST", "/plane/nodes/node01/kexec", "{", false},
	{"plane POST /nodes/{node}/kexec", "POST", "/plane/nodes/ghost/kexec", `{"KernelID":"k","Kernel":"a2VybmVs","Initrd":"aW5pdHJk"}`, false},
	{"plane POST /nodes/{node}/kexec", "POST", "/plane/nodes/node01/kexec", `{"KernelID":"k","Attested":true}`, false},
	{"plane POST /nodes/{node}/kexec", "POST", "/plane/nodes/node01/kexec", `{"KernelID":"k","Kernel":"a2VybmVs","Initrd":"aW5pdHJk"}`, false},
	{"plane POST /nodes/{node}/stop", "POST", "/plane/nodes/node01/stop", "{}", false},
	{"plane /nodes/{node}/agent/", "GET", "/plane/nodes/node01/agent/ima", "", false},
	{"plane unrouted", "GET", "/plane/nodes/node01/boot", "", false},
	{"bmi unrouted", "GET", "/bmi/exports/node01", "", false},
	{"registrar unrouted", "GET", "/registrar/agents/golden", "", false},
}

// goldenHeaders are the reply headers the golden pins beside the status
// and the body.
var goldenHeaders = []string{"Content-Type", "X-Bolted-Error", "X-Content-Type-Options", "Location", "Allow"}

// TestRawPlaneWireGolden sends rawCalls, in order, to a full-surface
// boltedd and checks every reply — status, the goldenHeaders and the body
// bytes — against testdata/rawplane.golden, which was recorded before the
// raw planes shared one server idiom. Run with -update to rewrite it
// after a deliberate wire change.
func TestRawPlaneWireGolden(t *testing.T) {
	_, base := startServer(t, 2)
	var b strings.Builder
	for _, c := range rawCalls {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "### %s\n> %s %s %q\n< %d", c.row, c.method, c.path, c.body, resp.StatusCode)
		for _, h := range goldenHeaders {
			if v := resp.Header.Get(h); v != "" {
				fmt.Fprintf(&b, " %s=%q", h, v)
			}
		}
		if c.random && len(body) > 0 {
			b.WriteString("\n(a random body, not recorded)\n\n")
		} else {
			fmt.Fprintf(&b, "\n%q\n\n", body)
		}
	}
	path := filepath.Join("testdata", "rawplane.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantEntries := strings.Split(b.String(), "\n\n"), strings.Split(string(want), "\n\n")
	for i := range max(len(got), len(wantEntries)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantEntries) {
			w = wantEntries[i]
		}
		if g != w {
			t.Errorf("reply %d differs from %s:\ngot:\n%s\nwant:\n%s", i, path, g, w)
		}
	}
}

// TestRawPlaneGoldenCoversEveryRow ranges over the raw planes' route
// tables: a row without an entry in testdata/rawplane.golden fails here,
// as a /v1 row without a README entry fails TestV1RouteTable.
func TestRawPlaneGoldenCoversEveryRow(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "rawplane.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cloud, _ := startServer(t, 1)
	root, err := NewHandler(cloud)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for plane, h := range map[string]http.Handler{
		"root":      root,
		"hil":       hil.NewHandler(nil),
		"bmi":       bmi.NewHandler(nil),
		"registrar": keylime.NewRegistrarHandler(nil),
		"agent":     keylime.NewAgentHandler(nil),
		"plane":     (&nodePlane{}).routes(),
	} {
		for _, pattern := range h.(*httpjson.Mux).Patterns() {
			if plane == "root" && !strings.Contains(pattern, " ") {
				continue // a mount: its plane's rows are checked on their own
			}
			rows++
			if !bytes.Contains(golden, []byte("### "+plane+" "+pattern+"\n")) {
				t.Errorf("%s %s has no entry in the wire golden", plane, pattern)
			}
		}
	}
	if rows != 42 {
		t.Errorf("the raw route tables have %d rows, want 42", rows)
	}
}
