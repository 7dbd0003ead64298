package core

import (
	"context"
	"crypto/ecdh"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bolted/internal/bmi"
	"bolted/internal/ima"
	"bolted/internal/keylime"
	"bolted/internal/tpm"
)

// seamKeys is the golden (backend, method) -> key table: the keys the
// fault injector has hashed since the chaos sweep was first recorded.
// The conformance test calls every method with its string arguments
// set to "s0", "s1", … in order, so each entry reads as "which
// arguments make the key". A changed row shifts which calls fault, and
// with it cmd/boltedsim/testdata/BENCH_fault.golden.json.
var seamKeys = map[string]string{
	"hil.CreateProject":      "s0",
	"hil.DeleteProject":      "s0",
	"hil.FreeNodes":          "",
	"hil.AllocateNode":       "s1",    // (project, node)
	"hil.AllocateAnyNode":    "s0",    // (project)
	"hil.TransferNode":       "s1",    // (from, node, to)
	"hil.FreeNode":           "s1",    // (project, node)
	"hil.CreateNetwork":      "s1",    // (project, name)
	"hil.DeleteNetwork":      "s1",    // (project, name)
	"hil.ConnectNode":        "s1/s2", // (project, node, network)
	"hil.DetachNode":         "s1/s2", // (project, node, network)
	"hil.ConnectServicePort": "s0",    // (port, publicNet)
	"hil.PowerOn":            "s1",    // (project, node)
	"hil.PowerOff":           "s1",
	"hil.PowerCycle":         "s1",
	"hil.NodeMetadata":       "s0",
	"hil.NodeOwner":          "s0",
	"hil.NodePort":           "s0",

	"bmi.CreateImage":     "s0",
	"bmi.CreateOSImage":   "s0",
	"bmi.CloneImage":      "s1", // (src, dst)
	"bmi.SnapshotImage":   "s1", // (src, snap)
	"bmi.DeleteImage":     "s0",
	"bmi.GetImage":        "s0",
	"bmi.ListImages":      "",
	"bmi.ExtractBootInfo": "s0",
	"bmi.ExportForBoot":   "s0", // (node, image)
	"bmi.Unexport":        "s0", // (node, saveAs)

	"driver.Boot":             "s0",
	"driver.ExpectedBootPCRs": "s0",
	"driver.KexecAttested":    "s0", // (node, kernelID)
	"driver.Kexec":            "s0", // (node, kernelID)
	"driver.StartIMA":         "s0",
	"driver.StopAgent":        "s0",
	"driver.AddServicePort":   "s0",
	"driver.Reachable":        "s0/s1", // (portA, portB)

	"registrar.Register": "s0",
	"registrar.Activate": "s0",
	"registrar.AIK":      "s0",
	"registrar.EK":       "s0",
}

// recorder is the state the four recording stubs share: the last inner
// call's method, context and arguments, and the canned result to return.
type recorder struct {
	calls  int
	method string
	ctx    context.Context // nil for methods whose signature has none
	args   []any
	out    any
	err    error
}

func (r *recorder) rec(ctx context.Context, method string, args ...any) error {
	r.calls++
	r.method, r.ctx, r.args = method, ctx, args
	return r.err
}

// ret is rec for a value-returning method. Like a real backend it
// returns its value even alongside an error; dropping it is the seam's
// job.
func ret[T any](r *recorder, ctx context.Context, method string, args ...any) (T, error) {
	err := r.rec(ctx, method, args...)
	out, _ := r.out.(T)
	return out, err
}

type recHIL struct{ r *recorder }

func (s recHIL) CreateProject(name string) error { return s.r.rec(nil, "CreateProject", name) }
func (s recHIL) DeleteProject(name string) error { return s.r.rec(nil, "DeleteProject", name) }
func (s recHIL) FreeNodes() ([]string, error)    { return ret[[]string](s.r, nil, "FreeNodes") }
func (s recHIL) AllocateNode(ctx context.Context, project, node string) error {
	return s.r.rec(ctx, "AllocateNode", project, node)
}
func (s recHIL) AllocateAnyNode(ctx context.Context, project string) (string, error) {
	return ret[string](s.r, ctx, "AllocateAnyNode", project)
}
func (s recHIL) TransferNode(ctx context.Context, from, node, to string) error {
	return s.r.rec(ctx, "TransferNode", from, node, to)
}
func (s recHIL) FreeNode(ctx context.Context, project, node string) error {
	return s.r.rec(ctx, "FreeNode", project, node)
}
func (s recHIL) CreateNetwork(ctx context.Context, project, name string) error {
	return s.r.rec(ctx, "CreateNetwork", project, name)
}
func (s recHIL) DeleteNetwork(ctx context.Context, project, name string) error {
	return s.r.rec(ctx, "DeleteNetwork", project, name)
}
func (s recHIL) ConnectNode(ctx context.Context, project, node, network string) error {
	return s.r.rec(ctx, "ConnectNode", project, node, network)
}
func (s recHIL) DetachNode(ctx context.Context, project, node, network string) error {
	return s.r.rec(ctx, "DetachNode", project, node, network)
}
func (s recHIL) ConnectServicePort(port, publicNet string) error {
	return s.r.rec(nil, "ConnectServicePort", port, publicNet)
}
func (s recHIL) PowerOn(ctx context.Context, project, node string) error {
	return s.r.rec(ctx, "PowerOn", project, node)
}
func (s recHIL) PowerOff(ctx context.Context, project, node string) error {
	return s.r.rec(ctx, "PowerOff", project, node)
}
func (s recHIL) PowerCycle(ctx context.Context, project, node string) error {
	return s.r.rec(ctx, "PowerCycle", project, node)
}
func (s recHIL) NodeMetadata(node string) (map[string]string, error) {
	return ret[map[string]string](s.r, nil, "NodeMetadata", node)
}
func (s recHIL) NodeOwner(node string) (string, error) {
	return ret[string](s.r, nil, "NodeOwner", node)
}
func (s recHIL) NodePort(node string) (string, error) {
	return ret[string](s.r, nil, "NodePort", node)
}

type recBMI struct{ r *recorder }

func (s recBMI) CreateImage(ctx context.Context, name string, size int64) (*bmi.Image, error) {
	return ret[*bmi.Image](s.r, ctx, "CreateImage", name, size)
}
func (s recBMI) CreateOSImage(name string, spec bmi.OSImageSpec) (*bmi.Image, error) {
	return ret[*bmi.Image](s.r, nil, "CreateOSImage", name, spec)
}
func (s recBMI) CloneImage(ctx context.Context, src, dst string) (*bmi.Image, error) {
	return ret[*bmi.Image](s.r, ctx, "CloneImage", src, dst)
}
func (s recBMI) SnapshotImage(ctx context.Context, src, snap string) (*bmi.Image, error) {
	return ret[*bmi.Image](s.r, ctx, "SnapshotImage", src, snap)
}
func (s recBMI) DeleteImage(ctx context.Context, name string) error {
	return s.r.rec(ctx, "DeleteImage", name)
}
func (s recBMI) GetImage(name string) (*bmi.Image, error) {
	return ret[*bmi.Image](s.r, nil, "GetImage", name)
}
func (s recBMI) ListImages() ([]string, error) { return ret[[]string](s.r, nil, "ListImages") }
func (s recBMI) ExtractBootInfo(ctx context.Context, image string) (*bmi.BootInfo, error) {
	return ret[*bmi.BootInfo](s.r, ctx, "ExtractBootInfo", image)
}
func (s recBMI) ExportForBoot(ctx context.Context, node, image string, cow bool) (*bmi.Export, error) {
	return ret[*bmi.Export](s.r, ctx, "ExportForBoot", node, image, cow)
}
func (s recBMI) Unexport(ctx context.Context, node, saveAs string) error {
	return s.r.rec(ctx, "Unexport", node, saveAs)
}

type recDriver struct{ r *recorder }

func (s recDriver) Boot(ctx context.Context, node string) (keylime.AgentConn, error) {
	return ret[keylime.AgentConn](s.r, ctx, "Boot", node)
}
func (s recDriver) ExpectedBootPCRs(ctx context.Context, node string) (map[int][]tpm.Digest, error) {
	return ret[map[int][]tpm.Digest](s.r, ctx, "ExpectedBootPCRs", node)
}
func (s recDriver) KexecAttested(ctx context.Context, node, kernelID string) error {
	return s.r.rec(ctx, "KexecAttested", node, kernelID)
}
func (s recDriver) Kexec(ctx context.Context, node, kernelID string, kernel, initrd []byte) error {
	return s.r.rec(ctx, "Kexec", node, kernelID, kernel, initrd)
}
func (s recDriver) StartIMA(ctx context.Context, node string) (*ima.Collector, error) {
	return ret[*ima.Collector](s.r, ctx, "StartIMA", node)
}
func (s recDriver) StopAgent(ctx context.Context, node string) error {
	return s.r.rec(ctx, "StopAgent", node)
}
func (s recDriver) AddServicePort(ctx context.Context, name string) error {
	return s.r.rec(ctx, "AddServicePort", name)
}
func (s recDriver) Reachable(ctx context.Context, portA, portB string) error {
	return s.r.rec(ctx, "Reachable", portA, portB)
}

type recRegistrar struct{ r *recorder }

func (s recRegistrar) Register(uuid string, ekPub *ecdh.PublicKey, aikPub *ecdsa.PublicKey) (*tpm.CredentialBlob, error) {
	return ret[*tpm.CredentialBlob](s.r, nil, "Register", uuid, ekPub, aikPub)
}
func (s recRegistrar) Activate(uuid string, proof []byte) error {
	return s.r.rec(nil, "Activate", uuid, proof)
}
func (s recRegistrar) AIK(uuid string) (*ecdsa.PublicKey, error) {
	return ret[*ecdsa.PublicKey](s.r, nil, "AIK", uuid)
}
func (s recRegistrar) EK(uuid string) (*ecdh.PublicKey, error) {
	return ret[*ecdh.PublicKey](s.r, nil, "EK", uuid)
}

// fakeAgent is a non-nil keylime.AgentConn to return from Boot.
type fakeAgent struct{ keylime.AgentConn }

var (
	ctxType   = reflect.TypeOf((*context.Context)(nil)).Elem()
	errType   = reflect.TypeOf((*error)(nil)).Elem()
	agentType = reflect.TypeOf((*keylime.AgentConn)(nil)).Elem()
)

// nonZero builds a value of type t that reflect.DeepEqual tells apart
// from t's zero value, for every parameter and result type the four
// interfaces use. A type added later fails here until it has a case.
func nonZero(t *testing.T, typ reflect.Type) reflect.Value {
	t.Helper()
	switch {
	case typ == agentType:
		return reflect.ValueOf(&fakeAgent{}).Convert(typ)
	case typ.Kind() == reflect.String:
		return reflect.ValueOf("ret").Convert(typ)
	case typ.Kind() == reflect.Int64:
		return reflect.ValueOf(int64(4096)).Convert(typ)
	case typ.Kind() == reflect.Bool:
		return reflect.ValueOf(true)
	case typ.Kind() == reflect.Pointer:
		return reflect.New(typ.Elem())
	case typ.Kind() == reflect.Map:
		return reflect.MakeMap(typ)
	case typ.Kind() == reflect.Slice:
		s := reflect.MakeSlice(typ, 1, 1)
		if typ.Elem().Kind() == reflect.String {
			s.Index(0).SetString("elem")
		} else {
			s.Index(0).Set(nonZero(t, typ.Elem()))
		}
		return s
	case typ.Kind() == reflect.Uint8:
		return reflect.ValueOf(uint8(0xA5))
	case typ.Kind() == reflect.Struct:
		v := reflect.New(typ).Elem()
		v.Field(0).Set(nonZero(t, typ.Field(0).Type))
		return v
	}
	t.Fatalf("seam conformance: no non-zero value for %v; add a case", typ)
	return reflect.Value{}
}

// TestSeamConformance drives every method of the four backend
// interfaces — enumerated by reflection, so a method added later fails
// here until seamKeys has its row — through Cloud.Intercept over a
// recording stub.
func TestSeamConformance(t *testing.T) {
	type marker struct{}
	callerCtx := context.WithValue(context.Background(), marker{}, "caller")
	innerCtx := context.WithValue(callerCtx, marker{}, "interceptor")
	icErr := errors.New("interceptor verdict")
	innerErr := errors.New("backend said no")

	rec := &recorder{}
	c := &Cloud{HIL: recHIL{rec}, BMI: recBMI{rec}, Driver: recDriver{rec}, Registrar: recRegistrar{rec}}

	// The interceptor under test records what it was shown and then
	// behaves as the current mode says.
	const (
		passThrough = iota // next once, return its error
		failAfter          // next once, then fail: a torn response
		failFast           // never call next
	)
	var (
		mode    int
		gotCall Call
		gotCtx  context.Context
	)
	c.Intercept(func(ctx context.Context, call Call, next func(context.Context) error) error {
		gotCall, gotCtx = call, ctx
		switch mode {
		case passThrough:
			return next(innerCtx)
		case failAfter:
			_ = next(innerCtx)
			return icErr
		default:
			return icErr
		}
	})

	backends := []struct {
		name    string
		iface   reflect.Type
		adapter any
		methods int
	}{
		{BackendHIL, reflect.TypeOf((*HILService)(nil)).Elem(), c.HIL, 18},
		{BackendBMI, reflect.TypeOf((*BMIService)(nil)).Elem(), c.BMI, 10},
		{BackendDriver, reflect.TypeOf((*NodeDriver)(nil)).Elem(), c.Driver, 8},
		{BackendRegistrar, reflect.TypeOf((*keylime.RegistrarConn)(nil)).Elem(), c.Registrar, 4},
	}
	total := 0
	for _, b := range backends {
		if n := b.iface.NumMethod(); n != b.methods {
			t.Errorf("%s interface has %d methods, the seam was written for %d", b.name, n, b.methods)
		}
		total += b.iface.NumMethod()
		for i := 0; i < b.iface.NumMethod(); i++ {
			m := b.iface.Method(i)
			id := b.name + "." + m.Name
			wantKey, ok := seamKeys[id]
			if !ok {
				t.Errorf("%s: no row in seamKeys", id)
				continue
			}

			// Arguments: the caller's ctx where the signature has one,
			// strings "s0", "s1", … in order, a non-zero value otherwise.
			var (
				in       []reflect.Value
				wantArgs []any
				hasCtx   bool
				nstr     int
			)
			for j := 0; j < m.Type.NumIn(); j++ {
				pt := m.Type.In(j)
				if pt == ctxType {
					hasCtx = true
					in = append(in, reflect.ValueOf(callerCtx))
					continue
				}
				v := nonZero(t, pt)
				if pt.Kind() == reflect.String {
					v = reflect.ValueOf(fmt.Sprintf("s%d", nstr))
					nstr++
				}
				in = append(in, v)
				wantArgs = append(wantArgs, v.Interface())
			}
			// Results: (error) or (T, error).
			nout := m.Type.NumOut()
			if nout < 1 || nout > 2 || m.Type.Out(nout-1) != errType {
				t.Fatalf("%s: result shape %v is not (error) or (T, error)", id, m.Type)
			}
			var canned any
			if nout == 2 {
				canned = nonZero(t, m.Type.Out(0)).Interface()
			}

			// call runs the method through the adapter in one mode and
			// returns its value result (the error again when there is
			// none) and its error.
			call := func(md int, inner error) (reflect.Value, error) {
				*rec = recorder{out: canned, err: inner}
				mode, gotCall, gotCtx = md, Call{}, nil
				out := reflect.ValueOf(b.adapter).MethodByName(m.Name).Call(in)
				err, _ := out[nout-1].Interface().(error)
				return out[0], err
			}
			isZero := func(v reflect.Value) bool { return nout == 1 || v.IsZero() }

			// Pass-through: the interceptor sees the golden Call and the
			// caller's ctx; the inner call sees the ctx the interceptor
			// handed to next and every argument unchanged; the result
			// comes back unchanged.
			v, err := call(passThrough, nil)
			if want := (Call{b.name, m.Name, wantKey}); gotCall != want {
				t.Errorf("%s: Call = %+v, want %+v", id, gotCall, want)
			}
			if hasCtx && gotCtx != callerCtx {
				t.Errorf("%s: interceptor did not receive the caller's ctx", id)
			}
			if gotCtx == nil {
				t.Errorf("%s: interceptor received a nil ctx", id)
			}
			if rec.calls != 1 || rec.method != m.Name {
				t.Errorf("%s: inner saw %d calls, last %q", id, rec.calls, rec.method)
			}
			if hasCtx && rec.ctx != innerCtx {
				t.Errorf("%s: inner call did not receive the ctx the interceptor passed to next", id)
			}
			if !reflect.DeepEqual(rec.args, wantArgs) {
				t.Errorf("%s: inner args = %v, want %v", id, rec.args, wantArgs)
			}
			if err != nil || (nout == 2 && !reflect.DeepEqual(v.Interface(), canned)) {
				t.Errorf("%s: result = (%v, %v), want (%v, nil)", id, v, err, canned)
			}

			// The backend's own error: passed up, with the zero value.
			if v, err := call(passThrough, innerErr); err != innerErr || !isZero(v) {
				t.Errorf("%s: inner error: result = (%v, %v), want (zero, %v)", id, v, err, innerErr)
			}
			// Torn: the inner call ran, the interceptor still failed.
			if v, err := call(failAfter, nil); err != icErr || !isZero(v) || rec.calls != 1 {
				t.Errorf("%s: fail-after: result = (%v, %v) after %d inner calls, want (zero, %v) after 1", id, v, err, rec.calls, icErr)
			}
			// Fail fast: next never called means the backend never ran.
			if v, err := call(failFast, nil); err != icErr || !isZero(v) || rec.calls != 0 {
				t.Errorf("%s: fail-fast: result = (%v, %v) after %d inner calls, want (zero, %v) after 0", id, v, err, rec.calls, icErr)
			}
		}
	}
	if total != 40 || len(seamKeys) != total {
		t.Errorf("seam covers %d methods with %d golden rows, want 40 and 40", total, len(seamKeys))
	}
}

// TestInterceptNestsInInstallationOrder: the first interceptor
// installed sits next to the backend and each later one wraps it — the
// property "injector first, EnableResilience second" relies on.
func TestInterceptNestsInInstallationOrder(t *testing.T) {
	rec := &recorder{}
	c := &Cloud{HIL: recHIL{rec}, BMI: recBMI{rec}, Driver: recDriver{rec}, Registrar: recRegistrar{rec}}
	var trace []string
	tag := func(name string) Interceptor {
		return func(ctx context.Context, _ Call, next func(context.Context) error) error {
			trace = append(trace, name+">")
			err := next(ctx)
			trace = append(trace, "<"+name)
			return err
		}
	}
	c.Intercept(tag("first"))
	c.Intercept(tag("second"))
	if err := c.HIL.CreateProject("p"); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(trace), "[second> first> <first <second]"; got != want || rec.calls != 1 {
		t.Fatalf("trace = %s after %d inner calls, want %s after 1", got, rec.calls, want)
	}
}
