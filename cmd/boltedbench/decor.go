package main

import (
	"bytes"
	"context"
	"crypto/ecdh"
	"crypto/ecdsa"
	"net/http"
	"strings"
	"sync/atomic"

	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/ima"
	"bolted/internal/keylime"
	"bolted/internal/obs"
	"bolted/internal/store"
	"bolted/internal/tpm"
)

// The decorators below record one span per call at each layer
// boundary of the in-process stack. They live only in the benchmark:
// the program is not changed to be measured. Each embeds the interface
// it wraps and overrides only the methods on the acquire, release and
// recover paths.

// begin opens a span for a call that works on node ("" when the call
// names none) and returns the func that closes it.
func (r *recorder) begin(ctx context.Context, layer, name, node string) func() {
	return r.beginOp(layer, name, r.opOf(ctx, node), node)
}

// beginOp is begin for a caller that already knows the operation.
func (r *recorder) beginOp(layer, name, op, node string) func() {
	start := r.now()
	return func() { r.add(span{Layer: layer, Name: name, Op: op, Node: node, Start: start, End: r.now()}) }
}

// opOf names the operation a backend call works for: the trace the
// provisioner threads through ctx, else the operation that last
// acquired the node (release and recovery carry no trace).
func (r *recorder) opOf(ctx context.Context, node string) string {
	if tc := obs.TraceFrom(ctx); tc.Trace != "" {
		if node != "" {
			r.bind(node, tc.Trace)
		}
		return tc.Trace
	}
	return r.boundOp(node)
}

type tracedHIL struct {
	core.HILService
	rec *recorder
}

func (d *tracedHIL) AllocateAnyNode(ctx context.Context, project string) (string, error) {
	// The node is only known afterwards, so the span is closed by hand.
	start := d.rec.now()
	node, err := d.HILService.AllocateAnyNode(ctx, project)
	d.rec.add(span{Layer: layerHIL, Name: "AllocateAnyNode", Op: d.rec.opOf(ctx, node), Node: node, Start: start, End: d.rec.now()})
	return node, err
}

func (d *tracedHIL) AllocateNode(ctx context.Context, project, node string) error {
	defer d.rec.begin(ctx, layerHIL, "AllocateNode", node)()
	return d.HILService.AllocateNode(ctx, project, node)
}

func (d *tracedHIL) TransferNode(ctx context.Context, from, node, to string) error {
	defer d.rec.begin(ctx, layerHIL, "TransferNode", node)()
	return d.HILService.TransferNode(ctx, from, node, to)
}

func (d *tracedHIL) FreeNode(ctx context.Context, project, node string) error {
	defer d.rec.begin(ctx, layerHIL, "FreeNode", node)()
	return d.HILService.FreeNode(ctx, project, node)
}

func (d *tracedHIL) CreateNetwork(ctx context.Context, project, name string) error {
	defer d.rec.begin(ctx, layerHIL, "CreateNetwork", "")()
	return d.HILService.CreateNetwork(ctx, project, name)
}

func (d *tracedHIL) DeleteNetwork(ctx context.Context, project, name string) error {
	defer d.rec.begin(ctx, layerHIL, "DeleteNetwork", "")()
	return d.HILService.DeleteNetwork(ctx, project, name)
}

func (d *tracedHIL) ConnectNode(ctx context.Context, project, node, network string) error {
	defer d.rec.begin(ctx, layerHIL, "ConnectNode", node)()
	return d.HILService.ConnectNode(ctx, project, node, network)
}

func (d *tracedHIL) DetachNode(ctx context.Context, project, node, network string) error {
	defer d.rec.begin(ctx, layerHIL, "DetachNode", node)()
	return d.HILService.DetachNode(ctx, project, node, network)
}

func (d *tracedHIL) PowerOn(ctx context.Context, project, node string) error {
	defer d.rec.begin(ctx, layerHIL, "PowerOn", node)()
	return d.HILService.PowerOn(ctx, project, node)
}

func (d *tracedHIL) PowerOff(ctx context.Context, project, node string) error {
	defer d.rec.begin(ctx, layerHIL, "PowerOff", node)()
	return d.HILService.PowerOff(ctx, project, node)
}

func (d *tracedHIL) PowerCycle(ctx context.Context, project, node string) error {
	defer d.rec.begin(ctx, layerHIL, "PowerCycle", node)()
	return d.HILService.PowerCycle(ctx, project, node)
}

func (d *tracedHIL) NodeMetadata(node string) (map[string]string, error) {
	defer d.rec.begin(context.Background(), layerHIL, "NodeMetadata", node)()
	return d.HILService.NodeMetadata(node)
}

func (d *tracedHIL) NodePort(node string) (string, error) {
	defer d.rec.begin(context.Background(), layerHIL, "NodePort", node)()
	return d.HILService.NodePort(node)
}

type tracedBMI struct {
	core.BMIService
	rec *recorder
}

func (d *tracedBMI) CreateImage(ctx context.Context, name string, size int64) (*bmi.Image, error) {
	defer d.rec.begin(ctx, layerBMI, "CreateImage", "")()
	return d.BMIService.CreateImage(ctx, name, size)
}

func (d *tracedBMI) CloneImage(ctx context.Context, src, dst string) (*bmi.Image, error) {
	defer d.rec.begin(ctx, layerBMI, "CloneImage", "")()
	return d.BMIService.CloneImage(ctx, src, dst)
}

func (d *tracedBMI) DeleteImage(ctx context.Context, name string) error {
	defer d.rec.begin(ctx, layerBMI, "DeleteImage", "")()
	return d.BMIService.DeleteImage(ctx, name)
}

func (d *tracedBMI) ExtractBootInfo(ctx context.Context, image string) (*bmi.BootInfo, error) {
	defer d.rec.begin(ctx, layerBMI, "ExtractBootInfo", "")()
	return d.BMIService.ExtractBootInfo(ctx, image)
}

func (d *tracedBMI) ExportForBoot(ctx context.Context, node, image string, cow bool) (*bmi.Export, error) {
	defer d.rec.begin(ctx, layerBMI, "ExportForBoot", node)()
	return d.BMIService.ExportForBoot(ctx, node, image, cow)
}

func (d *tracedBMI) Unexport(ctx context.Context, node, saveAs string) error {
	defer d.rec.begin(ctx, layerBMI, "Unexport", node)()
	return d.BMIService.Unexport(ctx, node, saveAs)
}

type tracedDriver struct {
	core.NodeDriver
	rec *recorder
}

// Boot also wraps the agent handle it returns, so the quotes the
// verifier asks of it are attributed to keylime.
func (d *tracedDriver) Boot(ctx context.Context, node string) (keylime.AgentConn, error) {
	defer d.rec.begin(ctx, layerDriver, "Boot", node)()
	agent, err := d.NodeDriver.Boot(ctx, node)
	if err != nil {
		return nil, err
	}
	return &tracedAgent{AgentConn: agent, rec: d.rec, node: node}, nil
}

func (d *tracedDriver) ExpectedBootPCRs(ctx context.Context, node string) (map[int][]tpm.Digest, error) {
	defer d.rec.begin(ctx, layerDriver, "ExpectedBootPCRs", node)()
	return d.NodeDriver.ExpectedBootPCRs(ctx, node)
}

func (d *tracedDriver) KexecAttested(ctx context.Context, node, kernelID string) error {
	defer d.rec.begin(ctx, layerDriver, "KexecAttested", node)()
	return d.NodeDriver.KexecAttested(ctx, node, kernelID)
}

func (d *tracedDriver) Kexec(ctx context.Context, node, kernelID string, kernel, initrd []byte) error {
	defer d.rec.begin(ctx, layerDriver, "Kexec", node)()
	return d.NodeDriver.Kexec(ctx, node, kernelID, kernel, initrd)
}

func (d *tracedDriver) StartIMA(ctx context.Context, node string) (*ima.Collector, error) {
	defer d.rec.begin(ctx, layerDriver, "StartIMA", node)()
	return d.NodeDriver.StartIMA(ctx, node)
}

func (d *tracedDriver) StopAgent(ctx context.Context, node string) error {
	defer d.rec.begin(ctx, layerDriver, "StopAgent", node)()
	return d.NodeDriver.StopAgent(ctx, node)
}

func (d *tracedDriver) Reachable(ctx context.Context, portA, portB string) error {
	defer d.rec.begin(ctx, layerDriver, "Reachable", "")()
	return d.NodeDriver.Reachable(ctx, portA, portB)
}

// tracedAgent times the agent side of attestation. Its methods carry
// no context, so the operation comes from the node it was booted for.
type tracedAgent struct {
	keylime.AgentConn
	rec  *recorder
	node string
}

func (a *tracedAgent) Quote(nonce []byte, sel []int, verifierPort string) (*tpm.Quote, error) {
	defer a.rec.begin(context.Background(), layerKeylime, "Quote", a.node)()
	return a.AgentConn.Quote(nonce, sel, verifierPort)
}

func (a *tracedAgent) ReceiveU(u []byte) {
	defer a.rec.begin(context.Background(), layerKeylime, "ReceiveU", a.node)()
	a.AgentConn.ReceiveU(u)
}

func (a *tracedAgent) ReceiveV(v, sealedPayload []byte) {
	defer a.rec.begin(context.Background(), layerKeylime, "ReceiveV", a.node)()
	a.AgentConn.ReceiveV(v, sealedPayload)
}

// tracedRegistrar times the registrar. Agents enrol under their node
// name, so the uuid doubles as the node.
type tracedRegistrar struct {
	keylime.RegistrarConn
	rec *recorder
}

func (d *tracedRegistrar) Register(uuid string, ekPub *ecdh.PublicKey, aikPub *ecdsa.PublicKey) (*tpm.CredentialBlob, error) {
	defer d.rec.begin(context.Background(), layerKeylime, "Register", uuid)()
	return d.RegistrarConn.Register(uuid, ekPub, aikPub)
}

func (d *tracedRegistrar) Activate(uuid string, proof []byte) error {
	defer d.rec.begin(context.Background(), layerKeylime, "Activate", uuid)()
	return d.RegistrarConn.Activate(uuid, proof)
}

func (d *tracedRegistrar) AIK(uuid string) (*ecdsa.PublicKey, error) {
	defer d.rec.begin(context.Background(), layerKeylime, "AIK", uuid)()
	return d.RegistrarConn.AIK(uuid)
}

func (d *tracedRegistrar) EK(uuid string) (*ecdh.PublicKey, error) {
	defer d.rec.begin(context.Background(), layerKeylime, "EK", uuid)()
	return d.RegistrarConn.EK(uuid)
}

// tracedStore times the durable log. An operation's records name it,
// journal events name their enclave, and a Sync names nothing.
type tracedStore struct {
	store.Store
	rec *recorder
}

// jsonField pulls a top-level string field out of a record payload
// without decoding it.
func jsonField(data []byte, name string) string {
	_, rest, ok := bytes.Cut(data, []byte(`"`+name+`":"`))
	if !ok {
		return ""
	}
	val, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(val)
}

// opOfRecord names the operation a record belongs to. One acquisition
// runs per enclave at a time, so a journal event belongs to the
// operation last started on its enclave (if that has finished, the
// span falls outside it and link hangs it under the handler instead).
func (d *tracedStore) opOfRecord(rec store.Record) string {
	switch rec.Kind {
	case store.KindOpStarted:
		id := jsonField(rec.Data, "id")
		d.rec.bind("enclave/"+jsonField(rec.Data, "enclave"), id)
		return id
	case store.KindOpFinished:
		return jsonField(rec.Data, "id")
	case store.KindJournalEvent:
		return d.rec.boundOp("enclave/" + jsonField(rec.Data, "enclave"))
	}
	return ""
}

func (d *tracedStore) Append(rec store.Record) error {
	defer d.rec.beginOp(layerStore, "Append", d.opOfRecord(rec), "")()
	return d.Store.Append(rec)
}

func (d *tracedStore) AppendBuffered(rec store.Record) error {
	defer d.rec.beginOp(layerStore, "AppendBuffered", d.opOfRecord(rec), "")()
	return d.Store.AppendBuffered(rec)
}

func (d *tracedStore) Sync() error {
	defer d.rec.beginOp(layerStore, "Sync", "", "")()
	return d.Store.Sync()
}

func (d *tracedStore) Load() (*store.Snapshot, []store.Record, error) {
	defer d.rec.beginOp(layerStore, "Load", "", "")()
	return d.Store.Load()
}

// SetMetrics keeps the wrapped store instrumented the way
// NewManagerWithStore instruments a bare one.
func (d *tracedStore) SetMetrics(reg *obs.Registry) {
	if si, ok := d.Store.(interface{ SetMetrics(*obs.Registry) }); ok {
		si.SetMetrics(reg)
	}
}

// decorate installs the backend decorators on a fresh cloud. It must
// run before EnableResilience, so retries and breaker time stay in
// core's self time.
func decorate(c *core.Cloud, rec *recorder) {
	c.HIL = &tracedHIL{HILService: c.HIL, rec: rec}
	c.BMI = &tracedBMI{BMIService: c.BMI, rec: rec}
	c.Registrar = &tracedRegistrar{RegistrarConn: c.Registrar, rec: rec}
	c.Driver = &tracedDriver{NodeDriver: c.Driver, rec: rec}
}

// tracedHandler records one remote server span per request, keyed by
// its request line, and counts response bytes per route.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

// Flush keeps the NDJSON streams streaming through the wrapper.
func (w countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the real writer (the
// stream handlers clear their write deadline through it).
func (w countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.Method + " " + r.URL.RequestURI()
	var n atomic.Int64
	start := h.rec.now()
	h.next.ServeHTTP(countingWriter{w, &n}, r)
	h.rec.add(span{Layer: layerRemote, Server: true, Name: routeOf(r.Method, r.URL.Path),
		Key: key, Op: opInPath(r.URL.Path), Start: start, End: h.rec.now(), Bytes: n.Load()})
}

// opInPath returns the operation a /v1/operations/{id}... request
// names.
func opInPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/operations/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	id, _, _ = strings.Cut(id, ":")
	return id
}

// routeOf folds identifiers out of a path so spans group by route.
func routeOf(method, path string) string {
	parts := strings.Split(strings.TrimPrefix(path, "/v1/"), "/")
	for i := range parts {
		if i%2 == 1 {
			verb := ""
			if j := strings.IndexByte(parts[i], ':'); j >= 0 {
				verb = parts[i][j:]
			}
			parts[i] = "{id}" + verb
		}
	}
	return method + " /" + strings.Join(parts, "/")
}
