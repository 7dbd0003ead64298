package core

import (
	"context"
	"crypto/ecdh"
	"crypto/ecdsa"

	"bolted/internal/bmi"
	"bolted/internal/ima"
	"bolted/internal/keylime"
	"bolted/internal/tpm"
)

// This file is the backend call seam: the one place every call from
// the orchestrator to the provider's HIL, BMI, node driver and
// registrar crosses, and therefore the one place a cross-cutting
// policy (fault injection, retries and breakers, later a latency
// histogram or a child span) is written — once, as an Interceptor,
// not once per method.

// Call names one backend call crossing the seam. Key scopes it to the
// logical operation it works on (typically the node or image name);
// the fault injector hashes (Backend, Method, Key), so the triples are
// part of the chaos sweep's golden output and must not drift.
type Call struct{ Backend, Method, Key string }

// Interceptor runs around a backend call. next performs the call (or
// the next interceptor inward) under the context it is given; an
// interceptor may call it zero times (fail fast), once, or several
// times (retry). Methods whose interface signature carries no context
// cross the seam under context.TODO.
//
// Value on error: whenever the interceptor chain returns an error the
// caller receives the zero value of the method's result, even if some
// inner attempt produced one — a lost response stays lost.
type Interceptor func(ctx context.Context, call Call, next func(context.Context) error) error

// Intercept routes every call to the four backends currently in
// c.HIL/BMI/Driver/Registrar through ic. Interceptors nest in
// installation order: the first installed sits innermost, next to the
// real service, and each later one wraps everything before it.
func (c *Cloud) Intercept(ic Interceptor) {
	c.HIL = &hilSeam{seam{ic, BackendHIL}, c.HIL}
	c.BMI = &bmiSeam{seam{ic, BackendBMI}, c.BMI}
	c.Driver = &driverSeam{seam{ic, BackendDriver}, c.Driver}
	c.Registrar = &registrarSeam{seam{ic, BackendRegistrar}, c.Registrar}
}

// seam is the part of a forwarding adapter that does not depend on the
// interface it forwards.
type seam struct {
	ic      Interceptor
	backend string
}

func (s seam) call(ctx context.Context, method, key string, next func(context.Context) error) error {
	return s.ic(ctx, Call{s.backend, method, key}, next)
}

// call1 is seam.call for a method that returns a value; it is where
// the value-on-error rule above is enforced.
func call1[T any](ctx context.Context, s seam, method, key string, fn func(context.Context) (T, error)) (T, error) {
	var out T
	err := s.call(ctx, method, key, func(ctx context.Context) (err error) {
		out, err = fn(ctx)
		return err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

type hilSeam struct {
	seam
	inner HILService
}

func (s *hilSeam) CreateProject(name string) error {
	return s.call(context.TODO(), "CreateProject", name, func(context.Context) error { return s.inner.CreateProject(name) })
}

func (s *hilSeam) DeleteProject(name string) error {
	return s.call(context.TODO(), "DeleteProject", name, func(context.Context) error { return s.inner.DeleteProject(name) })
}

func (s *hilSeam) FreeNodes() ([]string, error) {
	return call1(context.TODO(), s.seam, "FreeNodes", "", func(context.Context) ([]string, error) { return s.inner.FreeNodes() })
}

func (s *hilSeam) AllocateNode(ctx context.Context, project, node string) error {
	return s.call(ctx, "AllocateNode", node, func(ctx context.Context) error { return s.inner.AllocateNode(ctx, project, node) })
}

func (s *hilSeam) AllocateAnyNode(ctx context.Context, project string) (string, error) {
	return call1(ctx, s.seam, "AllocateAnyNode", project, func(ctx context.Context) (string, error) { return s.inner.AllocateAnyNode(ctx, project) })
}

func (s *hilSeam) TransferNode(ctx context.Context, from, node, to string) error {
	return s.call(ctx, "TransferNode", node, func(ctx context.Context) error { return s.inner.TransferNode(ctx, from, node, to) })
}

func (s *hilSeam) FreeNode(ctx context.Context, project, node string) error {
	return s.call(ctx, "FreeNode", node, func(ctx context.Context) error { return s.inner.FreeNode(ctx, project, node) })
}

func (s *hilSeam) CreateNetwork(ctx context.Context, project, name string) error {
	return s.call(ctx, "CreateNetwork", name, func(ctx context.Context) error { return s.inner.CreateNetwork(ctx, project, name) })
}

func (s *hilSeam) DeleteNetwork(ctx context.Context, project, name string) error {
	return s.call(ctx, "DeleteNetwork", name, func(ctx context.Context) error { return s.inner.DeleteNetwork(ctx, project, name) })
}

func (s *hilSeam) ConnectNode(ctx context.Context, project, node, network string) error {
	return s.call(ctx, "ConnectNode", node+"/"+network, func(ctx context.Context) error { return s.inner.ConnectNode(ctx, project, node, network) })
}

func (s *hilSeam) DetachNode(ctx context.Context, project, node, network string) error {
	return s.call(ctx, "DetachNode", node+"/"+network, func(ctx context.Context) error { return s.inner.DetachNode(ctx, project, node, network) })
}

func (s *hilSeam) ConnectServicePort(port, publicNet string) error {
	return s.call(context.TODO(), "ConnectServicePort", port, func(context.Context) error { return s.inner.ConnectServicePort(port, publicNet) })
}

func (s *hilSeam) PowerOn(ctx context.Context, project, node string) error {
	return s.call(ctx, "PowerOn", node, func(ctx context.Context) error { return s.inner.PowerOn(ctx, project, node) })
}

func (s *hilSeam) PowerOff(ctx context.Context, project, node string) error {
	return s.call(ctx, "PowerOff", node, func(ctx context.Context) error { return s.inner.PowerOff(ctx, project, node) })
}

func (s *hilSeam) PowerCycle(ctx context.Context, project, node string) error {
	return s.call(ctx, "PowerCycle", node, func(ctx context.Context) error { return s.inner.PowerCycle(ctx, project, node) })
}

func (s *hilSeam) NodeMetadata(node string) (map[string]string, error) {
	return call1(context.TODO(), s.seam, "NodeMetadata", node, func(context.Context) (map[string]string, error) { return s.inner.NodeMetadata(node) })
}

func (s *hilSeam) NodeOwner(node string) (string, error) {
	return call1(context.TODO(), s.seam, "NodeOwner", node, func(context.Context) (string, error) { return s.inner.NodeOwner(node) })
}

func (s *hilSeam) NodePort(node string) (string, error) {
	return call1(context.TODO(), s.seam, "NodePort", node, func(context.Context) (string, error) { return s.inner.NodePort(node) })
}

type bmiSeam struct {
	seam
	inner BMIService
}

func (s *bmiSeam) CreateImage(ctx context.Context, name string, size int64) (*bmi.Image, error) {
	return call1(ctx, s.seam, "CreateImage", name, func(ctx context.Context) (*bmi.Image, error) { return s.inner.CreateImage(ctx, name, size) })
}

func (s *bmiSeam) CreateOSImage(name string, spec bmi.OSImageSpec) (*bmi.Image, error) {
	return call1(context.TODO(), s.seam, "CreateOSImage", name, func(context.Context) (*bmi.Image, error) { return s.inner.CreateOSImage(name, spec) })
}

func (s *bmiSeam) CloneImage(ctx context.Context, src, dst string) (*bmi.Image, error) {
	return call1(ctx, s.seam, "CloneImage", dst, func(ctx context.Context) (*bmi.Image, error) { return s.inner.CloneImage(ctx, src, dst) })
}

func (s *bmiSeam) SnapshotImage(ctx context.Context, src, snap string) (*bmi.Image, error) {
	return call1(ctx, s.seam, "SnapshotImage", snap, func(ctx context.Context) (*bmi.Image, error) { return s.inner.SnapshotImage(ctx, src, snap) })
}

func (s *bmiSeam) DeleteImage(ctx context.Context, name string) error {
	return s.call(ctx, "DeleteImage", name, func(ctx context.Context) error { return s.inner.DeleteImage(ctx, name) })
}

func (s *bmiSeam) GetImage(name string) (*bmi.Image, error) {
	return call1(context.TODO(), s.seam, "GetImage", name, func(context.Context) (*bmi.Image, error) { return s.inner.GetImage(name) })
}

func (s *bmiSeam) ListImages() ([]string, error) {
	return call1(context.TODO(), s.seam, "ListImages", "", func(context.Context) ([]string, error) { return s.inner.ListImages() })
}

func (s *bmiSeam) ExtractBootInfo(ctx context.Context, image string) (*bmi.BootInfo, error) {
	return call1(ctx, s.seam, "ExtractBootInfo", image, func(ctx context.Context) (*bmi.BootInfo, error) { return s.inner.ExtractBootInfo(ctx, image) })
}

func (s *bmiSeam) ExportForBoot(ctx context.Context, node, image string, cow bool) (*bmi.Export, error) {
	return call1(ctx, s.seam, "ExportForBoot", node, func(ctx context.Context) (*bmi.Export, error) { return s.inner.ExportForBoot(ctx, node, image, cow) })
}

func (s *bmiSeam) Unexport(ctx context.Context, node, saveAs string) error {
	return s.call(ctx, "Unexport", node, func(ctx context.Context) error { return s.inner.Unexport(ctx, node, saveAs) })
}

type driverSeam struct {
	seam
	inner NodeDriver
}

func (s *driverSeam) Boot(ctx context.Context, node string) (keylime.AgentConn, error) {
	return call1(ctx, s.seam, "Boot", node, func(ctx context.Context) (keylime.AgentConn, error) { return s.inner.Boot(ctx, node) })
}

func (s *driverSeam) ExpectedBootPCRs(ctx context.Context, node string) (map[int][]tpm.Digest, error) {
	return call1(ctx, s.seam, "ExpectedBootPCRs", node, func(ctx context.Context) (map[int][]tpm.Digest, error) { return s.inner.ExpectedBootPCRs(ctx, node) })
}

func (s *driverSeam) KexecAttested(ctx context.Context, node, kernelID string) error {
	return s.call(ctx, "KexecAttested", node, func(ctx context.Context) error { return s.inner.KexecAttested(ctx, node, kernelID) })
}

func (s *driverSeam) Kexec(ctx context.Context, node, kernelID string, kernel, initrd []byte) error {
	return s.call(ctx, "Kexec", node, func(ctx context.Context) error { return s.inner.Kexec(ctx, node, kernelID, kernel, initrd) })
}

func (s *driverSeam) StartIMA(ctx context.Context, node string) (*ima.Collector, error) {
	return call1(ctx, s.seam, "StartIMA", node, func(ctx context.Context) (*ima.Collector, error) { return s.inner.StartIMA(ctx, node) })
}

func (s *driverSeam) StopAgent(ctx context.Context, node string) error {
	return s.call(ctx, "StopAgent", node, func(ctx context.Context) error { return s.inner.StopAgent(ctx, node) })
}

func (s *driverSeam) AddServicePort(ctx context.Context, name string) error {
	return s.call(ctx, "AddServicePort", name, func(ctx context.Context) error { return s.inner.AddServicePort(ctx, name) })
}

func (s *driverSeam) Reachable(ctx context.Context, portA, portB string) error {
	return s.call(ctx, "Reachable", portA+"/"+portB, func(ctx context.Context) error { return s.inner.Reachable(ctx, portA, portB) })
}

type registrarSeam struct {
	seam
	inner keylime.RegistrarConn
}

func (s *registrarSeam) Register(uuid string, ekPub *ecdh.PublicKey, aikPub *ecdsa.PublicKey) (*tpm.CredentialBlob, error) {
	return call1(context.TODO(), s.seam, "Register", uuid, func(context.Context) (*tpm.CredentialBlob, error) { return s.inner.Register(uuid, ekPub, aikPub) })
}

func (s *registrarSeam) Activate(uuid string, proof []byte) error {
	return s.call(context.TODO(), "Activate", uuid, func(context.Context) error { return s.inner.Activate(uuid, proof) })
}

func (s *registrarSeam) AIK(uuid string) (*ecdsa.PublicKey, error) {
	return call1(context.TODO(), s.seam, "AIK", uuid, func(context.Context) (*ecdsa.PublicKey, error) { return s.inner.AIK(uuid) })
}

func (s *registrarSeam) EK(uuid string) (*ecdh.PublicKey, error) {
	return call1(context.TODO(), s.seam, "EK", uuid, func(context.Context) (*ecdh.PublicKey, error) { return s.inner.EK(uuid) })
}

// The adapters must satisfy the same narrow contracts they forward.
var (
	_ HILService            = (*hilSeam)(nil)
	_ BMIService            = (*bmiSeam)(nil)
	_ NodeDriver            = (*driverSeam)(nil)
	_ keylime.RegistrarConn = (*registrarSeam)(nil)
)
