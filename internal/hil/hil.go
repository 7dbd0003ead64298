// Package hil implements the Hardware Isolation Layer, the only Bolted
// component that must be deployed by the provider and the only shared
// service in the TCB (§5). Mirroring the real HIL's deliberately small
// surface, it provides exactly three kinds of operation:
//
//  1. Allocation of physical servers (node reservation into projects).
//  2. Allocation of networks (VLANs from the provider pool).
//  3. Connecting servers to networks (switch programming).
//
// Plus a minimal BMC proxy (power operations) that keeps tenants away
// from the BMC itself, and per-node metadata that acts as the provider's
// source of truth: the TPM endorsement key binding (anti-spoofing) and
// the platform PCR whitelist for the retained vendor firmware stages.
package hil

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bolted/internal/netsim"
)

// BMC is the out-of-band controller interface HIL proxies. It is
// satisfied by *firmware.Machine.
type BMC interface {
	PowerOn() error
	PowerOff() error
	PowerCycle() error
}

// Common errors.
var (
	ErrNotFound     = errors.New("hil: not found")
	ErrUnauthorized = errors.New("hil: node not owned by project")
	ErrInUse        = errors.New("hil: resource in use")
)

// ctxErr reports a caller-side cancellation before any switch or BMC
// state is touched: a cancelled batch must not half-program the fabric.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("hil: %w", err)
	}
	return nil
}

// Node is HIL's view of a physical server.
type Node struct {
	Name     string
	Port     string
	Metadata map[string]string // provider-published facts (TPM EK, PCR whitelist)

	bmc      BMC
	project  string // "" = free pool
	networks map[string]netsim.VLANID
	// freeing is set while FreeNode tears the node down: it still belongs
	// to its project, so nobody can allocate it, but the project can no
	// longer drive it.
	freeing bool
}

// Project is a tenant allocation context.
type Project struct {
	Name     string
	networks map[string]netsim.VLANID
	nodes    map[string]bool
}

// Service is the HIL API surface. Safe for concurrent use.
type Service struct {
	fabric *netsim.Fabric

	mu       sync.Mutex
	nodes    map[string]*Node
	projects map[string]*Project
	public   map[string]netsim.VLANID // provider-wide public networks
}

// New creates a HIL service controlling the given switch fabric.
func New(fabric *netsim.Fabric) *Service {
	return &Service{
		fabric:   fabric,
		nodes:    make(map[string]*Node),
		projects: make(map[string]*Project),
		public:   make(map[string]netsim.VLANID),
	}
}

// --- administrator operations ---

// RegisterNode adds a server to the free pool (admin operation). The
// port must already exist on the fabric.
func (s *Service) RegisterNode(name, port string, bmc BMC, metadata map[string]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[name]; ok {
		return fmt.Errorf("hil: node %q already registered", name)
	}
	md := make(map[string]string, len(metadata))
	for k, v := range metadata {
		md[k] = v
	}
	s.nodes[name] = &Node{
		Name:     name,
		Port:     port,
		Metadata: md,
		bmc:      bmc,
		networks: make(map[string]netsim.VLANID),
	}
	return nil
}

// SetNodeMetadata publishes (or updates) a provider fact about a node,
// e.g. its TPM EK public key or platform PCR whitelist entries.
func (s *Service) SetNodeMetadata(node, key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[node]
	if !ok {
		return fmt.Errorf("%w: node %q", ErrNotFound, node)
	}
	n.Metadata[key] = value
	return nil
}

// CreatePublicNetwork creates a provider-wide network any project may
// connect to (e.g. the attestation or provisioning service networks).
// With isolated=true the VLAN is private: member nodes reach the
// service ports but never each other, which is what keeps tenants (and
// concurrently airlocked nodes) mutually invisible on shared service
// networks.
func (s *Service) CreatePublicNetwork(name string, isolated bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.public[name]; ok {
		return fmt.Errorf("hil: public network %q exists", name)
	}
	v, err := s.fabric.AllocateVLAN("public:" + name)
	if err != nil {
		return err
	}
	if err := s.fabric.SetVLANIsolated(v, isolated); err != nil {
		return err
	}
	s.public[name] = v
	return nil
}

// ConnectServicePort attaches an infrastructure service's switch port
// (e.g. the BMI or Keylime host) to a public network as a promiscuous
// member: services talk to every node; nodes talk only to services.
func (s *Service) ConnectServicePort(port, publicNet string) error {
	s.mu.Lock()
	v, ok := s.public[publicNet]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: public network %q", ErrNotFound, publicNet)
	}
	return s.fabric.AttachPromiscuous(port, v)
}

// --- tenant operations ---

// CreateProject registers a tenant project.
func (s *Service) CreateProject(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.projects[name]; ok {
		return fmt.Errorf("hil: project %q exists", name)
	}
	s.projects[name] = &Project{
		Name:     name,
		networks: make(map[string]netsim.VLANID),
		nodes:    make(map[string]bool),
	}
	return nil
}

// DeleteProject removes an empty project.
func (s *Service) DeleteProject(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.projects[name]
	if !ok {
		return fmt.Errorf("%w: project %q", ErrNotFound, name)
	}
	if len(p.nodes) > 0 || len(p.networks) > 0 {
		return fmt.Errorf("%w: project %q has nodes or networks", ErrInUse, name)
	}
	delete(s.projects, name)
	return nil
}

// FreeNodes lists unallocated nodes, sorted. The error return exists
// for remote implementations of the same surface; the in-process
// service never fails.
func (s *Service) FreeNodes() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, n := range s.nodes {
		if n.project == "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// AllocateNode reserves a specific free node into a project.
func (s *Service) AllocateNode(ctx context.Context, project, node string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.projects[project]
	if !ok {
		return fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	n, ok := s.nodes[node]
	if !ok {
		return fmt.Errorf("%w: node %q", ErrNotFound, node)
	}
	if n.project != "" {
		return fmt.Errorf("%w: node %q owned by %q", ErrInUse, node, n.project)
	}
	n.project = project
	p.nodes[node] = true
	return nil
}

// AllocateAnyNode reserves an arbitrary free node and returns its name.
// Scan and claim happen under one lock hold: concurrent allocators must
// never pick the same node and fail each other spuriously.
func (s *Service) AllocateAnyNode(ctx context.Context, project string) (string, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.projects[project]
	if !ok {
		return "", fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	var free []string
	for name, n := range s.nodes {
		if n.project == "" {
			free = append(free, name)
		}
	}
	if len(free) == 0 {
		return "", fmt.Errorf("%w: no free nodes", ErrNotFound)
	}
	sort.Strings(free)
	s.nodes[free[0]].project = project
	p.nodes[free[0]] = true
	return free[0], nil
}

// TransferNode atomically moves an owned node from one project to
// another without passing through the free pool — the quarantine path:
// a node being rejected must never be allocatable in between. Like
// FreeNode, the node leaves every network and is powered off.
func (s *Service) TransferNode(ctx context.Context, from, node, to string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	n, p, err := s.ownedLocked(from, node)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	tp, ok := s.projects[to]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: project %q", ErrNotFound, to)
	}
	delete(p.nodes, node)
	tp.nodes[node] = true
	n.project = to
	n.networks = make(map[string]netsim.VLANID)
	bmc := n.bmc
	port := n.Port
	s.mu.Unlock()

	if err := s.fabric.DetachAll(port); err != nil {
		return err
	}
	if bmc != nil {
		_ = bmc.PowerOff() // already-off is fine
	}
	return nil
}

// FreeNode returns a node to the free pool: it is detached from every
// network and powered off, so no tenant state keeps running. The node
// becomes allocatable only after that tear-down has returned — marked
// free any earlier, AllocateAnyNode could hand it to a new owner whose
// airlock attach and power-on the old owner's detach and power-off
// would then undo. If the detach fails the node stays with its project.
func (s *Service) FreeNode(ctx context.Context, project, node string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	n, p, err := s.ownedLocked(project, node)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	n.freeing = true
	s.mu.Unlock()

	err = s.fabric.DetachAll(n.Port)
	if err == nil && n.bmc != nil {
		_ = n.bmc.PowerOff() // already-off is fine
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	n.freeing = false
	if err != nil {
		return err
	}
	n.project = ""
	n.networks = make(map[string]netsim.VLANID)
	delete(p.nodes, node)
	return nil
}

func (s *Service) ownedLocked(project, node string) (*Node, *Project, error) {
	p, ok := s.projects[project]
	if !ok {
		return nil, nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	n, ok := s.nodes[node]
	if !ok {
		return nil, nil, fmt.Errorf("%w: node %q", ErrNotFound, node)
	}
	if n.project != project {
		return nil, nil, fmt.Errorf("%w: %q is not in %q", ErrUnauthorized, node, project)
	}
	if n.freeing {
		return nil, nil, fmt.Errorf("%w: node %q is being freed", ErrInUse, node)
	}
	return n, p, nil
}

// CreateNetwork allocates a tenant-private network (VLAN).
func (s *Service) CreateNetwork(ctx context.Context, project, name string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.projects[project]
	if !ok {
		return fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	if _, ok := p.networks[name]; ok {
		// Idempotent: a duplicate create keeps the existing network (and
		// its VLAN). Callers retrying after a torn response — the create
		// landed but its acknowledgement was lost — must converge, not
		// fail.
		return nil
	}
	v, err := s.fabric.AllocateVLAN(project + ":" + name)
	if err != nil {
		return err
	}
	p.networks[name] = v
	return nil
}

// DeleteNetwork frees a tenant network; all nodes must be detached.
func (s *Service) DeleteNetwork(ctx context.Context, project, name string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.projects[project]
	if !ok {
		return fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	v, ok := p.networks[name]
	if !ok {
		return fmt.Errorf("%w: network %q", ErrNotFound, name)
	}
	if err := s.fabric.FreeVLAN(v); err != nil {
		return fmt.Errorf("%w: %v", ErrInUse, err)
	}
	delete(p.networks, name)
	return nil
}

// resolveNetLocked maps a network name to a VLAN: tenant networks first,
// then provider public networks.
func (s *Service) resolveNetLocked(p *Project, name string) (netsim.VLANID, error) {
	if v, ok := p.networks[name]; ok {
		return v, nil
	}
	if v, ok := s.public[name]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("%w: network %q", ErrNotFound, name)
}

// ConnectNode attaches an owned node to a network (tenant or public).
func (s *Service) ConnectNode(ctx context.Context, project, node, network string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	n, p, err := s.ownedLocked(project, node)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	v, err := s.resolveNetLocked(p, network)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	n.networks[network] = v
	port := n.Port
	s.mu.Unlock()
	return s.fabric.Attach(port, v)
}

// DetachNode removes an owned node from a network.
func (s *Service) DetachNode(ctx context.Context, project, node, network string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	n, _, err := s.ownedLocked(project, node)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	v, ok := n.networks[network]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: node %q not on %q", ErrNotFound, node, network)
	}
	delete(n.networks, network)
	port := n.Port
	s.mu.Unlock()
	return s.fabric.Detach(port, v)
}

// --- BMC proxy (authorization-checked) ---

func (s *Service) nodeBMC(project, node string) (BMC, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, _, err := s.ownedLocked(project, node)
	if err != nil {
		return nil, err
	}
	if n.bmc == nil {
		return nil, fmt.Errorf("%w: node %q has no BMC", ErrNotFound, node)
	}
	return n.bmc, nil
}

// PowerOn powers on an owned node via its BMC.
func (s *Service) PowerOn(ctx context.Context, project, node string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	b, err := s.nodeBMC(project, node)
	if err != nil {
		return err
	}
	return b.PowerOn()
}

// PowerOff powers off an owned node via its BMC.
func (s *Service) PowerOff(ctx context.Context, project, node string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	b, err := s.nodeBMC(project, node)
	if err != nil {
		return err
	}
	return b.PowerOff()
}

// PowerCycle power-cycles an owned node via its BMC.
func (s *Service) PowerCycle(ctx context.Context, project, node string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	b, err := s.nodeBMC(project, node)
	if err != nil {
		return err
	}
	return b.PowerCycle()
}

// --- queries ---

// NodeMetadata returns a copy of a node's provider-published metadata.
// Readable by anyone: the EK binding and platform whitelist are public.
func (s *Service) NodeMetadata(node string) (map[string]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[node]
	if !ok {
		return nil, fmt.Errorf("%w: node %q", ErrNotFound, node)
	}
	out := make(map[string]string, len(n.Metadata))
	for k, v := range n.Metadata {
		out[k] = v
	}
	return out, nil
}

// NodeOwner reports which project owns a node ("" if free).
func (s *Service) NodeOwner(node string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[node]
	if !ok {
		return "", fmt.Errorf("%w: node %q", ErrNotFound, node)
	}
	return n.project, nil
}

// ProjectNodes lists a project's nodes, sorted.
func (s *Service) ProjectNodes(project string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.projects[project]
	if !ok {
		return nil, fmt.Errorf("%w: project %q", ErrNotFound, project)
	}
	var out []string
	for n := range p.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// NodePort returns a node's switch port name.
func (s *Service) NodePort(node string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[node]
	if !ok {
		return "", fmt.Errorf("%w: node %q", ErrNotFound, node)
	}
	return n.Port, nil
}
