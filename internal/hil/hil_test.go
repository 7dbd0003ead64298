package hil

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"bolted/internal/netsim"
)

// fakeBMC records power operations.
type fakeBMC struct {
	on     bool
	cycles int
}

func (b *fakeBMC) PowerOn() error    { b.on = true; return nil }
func (b *fakeBMC) PowerOff() error   { b.on = false; return nil }
func (b *fakeBMC) PowerCycle() error { b.on = true; b.cycles++; return nil }

func newHIL(t testing.TB, nodes int) (*Service, *netsim.Fabric, []*fakeBMC) {
	t.Helper()
	fabric, err := netsim.NewFabric(100, 199)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fabric)
	var bmcs []*fakeBMC
	for i := 0; i < nodes; i++ {
		name := string(rune('a' + i))
		if _, err := fabric.AddPort("port-" + name); err != nil {
			t.Fatal(err)
		}
		b := &fakeBMC{}
		bmcs = append(bmcs, b)
		if err := s.RegisterNode("node-"+name, "port-"+name, b, map[string]string{"gen": "m620"}); err != nil {
			t.Fatal(err)
		}
	}
	return s, fabric, bmcs
}

func TestAllocationLifecycle(t *testing.T) {
	s, _, _ := newHIL(t, 3)
	if err := s.CreateProject("charlie"); err != nil {
		t.Fatal(err)
	}
	if free, _ := s.FreeNodes(); len(free) != 3 {
		t.Fatalf("free = %d, want 3", len(free))
	}
	if err := s.AllocateNode(context.Background(), "charlie", "node-a"); err != nil {
		t.Fatal(err)
	}
	owner, _ := s.NodeOwner("node-a")
	if owner != "charlie" {
		t.Fatalf("owner = %q", owner)
	}
	// Double allocation fails.
	s.CreateProject("bob")
	if err := s.AllocateNode(context.Background(), "bob", "node-a"); !errors.Is(err, ErrInUse) {
		t.Fatalf("double alloc: %v", err)
	}
	// Any-node allocation takes a free one.
	n, err := s.AllocateAnyNode(context.Background(), "bob")
	if err != nil || n == "node-a" {
		t.Fatalf("AllocateAnyNode = %q, %v", n, err)
	}
	if err := s.FreeNode(context.Background(), "charlie", "node-a"); err != nil {
		t.Fatal(err)
	}
	if owner, _ := s.NodeOwner("node-a"); owner != "" {
		t.Fatal("freed node still owned")
	}
}

func TestAuthorizationEnforced(t *testing.T) {
	s, _, _ := newHIL(t, 2)
	s.CreateProject("alice")
	s.CreateProject("mallory")
	s.AllocateNode(context.Background(), "alice", "node-a")
	s.CreateNetwork(context.Background(), "alice", "net")

	if err := s.ConnectNode(context.Background(), "mallory", "node-a", "net"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("cross-project connect: %v", err)
	}
	if err := s.PowerCycle(context.Background(), "mallory", "node-a"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("cross-project power: %v", err)
	}
	if err := s.FreeNode(context.Background(), "mallory", "node-a"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("cross-project free: %v", err)
	}
}

func TestNetworkingIsolation(t *testing.T) {
	s, fabric, _ := newHIL(t, 3)
	s.CreateProject("a")
	s.CreateProject("b")
	s.AllocateNode(context.Background(), "a", "node-a")
	s.AllocateNode(context.Background(), "a", "node-b")
	s.AllocateNode(context.Background(), "b", "node-c")
	s.CreateNetwork(context.Background(), "a", "enclave")
	s.CreateNetwork(context.Background(), "b", "enclave") // same name, different project: distinct VLANs
	if err := s.ConnectNode(context.Background(), "a", "node-a", "enclave"); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectNode(context.Background(), "a", "node-b", "enclave"); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectNode(context.Background(), "b", "node-c", "enclave"); err != nil {
		t.Fatal(err)
	}
	if !fabric.Reachable("port-a", "port-b") {
		t.Fatal("same-enclave nodes isolated")
	}
	if fabric.Reachable("port-a", "port-c") {
		t.Fatal("cross-tenant nodes reachable despite same network name")
	}
}

func TestFreeNodeQuarantinesAndPowersOff(t *testing.T) {
	s, fabric, bmcs := newHIL(t, 2)
	s.CreateProject("t")
	s.AllocateNode(context.Background(), "t", "node-a")
	s.CreateNetwork(context.Background(), "t", "n")
	s.ConnectNode(context.Background(), "t", "node-a", "n")
	bmcs[0].on = true
	if err := s.FreeNode(context.Background(), "t", "node-a"); err != nil {
		t.Fatal(err)
	}
	vs, _ := fabric.VLANsOf("port-a")
	if len(vs) != 0 {
		t.Fatal("freed node still attached to VLANs")
	}
	if bmcs[0].on {
		t.Fatal("freed node still powered")
	}
}

func TestPublicNetworks(t *testing.T) {
	s, fabric, _ := newHIL(t, 2)
	if err := s.CreatePublicNetwork("provisioning", true); err != nil {
		t.Fatal(err)
	}
	if err := s.CreatePublicNetwork("provisioning", true); err == nil {
		t.Fatal("duplicate public network accepted")
	}
	fabric.AddPort("bmi-host")
	if err := s.ConnectServicePort("bmi-host", "provisioning"); err != nil {
		t.Fatal(err)
	}
	s.CreateProject("t")
	s.AllocateNode(context.Background(), "t", "node-a")
	s.AllocateNode(context.Background(), "t", "node-b")
	if err := s.ConnectNode(context.Background(), "t", "node-a", "provisioning"); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectNode(context.Background(), "t", "node-b", "provisioning"); err != nil {
		t.Fatal(err)
	}
	if !fabric.Reachable("port-a", "bmi-host") {
		t.Fatal("node cannot reach provisioning service over public network")
	}
	// Private-VLAN semantics: two host members of the isolated public
	// network do not see each other.
	if fabric.Reachable("port-a", "port-b") {
		t.Fatal("nodes reach each other through the isolated service network")
	}
}

func TestNonIsolatedPublicNetwork(t *testing.T) {
	s, fabric, _ := newHIL(t, 2)
	if err := s.CreatePublicNetwork("internet", false); err != nil {
		t.Fatal(err)
	}
	s.CreateProject("t")
	s.AllocateNode(context.Background(), "t", "node-a")
	s.AllocateNode(context.Background(), "t", "node-b")
	s.ConnectNode(context.Background(), "t", "node-a", "internet")
	s.ConnectNode(context.Background(), "t", "node-b", "internet")
	if !fabric.Reachable("port-a", "port-b") {
		t.Fatal("members of a non-isolated public network should reach each other")
	}
}

func TestMetadataSourceOfTruth(t *testing.T) {
	s, _, _ := newHIL(t, 1)
	if err := s.SetNodeMetadata("node-a", "tpm_ek", "04deadbeef"); err != nil {
		t.Fatal(err)
	}
	md, err := s.NodeMetadata("node-a")
	if err != nil {
		t.Fatal(err)
	}
	if md["tpm_ek"] != "04deadbeef" || md["gen"] != "m620" {
		t.Fatalf("metadata = %v", md)
	}
	// Returned map is a copy: mutating it does not poison the source.
	md["tpm_ek"] = "spoofed"
	md2, _ := s.NodeMetadata("node-a")
	if md2["tpm_ek"] != "04deadbeef" {
		t.Fatal("metadata mutated through returned copy")
	}
	if err := s.SetNodeMetadata("ghost", "k", "v"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("metadata on unknown node: %v", err)
	}
}

func TestBMCProxy(t *testing.T) {
	s, _, bmcs := newHIL(t, 1)
	s.CreateProject("t")
	s.AllocateNode(context.Background(), "t", "node-a")
	if err := s.PowerOn(context.Background(), "t", "node-a"); err != nil {
		t.Fatal(err)
	}
	if !bmcs[0].on {
		t.Fatal("PowerOn not forwarded")
	}
	s.PowerCycle(context.Background(), "t", "node-a")
	if bmcs[0].cycles != 1 {
		t.Fatal("PowerCycle not forwarded")
	}
	s.PowerOff(context.Background(), "t", "node-a")
	if bmcs[0].on {
		t.Fatal("PowerOff not forwarded")
	}
}

func TestProjectDeletion(t *testing.T) {
	s, _, _ := newHIL(t, 1)
	s.CreateProject("t")
	s.AllocateNode(context.Background(), "t", "node-a")
	if err := s.DeleteProject("t"); !errors.Is(err, ErrInUse) {
		t.Fatalf("deleting project with nodes: %v", err)
	}
	s.FreeNode(context.Background(), "t", "node-a")
	if err := s.DeleteProject("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateProject("t"); err != nil {
		t.Fatal("name not reusable after delete")
	}
}

func TestDeleteNetworkInUse(t *testing.T) {
	s, _, _ := newHIL(t, 1)
	s.CreateProject("t")
	s.AllocateNode(context.Background(), "t", "node-a")
	s.CreateNetwork(context.Background(), "t", "n")
	s.ConnectNode(context.Background(), "t", "node-a", "n")
	if err := s.DeleteNetwork(context.Background(), "t", "n"); !errors.Is(err, ErrInUse) {
		t.Fatalf("deleting network with members: %v", err)
	}
	s.DetachNode(context.Background(), "t", "node-a", "n")
	if err := s.DeleteNetwork(context.Background(), "t", "n"); err != nil {
		t.Fatal(err)
	}
}

// Property: under arbitrary allocate/free interleavings, every node is
// owned by at most one project and the free list is exactly the
// unowned set.
func TestQuickOwnershipInvariant(t *testing.T) {
	s, _, _ := newHIL(t, 6)
	projects := []string{"p0", "p1", "p2"}
	for _, p := range projects {
		s.CreateProject(p)
	}
	nodes := []string{"node-a", "node-b", "node-c", "node-d", "node-e", "node-f"}
	f := func(ops []uint16) bool {
		for _, op := range ops {
			p := projects[int(op)%len(projects)]
			n := nodes[int(op>>4)%len(nodes)]
			if op&0x8000 == 0 {
				_ = s.AllocateNode(context.Background(), p, n)
			} else {
				_ = s.FreeNode(context.Background(), p, n)
			}
		}
		owned := make(map[string]string)
		for _, p := range projects {
			ns, err := s.ProjectNodes(p)
			if err != nil {
				return false
			}
			for _, n := range ns {
				if prev, dup := owned[n]; dup {
					t.Logf("node %s in both %s and %s", n, prev, p)
					return false
				}
				owned[n] = p
				if got, _ := s.NodeOwner(n); got != p {
					return false
				}
			}
		}
		free, _ := s.FreeNodes()
		for _, f := range free {
			if _, bad := owned[f]; bad {
				return false
			}
		}
		return len(owned)+len(free) == len(nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHTTPAPI(t *testing.T) {
	s, fabric, bmcs := newHIL(t, 2)
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	c := NewClient(srv.URL)

	if err := c.CreateProject("web"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	free, err := c.FreeNodes()
	if err != nil || len(free) != 2 {
		t.Fatalf("FreeNodes = %v, %v", free, err)
	}
	node, err := c.AllocateAnyNode(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateNetwork(ctx, "web", "enclave"); err != nil {
		t.Fatal(err)
	}
	if err := c.ConnectNode(ctx, "web", node, "enclave"); err != nil {
		t.Fatal(err)
	}
	port, _ := s.NodePort(node)
	if got, err := c.NodePort(node); err != nil || got != port {
		t.Fatalf("NodePort over HTTP = %q, %v, want %q", got, err, port)
	}
	if owner, err := c.NodeOwner(node); err != nil || owner != "web" {
		t.Fatalf("NodeOwner over HTTP = %q, %v", owner, err)
	}
	vs, _ := fabric.VLANsOf(port)
	if len(vs) != 1 {
		t.Fatalf("node on %d VLANs, want 1", len(vs))
	}
	if err := c.Power(ctx, "web", node, "cycle"); err != nil {
		t.Fatal(err)
	}
	idx := int(node[len(node)-1] - 'a')
	if bmcs[idx].cycles != 1 {
		t.Fatal("power cycle not forwarded over HTTP")
	}
	md, err := c.NodeMetadata(node)
	if err != nil || md["gen"] != "m620" {
		t.Fatalf("metadata over HTTP = %v, %v", md, err)
	}
	// Error mapping: remote callers must see the same sentinel errors
	// as in-process callers, not flat strings.
	if err := c.CreateProject("web"); err == nil {
		t.Fatal("duplicate project over HTTP accepted")
	}
	if _, err := c.NodeMetadata("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown node over HTTP = %v, want ErrNotFound", err)
	}
	if err := c.AllocateNode(ctx, "web", node); !errors.Is(err, ErrInUse) {
		t.Fatalf("double allocation over HTTP = %v, want ErrInUse", err)
	}
	if err := c.CreateProject("intruder"); err != nil {
		t.Fatal(err)
	}
	if err := c.FreeNode(ctx, "intruder", node); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("foreign free over HTTP = %v, want ErrUnauthorized", err)
	}
	if err := c.Power(ctx, "web", node, "explode"); err == nil {
		t.Fatal("bad power op accepted")
	}
	if err := c.DetachNode(ctx, "web", node, "enclave"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteNetwork(ctx, "web", "enclave"); err != nil {
		t.Fatal(err)
	}
	if err := c.FreeNode(ctx, "web", node); err != nil {
		t.Fatal(err)
	}
	// Admin + quarantine surface over the wire.
	if _, err := fabric.AddPort("port-x"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterNode("node-x", "port-x", map[string]string{"gen": "m620"}); err != nil {
		t.Fatal(err)
	}
	if md, err := c.NodeMetadata("node-x"); err != nil || md["gen"] != "m620" {
		t.Fatalf("registered node metadata = %v, %v", md, err)
	}
	if err := c.AllocateNode(ctx, "web", "node-x"); err != nil {
		t.Fatal(err)
	}
	if err := c.TransferNode(ctx, "web", "node-x", "intruder"); err != nil {
		t.Fatal(err)
	}
	if owner, _ := c.NodeOwner("node-x"); owner != "intruder" {
		t.Fatalf("owner after remote transfer = %q", owner)
	}
}

func TestTransferNodeQuarantinePath(t *testing.T) {
	s, fabric, bmcs := newHIL(t, 2)
	for _, p := range []string{"tenant", "quarantine"} {
		if err := s.CreateProject(p); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if err := s.AllocateNode(ctx, "tenant", "node-a"); err != nil {
		t.Fatal(err)
	}
	s.CreateNetwork(ctx, "tenant", "airlock")
	s.ConnectNode(ctx, "tenant", "node-a", "airlock")
	bmcs[0].on = true

	if err := s.TransferNode(ctx, "tenant", "node-a", "quarantine"); err != nil {
		t.Fatal(err)
	}
	// The node never transits the free pool: it is owned by the target
	// project, off every network, and powered down.
	if owner, _ := s.NodeOwner("node-a"); owner != "quarantine" {
		t.Fatalf("owner = %q", owner)
	}
	if vlans, _ := fabric.VLANsOf("port-a"); len(vlans) != 0 {
		t.Fatalf("transferred node still on VLANs %v", vlans)
	}
	if bmcs[0].on {
		t.Fatal("transferred node still powered")
	}
	// Errors: not owned by the source project, unknown target.
	if err := s.TransferNode(ctx, "tenant", "node-a", "quarantine"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("re-transfer = %v", err)
	}
	if err := s.TransferNode(ctx, "quarantine", "node-a", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown target = %v", err)
	}
}

func TestAllocateAnyNodeConcurrentNoDuplicates(t *testing.T) {
	const nodes = 12
	s, _, _ := newHIL(t, nodes)
	projects := []string{"p0", "p1", "p2"}
	for _, p := range projects {
		if err := s.CreateProject(p); err != nil {
			t.Fatal(err)
		}
	}
	// 3 projects race for 12 nodes, 4 each: every allocation must
	// succeed (capacity suffices) and no node may be handed out twice.
	got := make(chan string, nodes)
	errc := make(chan error, nodes)
	for _, p := range projects {
		p := p
		go func() {
			for i := 0; i < nodes/len(projects); i++ {
				n, err := s.AllocateAnyNode(context.Background(), p)
				if err != nil {
					errc <- err
					return
				}
				got <- n
			}
			errc <- nil
		}()
	}
	for range projects {
		if err := <-errc; err != nil {
			t.Fatalf("spurious allocation failure: %v", err)
		}
	}
	close(got)
	seen := make(map[string]bool)
	for n := range got {
		if seen[n] {
			t.Fatalf("node %s allocated twice", n)
		}
		seen[n] = true
	}
	if len(seen) != nodes {
		t.Fatalf("allocated %d of %d", len(seen), nodes)
	}
}

// blockingBMC parks PowerOff until released, so a test can look at HIL
// while a FreeNode is between its detach and the end of its tear-down.
type blockingBMC struct {
	fakeBMC
	entered chan struct{} // closed when PowerOff has been called
	release chan struct{} // PowerOff returns once this is closed
}

func (b *blockingBMC) PowerOff() error {
	close(b.entered)
	<-b.release
	return b.fakeBMC.PowerOff()
}

// A freed node must not be allocatable until its detach and power-off have
// returned: marked free earlier, the lowest-free-name allocator hands it
// to a new owner and the old owner's tear-down lands on that owner.
func TestFreeNodeNotAllocatableUntilTornDown(t *testing.T) {
	ctx := context.Background()
	fabric, err := netsim.NewFabric(100, 199)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.AddPort("port-a"); err != nil {
		t.Fatal(err)
	}
	s := New(fabric)
	bmc := &blockingBMC{entered: make(chan struct{}), release: make(chan struct{})}
	if err := s.RegisterNode("node-a", "port-a", bmc, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"old", "new"} {
		if err := s.CreateProject(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AllocateNode(ctx, "old", "node-a"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateNetwork(ctx, "old", "n"); err != nil {
		t.Fatal(err)
	}
	if err := s.ConnectNode(ctx, "old", "node-a", "n"); err != nil {
		t.Fatal(err)
	}
	bmc.on = true

	freed := make(chan error, 1)
	go func() { freed <- s.FreeNode(ctx, "old", "node-a") }()
	<-bmc.entered // detached, power-off in progress

	if vs, _ := fabric.VLANsOf("port-a"); len(vs) != 0 {
		t.Fatalf("power-off started before the detach finished: still on %v", vs)
	}
	if free, _ := s.FreeNodes(); len(free) != 0 {
		t.Fatalf("node listed free mid-tear-down: %v", free)
	}
	if n, err := s.AllocateAnyNode(ctx, "new"); err == nil {
		t.Fatalf("AllocateAnyNode handed out %s mid-tear-down", n)
	}
	if err := s.AllocateNode(ctx, "new", "node-a"); !errors.Is(err, ErrInUse) {
		t.Fatalf("AllocateNode mid-tear-down = %v, want ErrInUse", err)
	}
	// The old owner can no longer drive it either, nor free it twice.
	if err := s.ConnectNode(ctx, "old", "node-a", "n"); !errors.Is(err, ErrInUse) {
		t.Fatalf("ConnectNode mid-tear-down = %v, want ErrInUse", err)
	}
	if err := s.FreeNode(ctx, "old", "node-a"); !errors.Is(err, ErrInUse) {
		t.Fatalf("second FreeNode mid-tear-down = %v, want ErrInUse", err)
	}

	close(bmc.release)
	if err := <-freed; err != nil {
		t.Fatal(err)
	}
	if bmc.on {
		t.Fatal("freed node still powered")
	}
	if n, err := s.AllocateAnyNode(ctx, "new"); err != nil || n != "node-a" {
		t.Fatalf("AllocateAnyNode after tear-down = %q, %v", n, err)
	}
}
