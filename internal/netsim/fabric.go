// Package netsim models the provider's switched network: ports, 802.1Q
// VLAN membership, and link performance. It is the infrastructure that
// HIL (the Hardware Isolation Layer) programs to isolate tenants.
//
// The model captures exactly the properties Bolted's isolation argument
// rests on: two endpoints can exchange traffic if and only if they share
// a VLAN, and VLANs are allocated from a finite pool the provider owns.
// Frame forwarding performance is modelled analytically via LinkSpec so
// the discrete-event simulation can charge realistic transfer times.
package netsim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// VLANID identifies an 802.1Q VLAN (valid range 1-4094).
type VLANID int

// Fabric is the provider's switch infrastructure. Safe for concurrent use.
type Fabric struct {
	mu        sync.RWMutex
	ports     map[string]*Port
	vlanPool  []VLANID // free VLANs, ascending
	allocated map[VLANID]string
	isolated  map[VLANID]bool // private VLANs: hosts reach only promiscuous ports
}

// Port is a switch port a node NIC or service host plugs into.
type Port struct {
	name    string
	vlans   map[VLANID]bool
	promisc map[VLANID]bool // promiscuous membership on private VLANs
}

// Name returns the port's name.
func (p *Port) Name() string { return p.name }

// NewFabric creates a fabric with the VLAN range [lo, hi] available for
// allocation (the provider's trunk allowance).
func NewFabric(lo, hi VLANID) (*Fabric, error) {
	if lo < 1 || hi > 4094 || lo > hi {
		return nil, fmt.Errorf("netsim: invalid VLAN range %d-%d", lo, hi)
	}
	f := &Fabric{
		ports:     make(map[string]*Port),
		allocated: make(map[VLANID]string),
		isolated:  make(map[VLANID]bool),
	}
	for v := lo; v <= hi; v++ {
		f.vlanPool = append(f.vlanPool, v)
	}
	return f, nil
}

// AddPort registers a new port. Port names must be unique.
func (f *Fabric) AddPort(name string) (*Port, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.ports[name]; ok {
		return nil, fmt.Errorf("netsim: port %q already exists", name)
	}
	p := &Port{name: name, vlans: make(map[VLANID]bool), promisc: make(map[VLANID]bool)}
	f.ports[name] = p
	return p, nil
}

// AllocateVLAN takes a VLAN from the free pool, tagging it with an owner
// label for diagnostics.
func (f *Fabric) AllocateVLAN(owner string) (VLANID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.vlanPool) == 0 {
		return 0, errors.New("netsim: VLAN pool exhausted")
	}
	v := f.vlanPool[0]
	f.vlanPool = f.vlanPool[1:]
	f.allocated[v] = owner
	return v, nil
}

// FreeVLAN returns a VLAN to the pool. All ports must have been detached
// from it first; freeing a VLAN with members would silently merge
// networks later, so it is an error.
func (f *Fabric) FreeVLAN(v VLANID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.allocated[v]; !ok {
		return fmt.Errorf("netsim: VLAN %d not allocated", v)
	}
	for _, p := range f.ports {
		if p.vlans[v] {
			return fmt.Errorf("netsim: VLAN %d still has member port %q", v, p.name)
		}
	}
	delete(f.allocated, v)
	delete(f.isolated, v)
	i, _ := slices.BinarySearch(f.vlanPool, v)
	f.vlanPool = slices.Insert(f.vlanPool, i, v)
	return nil
}

// SetVLANIsolated marks a VLAN as a private VLAN: host members can
// reach promiscuous members (service ports) but not each other. This is
// how the shared provisioning and attestation networks keep tenants'
// nodes — and concurrently airlocked nodes — from seeing one another.
func (f *Fabric) SetVLANIsolated(v VLANID, isolated bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.allocated[v]; !ok {
		return fmt.Errorf("netsim: VLAN %d not allocated", v)
	}
	f.isolated[v] = isolated
	return nil
}

// AttachPromiscuous adds a port to a VLAN as a promiscuous member: on a
// private VLAN it can exchange traffic with every member.
func (f *Fabric) AttachPromiscuous(port string, v VLANID) error {
	if err := f.Attach(port, v); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ports[port].promisc[v] = true
	return nil
}

// Attach adds a port to a VLAN (switchport trunk allowed vlan add).
func (f *Fabric) Attach(port string, v VLANID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.ports[port]
	if !ok {
		return fmt.Errorf("netsim: unknown port %q", port)
	}
	if _, ok := f.allocated[v]; !ok {
		return fmt.Errorf("netsim: VLAN %d not allocated", v)
	}
	p.vlans[v] = true
	return nil
}

// Detach removes a port from a VLAN.
func (f *Fabric) Detach(port string, v VLANID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.ports[port]
	if !ok {
		return fmt.Errorf("netsim: unknown port %q", port)
	}
	if !p.vlans[v] {
		return fmt.Errorf("netsim: port %q not on VLAN %d", port, v)
	}
	delete(p.vlans, v)
	delete(p.promisc, v)
	return nil
}

// DetachAll removes a port from every VLAN (the quarantine primitive used
// when a node is released or rejected).
func (f *Fabric) DetachAll(port string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.ports[port]
	if !ok {
		return fmt.Errorf("netsim: unknown port %q", port)
	}
	p.vlans = make(map[VLANID]bool)
	p.promisc = make(map[VLANID]bool)
	return nil
}

// VLANsOf returns the VLANs a port is attached to, ascending.
func (f *Fabric) VLANsOf(port string) ([]VLANID, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p, ok := f.ports[port]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown port %q", port)
	}
	var out []VLANID
	for v := range p.vlans {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Reachable reports whether two ports share at least one VLAN. This is
// the fabric's ground-truth isolation predicate: every message path in
// the Bolted model consults it.
func (f *Fabric) Reachable(a, b string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	pa, ok := f.ports[a]
	if !ok {
		return false
	}
	pb, ok := f.ports[b]
	if !ok {
		return false
	}
	for v := range pa.vlans {
		if !pb.vlans[v] {
			continue
		}
		// On a private VLAN, two plain host ports cannot exchange
		// traffic; at least one end must be promiscuous.
		if f.isolated[v] && !pa.promisc[v] && !pb.promisc[v] {
			continue
		}
		return true
	}
	return false
}

// CheckReachable returns a descriptive error when two ports cannot talk.
func (f *Fabric) CheckReachable(a, b string) error {
	if !f.Reachable(a, b) {
		return fmt.Errorf("netsim: %q and %q share no VLAN (isolated)", a, b)
	}
	return nil
}

// Members returns the ports attached to a VLAN, sorted by name.
func (f *Fabric) Members(v VLANID) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []string
	for name, p := range f.ports {
		if p.vlans[v] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
