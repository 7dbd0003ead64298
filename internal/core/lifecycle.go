package core

import (
	"fmt"
	"sync"
)

// This file makes the paper's Figure-1 node life cycle explicit. The
// original prototype encoded the free → airlock → attest →
// allocated/rejected progression implicitly in one long provisioning
// function; the state machine below names each state, validates every
// transition, and journals it, so the concurrent provisioner can keep
// many nodes in flight while a failed node is quarantined without
// ambiguity about where its siblings stand.

// NodeState is a node's position in the Figure-1 life cycle.
type NodeState string

// Life-cycle states, in the order a healthy node traverses them.
const (
	// StateFree: in the provider's free pool, not ours.
	StateFree NodeState = "free"
	// StateAirlocked: reserved and wired into its private airlock
	// network (shared VLANs only with the attestation and provisioning
	// services, never with other nodes).
	StateAirlocked NodeState = "airlocked"
	// StateBooting: powered on, firmware measured itself, the Keylime
	// agent is registering.
	StateBooting NodeState = "booting"
	// StateAttesting: quote in flight; the verifier decides.
	StateAttesting NodeState = "attesting"
	// StateWarm: pre-booted into the attested runtime and parked as a
	// standby in the enclave's warm pool; an acquisition takes it
	// through the kexec fast path (re-quote, network move, kexec)
	// without paying the PXE/boot/attest chain again.
	StateWarm NodeState = "warm"
	// StateProvisioned: out of the airlock, remote volume exported and
	// the disk/network encryption stack assembled.
	StateProvisioned NodeState = "provisioned"
	// StateAllocated: full enclave member, tenant kernel running.
	StateAllocated NodeState = "allocated"
	// StateRejected: failed a phase; parked in the provider's
	// quarantine project, off every network.
	StateRejected NodeState = "rejected"
	// StateQuarantined: was a full member, then failed runtime
	// attestation; cryptographically banned, torn off every network and
	// parked in the provider's quarantine project for forensics.
	StateQuarantined NodeState = "quarantined"
)

// lifecycleTransitions is the set of legal state changes. Booting may
// skip Attesting (profiles without attestation), and every in-flight
// state may fall to Rejected (phase failure) or back to Free (batch
// aborted by the caller's context).
var lifecycleTransitions = map[NodeState][]NodeState{
	StateFree:        {StateAirlocked},
	StateAirlocked:   {StateBooting, StateRejected, StateFree},
	StateBooting:     {StateAttesting, StateProvisioned, StateWarm, StateRejected, StateFree},
	StateAttesting:   {StateProvisioned, StateWarm, StateRejected, StateFree},
	StateWarm:        {StateProvisioned, StateRejected, StateQuarantined, StateFree},
	StateProvisioned: {StateAllocated, StateRejected, StateFree},
	StateAllocated:   {StateFree, StateQuarantined},
	StateRejected:    {StateFree}, // operator repaired the node
	StateQuarantined: {StateFree}, // operator scrubbed and repaired the node
}

// stateEvent maps a state entry to its journal event kind.
var stateEvent = map[NodeState]EventKind{
	StateAirlocked:   EvAirlocked,
	StateBooting:     EvBooting,
	StateAttesting:   EvAttesting,
	StateWarm:        EvWarm,
	StateProvisioned: EvProvisioned,
	StateAllocated:   EvJoined,
	StateRejected:    EvRejected,
	StateQuarantined: EvQuarantined,
	StateFree:        EvReleased,
}

// eventState inverts stateEvent: the state a journalled event put its node
// in. Recovery derives recorded node states from it.
var eventState = func() map[EventKind]NodeState {
	m := make(map[EventKind]NodeState, len(stateEvent))
	for s, ev := range stateEvent {
		m[ev] = s
	}
	return m
}()

// lifecycle tracks every node the enclave has touched and journals each
// transition. Safe for concurrent use: the provisioner drives many
// nodes through it at once.
type lifecycle struct {
	journal *Journal

	mu     sync.Mutex
	states map[string]NodeState
}

func newLifecycle(j *Journal) *lifecycle {
	return &lifecycle{journal: j, states: make(map[string]NodeState)}
}

// state returns a node's current state (StateFree if never seen).
func (l *lifecycle) state(node string) NodeState {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.states[node]; ok {
		return s
	}
	return StateFree
}

// to moves a node to the next state, journalling the transition. An
// illegal transition is a programming error in the provisioner and is
// reported, not executed.
func (l *lifecycle) to(node string, next NodeState, detail string) error {
	l.mu.Lock()
	cur, ok := l.states[node]
	if !ok {
		cur = StateFree
	}
	legal := false
	for _, s := range lifecycleTransitions[cur] {
		if s == next {
			legal = true
			break
		}
	}
	if !legal {
		l.mu.Unlock()
		return fmt.Errorf("core: illegal lifecycle transition %s -> %s for node %s", cur, next, node)
	}
	if next == StateFree {
		delete(l.states, node)
	} else {
		l.states[node] = next
	}
	l.mu.Unlock()
	l.journal.record(stateEvent[next], node, detail)
	if err := l.journal.Err(); err != nil {
		// The transition could not be committed to the durable log. Fail
		// closed: the caller treats the phase as failed, so no node is ever
		// acknowledged in a state the log does not record.
		return err
	}
	return nil
}

// restore reinstates a node's recorded state without validation or
// journalling. Recovery uses it only for states whose trust does not need a
// fresh quote (Rejected, Quarantined — distrust survives a restart; trust
// does not).
func (l *lifecycle) restore(node string, s NodeState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s == StateFree {
		delete(l.states, node)
		return
	}
	l.states[node] = s
}

// snapshot returns a copy of every tracked node's state.
func (l *lifecycle) snapshot() map[string]NodeState {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]NodeState, len(l.states))
	for n, s := range l.states {
		out[n] = s
	}
	return out
}

// NodeState reports where a node stands in the enclave's life cycle.
// Nodes the enclave never touched (or released) are StateFree.
func (e *Enclave) NodeState(name string) NodeState { return e.lc.state(name) }

// NodeStates returns the state of every node the enclave is tracking.
func (e *Enclave) NodeStates() map[string]NodeState { return e.lc.snapshot() }
