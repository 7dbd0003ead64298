package core

import (
	"context"
	"sync"
	"time"
)

// This file is the asynchronous half of the tenant control plane: a
// multi-minute attested batch boot (Figures 4-5) must not be a blocking
// function call when the tenant sits on the other side of an HTTP API.
// An Operation wraps one AcquireNodes run as a first-class resource the
// tenant can poll, stream, and cancel, with per-node progress derived
// from the Figure-1 lifecycle journal.

// OpPhase is an Operation's position in its own small life cycle.
type OpPhase string

// Operation phases. Done and Cancelled are terminal.
const (
	// OpPending: created, worker not yet running.
	OpPending OpPhase = "pending"
	// OpRunning: the batch pipeline is in flight.
	OpRunning OpPhase = "running"
	// OpDone: the batch finished (possibly with per-node failures —
	// inspect Result.Failed).
	OpDone OpPhase = "done"
	// OpCancelled: the tenant cancelled mid-flight; unfinished nodes
	// were returned to the free pool (Result.Aborted).
	OpCancelled OpPhase = "cancelled"
	// OpInterrupted: the control plane restarted while the batch was in
	// flight. Partially-held nodes were released during recovery; the
	// tenant retries (an Idempotency-Key retry of an interrupted
	// operation returns it rather than starting a duplicate, so clients
	// see the interruption explicitly before re-submitting).
	OpInterrupted OpPhase = "interrupted"
)

// Terminal reports whether the phase is final.
func (p OpPhase) Terminal() bool {
	return p == OpDone || p == OpCancelled || p == OpInterrupted
}

// Operation is one long-running acquisition tracked by a Manager. All
// methods are safe for concurrent use.
type Operation struct {
	ID      string
	Enclave string
	Image   string
	Count   int
	Created time.Time

	seq     int    // manager-assigned creation order
	idemKey string // the Idempotency-Key it was started under; the key lives exactly as long as the operation
	cancel  context.CancelFunc
	done    chan struct{}
	journal *Journal // the enclave journal observe is fed from; nil when restored

	mu       sync.Mutex
	phase    OpPhase
	result   *BatchResult
	err      error
	finished time.Time
	events   []Event       // lifecycle journal events observed while running
	notify   chan struct{} // closed and replaced on every append / phase change
	progress map[string]EventKind
}

// newOperation builds an operation from its op-started record: live, with
// the cancel func of the run it tracks; in replay, with none.
func newOperation(r opStartedRecord, seq int, cancel context.CancelFunc) *Operation {
	if cancel == nil {
		cancel = func() {}
	}
	return &Operation{
		ID:       r.ID,
		Enclave:  r.Enclave,
		Image:    r.Image,
		Count:    r.Count,
		Created:  r.Created,
		seq:      seq,
		idemKey:  r.IdemKey,
		cancel:   cancel,
		done:     make(chan struct{}),
		phase:    OpPending,
		notify:   make(chan struct{}),
		progress: make(map[string]EventKind),
	}
}

// observe is the journal watcher: record the event, track the node's
// latest lifecycle step, and wake pollers. Called under the journal
// lock, so it must not touch the journal.
func (o *Operation) observe(ev Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.phase.Terminal() {
		return
	}
	o.events = append(o.events, ev)
	o.progress[ev.Node] = ev.Kind
	o.wake()
}

// wake signals every waiter that state advanced. Callers hold o.mu.
func (o *Operation) wake() {
	close(o.notify)
	o.notify = make(chan struct{})
}

func (o *Operation) setRunning() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.phase = OpRunning
	o.wake()
}

// finish moves the operation to its terminal phase with its outcome and
// wakes every waiter; the done channel closes exactly once, and a terminal
// operation takes no second outcome.
func (o *Operation) finish(phase OpPhase, res *BatchResult, err error, finished time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.phase.Terminal() {
		return
	}
	o.phase, o.result, o.err, o.finished = phase, res, err, finished
	o.wake()
	close(o.done)
}

// Cancel asks the run to stop at the next phase boundary. Unfinished
// nodes are returned to the free pool (never quarantined); nodes that
// already allocated stay allocated. Cancelling a terminal operation is
// a no-op.
func (o *Operation) Cancel() { o.cancel() }

// Phase returns the operation's current phase.
func (o *Operation) Phase() OpPhase {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.phase
}

// Done returns a channel closed when the operation reaches a terminal
// phase.
func (o *Operation) Done() <-chan struct{} { return o.done }

// Finished returns when the operation reached a terminal phase (zero
// while in flight).
func (o *Operation) Finished() time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.finished
}

// Wait blocks until the operation is terminal (returning its outcome)
// or ctx ends (returning ctx's error).
func (o *Operation) Wait(ctx context.Context) (*BatchResult, error) {
	select {
	case <-o.done:
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.result, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the batch outcome, or (nil, nil) while the operation
// is still in flight.
func (o *Operation) Result() (*BatchResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.phase.Terminal() {
		return nil, nil
	}
	return o.result, o.err
}

// OpStatus is a consistent point-in-time view of an Operation: every
// field observed under one lock, so a terminal phase always comes with
// its result. Result and Err are nil while the phase is non-terminal.
type OpStatus struct {
	Phase    OpPhase
	Finished time.Time
	Progress map[string]EventKind
	Result   *BatchResult
	Err      error
}

// Status snapshots the operation atomically — the poll surface must
// never observe phase "done" without its result.
func (o *Operation) Status() OpStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := OpStatus{
		Phase:    o.phase,
		Finished: o.finished,
		Progress: make(map[string]EventKind, len(o.progress)),
	}
	for n, k := range o.progress {
		st.Progress[n] = k
	}
	if o.phase.Terminal() {
		st.Result, st.Err = o.result, o.err
	}
	return st
}

// Progress returns each touched node's latest lifecycle step.
func (o *Operation) Progress() map[string]EventKind {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]EventKind, len(o.progress))
	for n, k := range o.progress {
		out[n] = k
	}
	return out
}

// Events returns the lifecycle journal events the operation has
// observed so far.
func (o *Operation) Events() []Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Event(nil), o.events...)
}

// LinesSince returns the NDJSON lines of the events past cursor (the
// journal's own, shared and durable as Journal.LinesSince hands them out), a
// channel that closes when anything new happens, and whether the operation
// is terminal. A streamer loops: send the lines, advance the cursor, and —
// unless terminal — select on the notify channel. No event is ever lost
// between the snapshot and the wait, and a terminal snapshot is complete:
// observe takes nothing after the terminal phase.
func (o *Operation) LinesSince(cursor int) ([][]byte, <-chan struct{}, bool, error) {
	o.mu.Lock()
	notify, terminal := o.notify, o.phase.Terminal()
	var from, to int
	if n := len(o.events); cursor >= 0 && cursor < n {
		// What the operation observed is one contiguous run of the journal,
		// and journal seqs are 1-based positions.
		from, to = int(o.events[cursor].Seq)-1, int(o.events[n-1].Seq)
	}
	o.mu.Unlock() // the journal calls observe under its lock: never take it under o.mu
	if from == to {
		return nil, notify, terminal, nil
	}
	lines, err := o.journal.durableLines(from, to)
	return lines, notify, terminal, err
}
