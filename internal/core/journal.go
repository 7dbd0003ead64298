package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// EventKind classifies enclave life-cycle events.
type EventKind string

// Journal event kinds, one per Figure-1 transition plus runtime events.
const (
	EvAllocated   EventKind = "allocated"    // node reserved from the free pool
	EvAirlocked   EventKind = "airlocked"    // moved into the airlock
	EvBooting     EventKind = "booting"      // powered on, firmware runtime coming up
	EvAttesting   EventKind = "attesting"    // registered, quote in flight
	EvAttested    EventKind = "attested"     // passed boot attestation
	EvWarm        EventKind = "warm"         // parked as a pre-attested standby in the warm pool
	EvRejected    EventKind = "rejected"     // failed a lifecycle phase -> rejected pool
	EvJoined      EventKind = "joined"       // member of the tenant enclave
	EvProvisioned EventKind = "provisioned"  // remote volume + disk stack ready
	EvBooted      EventKind = "booted"       // kexec'd into the tenant kernel
	EvRevoked     EventKind = "revoked"      // runtime violation, keys revoked
	EvQuarantined EventKind = "quarantined"  // revoked member torn out of the enclave
	EvRekeyed     EventKind = "rekeyed"      // enclave-wide IPsec PSK rotated
	EvHealed      EventKind = "healed"       // replacement node restored target size
	EvDegraded    EventKind = "degraded"     // self-healing failed; running below target
	EvGuardPaused EventKind = "guard-paused" // guard checks suspended: registrar breaker open
	EvReclaimed   EventKind = "reclaimed"    // rejected node scrubbed and returned to the free pool
	EvReleased    EventKind = "released"     // returned to the free pool
	EvStateSaved  EventKind = "state-saved"  // volume preserved as an image
	EvRecovered   EventKind = "recovered"    // re-adopted (or restored) by crash recovery
)

// Event is one journal record. Seq is 1-based, strictly increasing, and
// stable across control-plane restarts (restored from the durable store), so
// it doubles as the resume cursor for NDJSON event feeds. The tags are the
// event's /v1 wire form: an event never changes once recorded, so the
// journal keeps the line it marshals to (Journal.LinesSince).
type Event struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   EventKind `json:"kind"`
	Node   string    `json:"node"`
	Detail string    `json:"detail,omitempty"`
}

func (e Event) String() string {
	return fmt.Sprintf("%s %-12s %s %s", e.At.Format("15:04:05.000"), e.Kind, e.Node, e.Detail)
}

// Journal is an append-only audit log of enclave operations. Security-
// sensitive tenants want an audit trail of exactly when each machine
// was trusted, by whom, and why it left.
//
// When a persist hook is attached (durable Manager), every event commits to
// the store before it is assigned a sequence number and fanned out — a
// client can never hold a cursor for an event that would not survive a
// crash. A persist failure is sticky: the journal stops accepting events and
// lifecycle transitions fail closed.
//
// Readers on the wire are served lines, not events: lines[i], once some
// reader has asked for it, is events[i] marshalled with its newline, and
// every feed and tail read after that sends those same bytes. A line leaves
// only after a sync that began after its event was staged has returned.
type Journal struct {
	mu       sync.Mutex
	events   []Event
	lines    [][]byte // len <= len(events); nil where no reader has asked yet
	seq      uint64   // last assigned sequence number
	watchers map[int]func(Event)
	watchSeq int
	persist  func(Event) error
	sync     func() error // makes everything persist staged durable
	fail     error        // sticky persist failure
}

func (j *Journal) record(kind EventKind, node, detail string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return
	}
	ev := Event{Seq: j.seq + 1, At: time.Now(), Kind: kind, Node: node, Detail: detail}
	if j.persist != nil {
		if err := j.persist(ev); err != nil {
			j.fail = fmt.Errorf("core: journal persist: %w", err)
			return
		}
	}
	j.seq = ev.Seq
	j.events = append(j.events, ev)
	// Watchers run under j.mu so every watcher sees events in journal
	// order. They must be fast and must not record into this journal.
	for _, fn := range j.watchers {
		fn(ev)
	}
}

// setPersist attaches the durable commit hook and the sync that makes what
// it staged durable. The hook runs under the journal lock, so commits are
// made in event order; sync runs outside it.
func (j *Journal) setPersist(fn func(Event) error, sync func() error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.persist, j.sync = fn, sync
}

// Err reports the sticky persist failure, if any. Once set, no further
// events are recorded: the enclave's audit trail is frozen and lifecycle
// transitions fail closed rather than running unjournaled.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fail
}

// restore reloads a recovered journal: the persisted events verbatim, the
// sequence counters they left off at, and the watcher-id seed (persisted so
// watcher ids handed out before a restart never collide after recovery).
func (j *Journal) restore(events []Event, watchSeq int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append([]Event(nil), events...)
	j.lines = nil
	j.seq = 0
	if n := len(events); n > 0 {
		j.seq = events[n-1].Seq
	}
	if watchSeq > j.watchSeq {
		j.watchSeq = watchSeq
	}
}

// seqs returns (last event seq, watcher-id seed) for checkpointing.
func (j *Journal) seqs() (uint64, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.watchSeq
}

// Record appends an event to the journal. Subsystems layered above the
// enclave core — the runtime attestation guard — use this to weave
// their own events (healed, degraded) into the enclave's audit trail.
func (j *Journal) Record(kind EventKind, node, detail string) {
	j.record(kind, node, detail)
}

// Watch registers fn to be called, in journal order, with every event
// recorded after this call. The returned func unsubscribes. Operations
// use this to fan the lifecycle journal out to pollers and streams;
// fn runs synchronously inside record, so it must be fast and must not
// record into the same journal.
func (j *Journal) Watch(fn func(Event)) (cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.watchers == nil {
		j.watchers = make(map[int]func(Event))
	}
	id := j.watchSeq
	j.watchSeq++
	j.watchers[id] = fn
	return func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		delete(j.watchers, id)
	}
}

// Events returns a copy of the journal.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// LinesSince returns the NDJSON lines of the events past cursor, ready to
// send: a sync that began after the newest of them was staged has completed
// by the time it returns. The lines are shared with every other reader and
// must not be modified.
func (j *Journal) LinesSince(cursor int) ([][]byte, error) {
	return j.durableLines(cursor, -1)
}

// durableLines is LinesSince over events[from:to]; to < 0 means the end.
func (j *Journal) durableLines(from, to int) ([][]byte, error) {
	j.mu.Lock()
	if to < 0 || to > len(j.events) {
		to = len(j.events)
	}
	if from < 0 || from >= to {
		j.mu.Unlock()
		return nil, nil
	}
	var missing []int // positions no reader has asked for yet
	for i := from; i < to; i++ {
		if i >= len(j.lines) || j.lines[i] == nil {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		// Marshal outside the lock record takes: a first read of a long
		// journal must not stall the enclave's lifecycle. A recorded event
		// never changes, so the snapshot is safe to read unlocked.
		evs := j.events[:to:to]
		j.mu.Unlock()
		fresh := make([][]byte, len(missing))
		for k, i := range missing {
			line, err := json.Marshal(evs[i])
			if err != nil {
				return nil, fmt.Errorf("core: encode journal event %d: %w", evs[i].Seq, err)
			}
			fresh[k] = append(line, '\n')
		}
		j.mu.Lock()
		if n := to - len(j.lines); n > 0 {
			j.lines = append(j.lines, make([][]byte, n)...)
		}
		for k, i := range missing {
			if j.lines[i] == nil { // else a reader beside this one got there first
				j.lines[i] = fresh[k]
			}
		}
	}
	// A slot is written once, so the sub-slice is safe to read outside the
	// lock while later lines are appended behind it.
	out := j.lines[from:to:to]
	sync := j.sync
	j.mu.Unlock()
	if sync != nil {
		// The newest line was staged before the first lock hold saw it, so
		// this sync began after every line in out was staged.
		if err := sync(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SinceSeq returns a copy of the events with Seq > after. Because seqs are
// restored across restarts, a cursor taken before a crash resumes exactly
// where it left off — no gaps, no duplicates.
func (j *Journal) SinceSeq(after uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	i := len(j.events)
	for i > 0 && j.events[i-1].Seq > after {
		i--
	}
	if i >= len(j.events) {
		return nil
	}
	return append([]Event(nil), j.events[i:]...)
}

// ByNode returns the events for one node, in order.
func (j *Journal) ByNode(node string) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for _, e := range j.events {
		if e.Node == node {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many events of a kind were recorded.
func (j *Journal) Count(kind EventKind) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
