// Package store is the durable control-plane log behind core.Manager.
//
// The store holds two things: an optional compacting snapshot of the full
// control-plane state and an append-only sequence of typed records (the
// write-ahead log). Every control-plane mutation — enclave create/delete,
// quota and pool-policy changes, guard policy changes, operation begin/end,
// and every lifecycle journal event — is appended and made durable before the
// mutation is acknowledged to a client. Recovery loads the snapshot, replays
// the log on top, and re-establishes node trust by fresh attestation quotes
// rather than by believing recorded state (the paper's §5/§7.4 recovery
// primitive).
//
// The store is deliberately ignorant of core's types: record payloads and the
// snapshot state are opaque JSON blobs marshaled by the caller. That keeps
// store free of an import cycle with core and makes the on-disk format
// self-describing.
package store

import (
	"encoding/json"
	"sync"
	"time"
)

// Kind tags a Record with the control-plane mutation it carries.
type Kind string

const (
	KindEnclaveCreated Kind = "enclave-created"
	KindEnclaveDeleted Kind = "enclave-deleted"
	KindJournalEvent   Kind = "journal-event"
	KindQuotaSet       Kind = "quota-set"
	KindQuotaDeleted   Kind = "quota-deleted"
	KindPoolConfigured Kind = "pool-configured"
	KindPoolDetached   Kind = "pool-detached"
	KindGuardEnabled   Kind = "guard-enabled"
	KindGuardDetached  Kind = "guard-detached"
	KindOpStarted      Kind = "op-started"
	KindOpFinished     Kind = "op-finished"
	KindIncidentUpdate Kind = "incident-update"
	KindRevocation     Kind = "revocation"
)

// Record is one framed WAL entry.
type Record struct {
	Kind Kind            `json:"kind"`
	At   time.Time       `json:"at"`
	Data json.RawMessage `json:"data,omitempty"`
	// Decoded is Data as the installed payload decoder read it while Open
	// scanned the log (InstallDecoder). It is nil for a record no decoder
	// read — one appended since, one a Memory store holds — and is never
	// written to disk.
	Decoded any `json:"-"`
}

// Snapshot is a compacted image of the full control-plane state at a point in
// time. Records appended after the snapshot was taken are replayed on top.
type Snapshot struct {
	Taken time.Time       `json:"taken"`
	State json.RawMessage `json:"state"`
}

// Store is the narrow durability interface Manager commits through.
//
// Append must not return until the record is durable (for File, fsync'd);
// a nil return is the commit point after which the mutation may be
// acknowledged. AppendBuffered stages a record in the log — ordering
// against other appends is preserved, but the commit point is deferred to
// the next Append, Sync, or Compact; it exists for high-rate journal
// events whose acknowledgment boundary (an operation result, a feed read)
// carries one flush for many records. Compact atomically replaces the
// snapshot and truncates the log; Load returns the current snapshot (nil
// if none) and the records appended since it was taken, in append order.
type Store interface {
	Load() (*Snapshot, []Record, error)
	Append(rec Record) error
	AppendBuffered(rec Record) error
	Sync() error
	Compact(snap *Snapshot) error
	Close() error
}

// Memory is an in-process Store. It gives the same commit ordering semantics
// as File without touching disk — useful for tests and as the baseline in the
// WAL-overhead benchmarks.
type Memory struct {
	mu     sync.Mutex
	snap   *Snapshot
	recs   []Record
	closed bool
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory { return &Memory{} }

func (m *Memory) Load() (*Snapshot, []Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, nil, ErrClosed
	}
	recs := make([]Record, len(m.recs))
	copy(recs, m.recs)
	if m.snap == nil {
		return nil, recs, nil
	}
	snap := *m.snap
	return &snap, recs, nil
}

func (m *Memory) Append(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	// Deep-copy the payload so callers can't mutate committed state.
	rec.Data = append(json.RawMessage(nil), rec.Data...)
	m.recs = append(m.recs, rec)
	return nil
}

// AppendBuffered is Append: memory is always "durable".
func (m *Memory) AppendBuffered(rec Record) error { return m.Append(rec) }

func (m *Memory) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

func (m *Memory) Compact(snap *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	cp := *snap
	cp.State = append(json.RawMessage(nil), snap.State...)
	m.snap = &cp
	m.recs = nil
	return nil
}

func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// Discard is a Store that accepts and forgets everything. A Manager built
// without durability runs against Discard so the persistence hooks stay
// unconditional.
type Discard struct{}

func (Discard) Load() (*Snapshot, []Record, error) { return nil, nil, nil }
func (Discard) Append(Record) error                { return nil }
func (Discard) AppendBuffered(Record) error        { return nil }
func (Discard) Sync() error                        { return nil }
func (Discard) Compact(*Snapshot) error            { return nil }
func (Discard) Close() error                       { return nil }
