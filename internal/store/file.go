package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bolted/internal/obs"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrRecordTooLarge rejects appends whose encoded payload exceeds maxFrame.
var ErrRecordTooLarge = errors.New("store: record exceeds frame limit")

const (
	walName  = "wal.log"
	snapName = "snapshot.json"

	// frameHeader is [4-byte little-endian payload length][4-byte CRC32-C of
	// the payload]. The CRC lets open-time recovery distinguish a torn tail
	// (truncate and continue) from silent corruption (also truncate — every
	// byte after the last valid frame is untrusted).
	frameHeader = 8
	maxFrame    = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// File is the durable Store: an fsync'd append-only WAL plus an atomically
// replaced snapshot file, both inside a single directory.
//
// Append uses group commit: the frame is written under the write lock, then
// the caller joins a shared fsync that covers every frame written before it
// started. Concurrent appenders therefore amortize one fsync instead of
// paying one each, while each still returns only after its own frame is
// durable.
type File struct {
	dir string

	mu     sync.Mutex // guards f, off, wrote, scanned, closed, and structural ops
	f      *os.File
	off    int64  // end of the framed log: where the next frame is written
	wrote  uint64 // frames fully written to the OS
	closed bool
	// scanned holds the records Open validated and decoded, for the first
	// Load to take instead of reading the log again; nil once taken or once
	// any append or Compact has made it stale.
	scanned []Record
	syncMu  sync.Mutex // serializes fsyncs; never held with mu
	durable uint64     // frames covered by the last completed fsync

	// Pre-resolved instruments (fileMetrics zero value when no registry
	// is attached; obs instruments are nil-safe).
	metrics fileMetrics
}

// fileMetrics is the WAL's instrument set.
type fileMetrics struct {
	appendSeconds *obs.Histogram // frame write, excluding the group fsync
	fsyncSeconds  *obs.Histogram // the shared fsync itself
	groupFrames   *obs.Histogram // frames committed per fsync
	snapSeconds   *obs.Histogram // Compact end to end
	snapBytes     *obs.Histogram // encoded snapshot size
}

// SetMetrics attaches an observability registry (nil detaches). Call
// before the store sees traffic; instruments are resolved once here.
func (s *File) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.metrics = fileMetrics{}
		return
	}
	s.metrics = fileMetrics{
		appendSeconds: reg.Histogram("bolted_wal_append_seconds", "WAL frame write latency (buffered; excludes the group fsync).", nil),
		fsyncSeconds:  reg.Histogram("bolted_wal_fsync_seconds", "WAL group-commit fsync latency.", nil),
		groupFrames:   reg.Histogram("bolted_wal_group_commit_frames", "Frames made durable per group-commit fsync.", obs.DefCountBuckets),
		snapSeconds:   reg.Histogram("bolted_snapshot_seconds", "Snapshot compaction latency (write, rename, WAL truncate).", nil),
		snapBytes:     reg.Histogram("bolted_snapshot_bytes", "Encoded snapshot size.", obs.DefSizeBuckets),
	}
}

// Open creates dir if needed, recovers the WAL tail (truncating after the
// last valid frame), and returns a store ready for Load and Append. The log
// is read, checked and decoded here, once; the first Load returns that result.
func Open(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	recs, valid, size, err := readWAL(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if size > valid {
		// Torn or corrupt tail from a crash mid-append: everything after the
		// last whole frame is garbage. Cut it so new frames start clean.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: sync after truncate: %w", err)
		}
	}
	n := uint64(len(recs))
	return &File{dir: dir, f: f, off: valid, wrote: n, durable: n, scanned: recs}, nil
}

// readWAL reads the whole log in one sequential read and decodes its valid
// prefix. It returns the records (never nil), the offset just past the last
// valid frame and the number of bytes the file held. The file offset is not
// moved: appends go to File.off by WriteAt.
func readWAL(f *os.File) (recs []Record, validEnd, size int64, err error) {
	var hint int64
	if info, err := f.Stat(); err == nil {
		hint = info.Size() // only sizes the buffer; the read decides the length
	}
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	if _, err := buf.ReadFrom(io.NewSectionReader(f, 0, math.MaxInt64)); err != nil {
		return nil, 0, 0, fmt.Errorf("store: read wal: %w", err)
	}
	recs, validEnd = decodeWAL(buf.Bytes())
	return recs, validEnd, int64(buf.Len()), nil
}

// decodeWAL returns the records of log's valid prefix and where that prefix
// ends: at the first frame that is torn, empty or oversize, fails its CRC,
// or does not decode — that frame and every byte after it are untrusted.
func decodeWAL(log []byte) ([]Record, int64) {
	// Framing is sequential (each header locates the next); a length is
	// checked against the bytes that remain before anything is sliced, so a
	// corrupt header costs no allocation.
	bounds := []int{0} // frame i spans log[bounds[i]:bounds[i+1]]
	for off := 0; len(log)-off >= frameHeader; {
		size := int64(binary.LittleEndian.Uint32(log[off:]))
		sum := binary.LittleEndian.Uint32(log[off+4:])
		body := off + frameHeader
		if size == 0 || size > maxFrame || size > int64(len(log)-body) {
			break
		}
		off = body + int(size)
		if crc32.Checksum(log[body:off], crcTable) != sum {
			break
		}
		bounds = append(bounds, off)
	}
	recs := make([]Record, len(bounds)-1)
	good, _ := Parallel(len(recs), func(i int) error {
		return json.Unmarshal(log[bounds[i]+frameHeader:bounds[i+1]], &recs[i])
	})
	return recs[:good:good], int64(bounds[good])
}

// minPerWorker is the fewest items worth a goroutine of their own in
// Parallel: below it (a few hundred JSON decodes, tens of microseconds)
// starting and joining the goroutine costs more than it saves.
const minPerWorker = 256

// Parallel calls fn(i) for every i in [0, n) and returns the lowest i for
// which fn failed, with its error, or (n, nil). It is the fan-out the two
// halves of replay share: File decodes frame envelopes with it, core decodes
// record payloads. The range is cut into one contiguous chunk per CPU and
// each chunk stops at its first failure, so every index below the returned
// one has succeeded; indexes above it may or may not have run. Small ranges
// run inline.
func Parallel(n int, fn func(i int) error) (int, error) {
	run := func(lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return hi, nil
	}
	workers := min(runtime.GOMAXPROCS(0), n/minPerWorker)
	if workers <= 1 {
		return run(0, n)
	}
	stops := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stops[w], errs[w] = run(w*n/workers, (w+1)*n/workers)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return stops[w], err
		}
	}
	return n, nil
}

func (s *File) Load() (*Snapshot, []Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	var snap *Snapshot
	raw, err := os.ReadFile(filepath.Join(s.dir, snapName))
	switch {
	case err == nil:
		snap = new(Snapshot)
		if err := json.Unmarshal(raw, snap); err != nil {
			// A half-written snapshot can't happen (tmp+rename), so a broken
			// one means external damage. Fail loudly rather than silently
			// recovering to an empty control plane over live hardware.
			return nil, nil, fmt.Errorf("store: corrupt snapshot: %w", err)
		}
	case os.IsNotExist(err):
	default:
		return nil, nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	recs := s.scanned
	s.scanned = nil
	if recs == nil {
		if recs, _, _, err = readWAL(s.f); err != nil {
			return nil, nil, err
		}
	}
	return snap, recs, nil
}

func (s *File) Append(rec Record) error {
	target, err := s.write(rec)
	if err != nil {
		return err
	}
	return s.syncTo(target)
}

// AppendBuffered writes the frame into the log (visible to Load and to
// open-time recovery) but returns before it is fsync'd: the next Append,
// Sync, or Compact is its commit point.
func (s *File) AppendBuffered(rec Record) error {
	_, err := s.write(rec)
	return err
}

// Sync blocks until every frame written so far is durable.
func (s *File) Sync() error {
	s.mu.Lock()
	target := s.wrote
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return s.syncTo(target)
}

// write frames and appends one record under the write lock, returning the
// frame count the caller must sync to for durability.
func (s *File) write(rec Record) (uint64, error) {
	t0 := time.Now()
	defer s.metrics.appendSeconds.ObserveSince(t0)
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("store: encode record: %w", err)
	}
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(payload))
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	s.scanned = nil
	if _, err := s.f.WriteAt(frame, s.off); err != nil {
		// Undo a partial write so the on-disk tail stays framed; if the
		// truncate also fails, the next frame overwrites the torn one, and
		// open-time CRC recovery cuts whatever a crash leaves of it.
		s.f.Truncate(s.off)
		return 0, fmt.Errorf("store: append: %w", err)
	}
	s.off += int64(len(frame))
	s.wrote++
	return s.wrote, nil
}

// syncTo returns once every frame up to target is fsync'd, issuing at most
// one fsync of its own and otherwise riding a concurrent one.
func (s *File) syncTo(target uint64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.durable >= target {
		return nil
	}
	s.mu.Lock()
	covered := s.wrote
	f, closed := s.f, s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.metrics.fsyncSeconds.ObserveSince(t0)
	if covered > s.durable {
		// The batch size of this group commit: every frame written since
		// the last completed fsync rode this one.
		s.metrics.groupFrames.Observe(float64(covered - s.durable))
		s.durable = covered
	}
	return nil
}

func (s *File) Compact(snap *Snapshot) error {
	t0 := time.Now()
	defer s.metrics.snapSeconds.ObserveSince(t0)
	raw, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	s.metrics.snapBytes.Observe(float64(len(raw)))
	// Lock order everywhere is syncMu before mu (syncTo does the same), so
	// Compact's reset of the durable watermark can't deadlock with an
	// in-flight group commit.
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tmp := filepath.Join(s.dir, snapName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot tmp: %w", err)
	}
	if _, err := tf.Write(raw); err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	syncDir(s.dir)
	// The snapshot now owns all prior history; drop the log it replaced.
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	s.off, s.wrote, s.durable, s.scanned = 0, 0, 0, nil
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync wal: %w", err)
	}
	return nil
}

func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
