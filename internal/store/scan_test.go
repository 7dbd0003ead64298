package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// referenceScan is the plain sequential scanner the single-pass one replaced,
// kept as the oracle: one frame at a time, a copy and a full decode per
// frame, stop at the first frame that fails any check.
func referenceScan(log []byte) (recs []Record, validEnd int64) {
	recs = []Record{}
	r := bytes.NewReader(log)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, validEnd // clean end, or a torn header
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size == 0 || size > maxFrame || int64(size) > int64(r.Len()) {
			return recs, validEnd // empty, oversize, or a torn payload
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, validEnd
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, validEnd
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, validEnd
		}
		recs = append(recs, rec)
		validEnd += int64(frameHeader) + int64(size)
	}
}

func frame(payload []byte) []byte {
	f := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(payload, crcTable))
	copy(f[frameHeader:], payload)
	return f
}

// mixedWAL writes n records of every kind in turn through a real File and
// returns the log's bytes and the offset where each frame starts (plus the
// end). n is chosen above 2*minPerWorker by callers that want the decode
// fanned out.
func mixedWAL(t testing.TB, n int) (log []byte, starts []int64) {
	t.Helper()
	kinds := []Kind{
		KindEnclaveCreated, KindJournalEvent, KindQuotaSet, KindOpStarted, KindJournalEvent,
		KindOpFinished, KindPoolConfigured, KindIncidentUpdate, KindRevocation, KindJournalEvent,
		KindGuardEnabled, KindGuardDetached, KindPoolDetached, KindQuotaDeleted, KindEnclaveDeleted,
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for i := 0; i < n; i++ {
		rec := Record{Kind: kinds[i%len(kinds)], At: at.Add(time.Duration(i) * time.Millisecond)}
		if i%7 != 3 { // some records carry no payload at all
			rec.Data = json.RawMessage(fmt.Sprintf(`{"i":%d,"pad":%q}`, i, bytes.Repeat([]byte{'x'}, i%40)))
		}
		starts = append(starts, s.off)
		if err := s.AppendBuffered(rec); err != nil {
			t.Fatal(err)
		}
	}
	starts = append(starts, s.off)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err = os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return log, starts
}

// checkAgainstReference opens a data directory holding exactly log as its
// WAL and holds Open + Load to the reference scanner: same records, file cut
// to the same length, and a second open finds nothing more to cut and reads
// the same records again.
func checkAgainstReference(t *testing.T, name string, log []byte) {
	t.Helper()
	wantRecs, wantEnd := referenceScan(log)
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: open (pass %d): %v", name, pass, err)
		}
		_, recs, err := s.Load()
		if err != nil {
			t.Fatalf("%s: load (pass %d): %v", name, pass, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("%s (pass %d): %d records, reference has %d (or contents differ)", name, pass, len(recs), len(wantRecs))
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != wantEnd {
			t.Fatalf("%s (pass %d): file left at %d bytes, reference cuts at %d", name, pass, info.Size(), wantEnd)
		}
	}
}

// offPathFrames are whole, checksummed frames that are not the envelope
// json.Marshal writes, each with whether json.Unmarshal reads it as a record.
// The fixed-shape path must refuse every one and leave it to json.Unmarshal.
var offPathFrames = []struct {
	name    string
	payload string
	record  bool
}{
	{"escaped at", `{"kind":"quota-set","at":"2026-01-02T03:04:05\u005a","data":{}}`, false},
	{"data omitted", `{"kind":"quota-set","at":"2026-01-02T03:04:05Z"}`, true},
	{"keys out of order", `{"at":"2026-01-02T03:04:05Z","data":{"i":1},"kind":"quota-set"}`, true},
	{"white space between keys", `{"kind": "quota-set", "at":"2026-01-02T03:04:05Z",` + "\n" + `"data": {"i":1} }`, true},
	{"white space before data", `{"kind":"quota-set","at":"2026-01-02T03:04:05Z","data": {"i":1}}`, true},
	{"white space after data", `{"kind":"quota-set","at":"2026-01-02T03:04:05Z","data":{"i":1} }`, true},
	{"trailing white space", `{"kind":"quota-set","at":"2026-01-02T03:04:05Z","data":{"i":1}}` + "\n", true},
	{"trailing bytes", `{"kind":"quota-set","at":"2026-01-02T03:04:05Z","data":{"i":1}}x`, false},
	{"data not JSON", `{"kind":"quota-set","at":"2026-01-02T03:04:05Z","data":{]}`, false},
}

// TestScannerMatchesReference damages a mixed-kind log every way a crash or a
// bad disk can — a cut at every byte of the last three frames; a flipped bit
// in the length, the CRC and the payload of a middle frame; a frame whose CRC
// is right and whose JSON is not — and splices in frames another encoder
// could have written, and holds the scanner to the reference.
func TestScannerMatchesReference(t *testing.T) {
	const frames = 3 * minPerWorker // enough for the decode to fan out
	log, starts := mixedWAL(t, frames)
	if recs, end := referenceScan(log); len(recs) != frames || end != int64(len(log)) {
		t.Fatalf("reference reads %d records to offset %d of an undamaged %d-frame, %d-byte log", len(recs), end, frames, len(log))
	}
	checkAgainstReference(t, "undamaged", log)

	for cut := starts[frames-3]; cut < int64(len(log)); cut++ {
		checkAgainstReference(t, fmt.Sprintf("cut at %d", cut), log[:cut])
	}

	mid := starts[frames/2]
	for _, flip := range []struct {
		name string
		off  int64
	}{
		{"length low bit", mid},
		{"length high bit", mid + 3}, // claims ~16 MiB more than the file holds
		{"crc", mid + 5},
		{"payload", mid + frameHeader + 4},
	} {
		damaged := bytes.Clone(log)
		damaged[flip.off] ^= 0x80
		checkAgainstReference(t, "flipped "+flip.name, damaged)
		if recs, _ := referenceScan(damaged); len(recs) != frames/2 {
			t.Fatalf("flipped %s: reference kept %d records, want the %d before the damage", flip.name, len(recs), frames/2)
		}
	}

	// A frame that is whole and checksummed but is not a record: in either
	// half of the log and in both, so whichever worker meets one, the cut
	// lands on the first.
	undecodable := frame([]byte(`{"kind":"journal-event","at":"not a time"}`))
	for _, at := range [][]int{{frames / 4}, {3 * frames / 4}, {frames / 4, 3 * frames / 4}} {
		var damaged []byte
		prev := int64(0)
		for _, i := range at {
			damaged = append(damaged, log[prev:starts[i]]...)
			damaged = append(damaged, undecodable...)
			prev = starts[i+1]
		}
		damaged = append(damaged, log[prev:]...)
		checkAgainstReference(t, fmt.Sprintf("undecodable frames %v", at), damaged)
		if recs, _ := referenceScan(damaged); len(recs) != at[0] {
			t.Fatalf("undecodable frames %v: reference kept %d records, want %d", at, len(recs), at[0])
		}
	}

	// Frames off the fixed-shape path, in place of a middle frame: a record
	// leaves every frame in place, anything else cuts the log there.
	for _, f := range offPathFrames {
		spliced := slices.Concat(log[:mid], frame([]byte(f.payload)), log[starts[frames/2+1]:])
		checkAgainstReference(t, f.name, spliced)
		recs, end := referenceScan(spliced)
		if kept := len(recs) == frames && end == int64(len(spliced)); kept != f.record {
			t.Fatalf("%s: reference kept %d of %d records; want a record: %v", f.name, len(recs), frames, f.record)
		}
	}
}

// TestScanHandsOverDecodedPayloads: with a payload decoder installed, Open's
// scan runs it on every record's data, on every CPU, and Load hands over
// what it returned. It only reads: a decoder that refuses a payload which
// is JSON cannot cut the log, because json.Unmarshal then decides the frame
// as it decides any frame off the fixed-shape path.
func TestScanHandsOverDecodedPayloads(t *testing.T) {
	defer func(d func(Kind, json.RawMessage) (any, error)) { decodePayload = d }(decodePayload)
	refused := []byte(`{"i":5,`)
	decodePayload = func(kind Kind, data json.RawMessage) (any, error) {
		if !json.Valid(data) || bytes.HasPrefix(data, refused) {
			return nil, errNotJSON
		}
		return string(kind) + " " + string(data), nil
	}
	const frames = 3 * minPerWorker // enough for the decode to fan out
	log, _ := mixedWAL(t, frames)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, recs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != frames {
		t.Fatalf("Load returned %d records of %d", len(recs), frames)
	}
	for i, rec := range recs {
		var want any
		if len(rec.Data) > 0 && !bytes.HasPrefix(rec.Data, refused) {
			want = string(rec.Kind) + " " + string(rec.Data)
		}
		if rec.Decoded != want {
			t.Fatalf("record %d (%s %s): Decoded = %v, want %v", i, rec.Kind, rec.Data, rec.Decoded, want)
		}
	}
}

// TestLoadedDataAliasesTheLog: a record's Data is a slice of the log buffer,
// not a copy, and its capacity ends with it, so appending to one record's
// Data cannot write over the next record's bytes.
func TestLoadedDataAliasesTheLog(t *testing.T) {
	log, _ := mixedWAL(t, 50)
	orig := bytes.Clone(log)
	recs, _ := decodeWAL(log)
	want, _ := referenceScan(orig)
	for i, rec := range recs {
		if len(rec.Data) == 0 {
			continue
		}
		rec.Data[0] ^= 0xff
		aliased := !bytes.Equal(log, orig)
		rec.Data[0] ^= 0xff
		if !aliased {
			t.Fatalf("record %d: Data is a copy, not a slice of the log", i)
		}
		_ = append(rec.Data, `,"appended":true}`...)
	}
	if !bytes.Equal(log, orig) {
		t.Fatal("appending to a loaded record's Data wrote into the log buffer")
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatal("records changed after appending to their neighbours' Data")
	}
}

// TestGoldenWAL replays a log the parent commit wrote (testdata/golden) and
// holds it to what the parent commit read back from it: the on-disk format
// has not moved.
func TestGoldenWAL(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "golden", walName))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, recs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, the parent commit read %d", len(recs), len(want))
	}
	for i := range want {
		// records.json went through MarshalIndent: compare payloads compacted.
		var a, b bytes.Buffer
		if len(want[i].Data) > 0 {
			if err := json.Compact(&a, want[i].Data); err != nil {
				t.Fatal(err)
			}
		}
		b.Write(recs[i].Data)
		if recs[i].Kind != want[i].Kind || !recs[i].At.Equal(want[i].At) || a.String() != b.String() {
			t.Fatalf("record %d = %s %v %s\nparent read  %s %v %s", i, recs[i].Kind, recs[i].At, b.String(), want[i].Kind, want[i].At, a.String())
		}
	}
	// Appending to it with this tree's writer continues the same format.
	mustAppend(t, s, KindQuotaSet, `{"tenant":"t"}`)
	after, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, log) {
		t.Fatal("append rewrote bytes of the golden log")
	}
	if got, _ := referenceScan(after); len(got) != len(want)+1 {
		t.Fatalf("reference reads %d records after one append to %d", len(got), len(want))
	}
}

// TestLoadAfterOpenReadsNothing pins the single pass: Open has read, checked
// and decoded the log, and the first Load must hand that over without going
// back to the file — shown by emptying the file behind the store's back.
// Anything that changes the log (an append, a Compact) drops the hand-over,
// and a second Load reads the file.
func TestLoadAfterOpenReadsNothing(t *testing.T) {
	log, _ := mixedWAL(t, 50)
	open := func() (*File, string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s, filepath.Join(dir, walName)
	}
	count := func(s *File) int {
		_, recs, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		return len(recs)
	}

	s, path := open()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if got := count(s); got != 50 {
		t.Fatalf("first Load returned %d records, want the 50 Open decoded (it re-read the file)", got)
	}
	if got := count(s); got != 0 {
		t.Fatalf("second Load returned %d records from an emptied file: the hand-over is for one Load only", got)
	}

	s, _ = open()
	mustAppend(t, s, KindQuotaSet, `{}`)
	if got := count(s); got != 51 {
		t.Fatalf("Load after an append returned %d records, want 51", got)
	}

	s, _ = open()
	if err := s.Compact(&Snapshot{Taken: time.Now(), State: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if got := count(s); got != 0 {
		t.Fatalf("Load after Compact returned %d records, want 0", got)
	}
	mustAppend(t, s, KindQuotaSet, `{}`)
	if got := count(s); got != 1 {
		t.Fatalf("Load after Compact + append returned %d records, want 1", got)
	}
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A length header is input from a disk that may be lying: it must never size
// an allocation. The old scanner made a buffer of whatever a header below
// 16 MiB claimed before finding the file too short.
func TestCorruptLengthAllocatesNothing(t *testing.T) {
	log := make([]byte, frameHeader+64)
	binary.LittleEndian.PutUint32(log[0:4], maxFrame-1)
	var recs []Record
	var end int64
	if got := allocated(func() { recs, end = decodeWAL(log) }); got > 4096 {
		t.Fatalf("a %d-byte log with a corrupt length made decodeWAL allocate %d bytes", len(log), got)
	}
	if len(recs) != 0 || end != 0 {
		t.Fatalf("decodeWAL kept %d records to offset %d of pure garbage", len(recs), end)
	}
}

// FuzzOpenWAL feeds arbitrary bytes to Open as a log: no panic, the same
// answer as the reference scanner, memory in proportion to the file.
func FuzzOpenWAL(f *testing.F) {
	log, starts := mixedWAL(f, 12)
	f.Add(log)
	f.Add(log[:starts[11]+5])
	f.Add([]byte{})
	f.Add(frame([]byte(`{}`)))
	f.Add(frame([]byte(`{"kind":1}`)))
	f.Add(append(frame([]byte(`{"kind":"quota-set","at":"2026-01-02T03:04:05Z","data":[1,2]}`)), 0xff, 0xff, 0xff, 0x00))
	f.Add(frame([]byte(`{"kind":"quota-set","at":"2026-01-02T03:04:05+01:00","data":null}`)))
	for _, fr := range offPathFrames {
		f.Add(slices.Concat(log[:starts[6]], frame([]byte(fr.payload)), log[starts[7]:]))
	}
	if golden, err := os.ReadFile(filepath.Join("testdata", "golden", walName)); err == nil {
		f.Add(golden[:4096])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		var end int64
		// Generous on purpose (decoded records outweigh their JSON several
		// times over); what it must catch is memory sized by a header.
		if got, limit := allocated(func() { recs, end = decodeWAL(data) }), uint64(4<<20+256*len(data)); got > limit {
			t.Fatalf("%d-byte log: decodeWAL allocated %d bytes (limit %d)", len(data), got, limit)
		}
		wantRecs, wantEnd := referenceScan(data)
		if end != wantEnd || !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("decodeWAL: %d records to offset %d; reference: %d records to offset %d", len(recs), end, len(wantRecs), wantEnd)
		}
		checkAgainstReference(t, "fuzz input", data)
	})
}
