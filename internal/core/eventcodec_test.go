package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bolted/internal/store"
)

// goldenJournalEvents returns the payload of every journal-event record in
// the golden log (internal/store/testdata/golden): bytes json.Marshal wrote
// before this codec existed.
func goldenJournalEvents(t testing.TB) [][]byte {
	t.Helper()
	log, err := os.ReadFile(filepath.Join("..", "store", "testdata", "golden", "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, recs, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, rec := range recs {
		if rec.Kind == store.KindJournalEvent {
			out = append(out, rec.Data)
		}
	}
	return out
}

// TestJournalEventFixedPath: every journal event json.Marshal wrote into the
// golden log takes the fixed-shape path both ways, reading to the record
// json.Unmarshal reads and writing back to the same bytes.
func TestJournalEventFixedPath(t *testing.T) {
	golden := goldenJournalEvents(t)
	if len(golden) < 50 {
		t.Fatalf("the golden log holds %d journal events, want its scenario's full history", len(golden))
	}
	for _, p := range golden {
		r, ok := readJournalEvent(p)
		if !ok {
			t.Fatalf("%s: the fixed-shape reader refused it", p)
		}
		var want journalEventRecord
		if err := json.Unmarshal(p, &want); err != nil || !reflect.DeepEqual(r, want) {
			t.Fatalf("%s: read %+v, json.Unmarshal %+v (%v)", p, r, want, err)
		}
		if b, ok := appendJournalEvent(nil, r); !ok || !bytes.Equal(b, p) {
			t.Fatalf("%s: the fixed-shape writer wrote %s (fixed path: %v)", p, b, ok)
		}
	}
}

// FuzzJournalEventRecord holds the journal-event codec to encoding/json:
// whatever the fixed-shape reader accepts, json.Unmarshal accepts and reads
// to a DeepEqual record; for whatever json.Unmarshal reads, the encoder
// writes json.Marshal's bytes; and what it writes decodes to the same
// record. Seeds: the golden log's journal events, plus testdata/fuzz (an
// escaped detail, no node, seq 01, 2^64-1 and 2^64, white space, a duplicate
// key, "Seq", a non-ASCII node, trailing bytes, each HTML character, an escaped
// newline, a zone offset).
func FuzzJournalEventRecord(f *testing.F) {
	for _, p := range goldenJournalEvents(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var ref journalEventRecord
		refErr := json.Unmarshal(p, &ref)
		if r, ok := readJournalEvent(p); ok {
			if refErr != nil {
				t.Fatalf("%q: fixed-shape reader accepted it, json.Unmarshal: %v", p, refErr)
			}
			if !reflect.DeepEqual(r, ref) {
				t.Fatalf("%q: fixed-shape reader read %+v, json.Unmarshal %+v", p, r, ref)
			}
		}
		if refErr != nil {
			return
		}
		want, wantErr := json.Marshal(ref)
		got, err := encodeJournalEvent(ref)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("%+v: encoded %s (%v), json.Marshal %s (%v)", ref, got, err, want, wantErr)
		}
		if err != nil {
			return
		}
		back, err := decodeJournalEvent(got)
		if err != nil || !reflect.DeepEqual(back, ref) {
			t.Fatalf("%s: decoded %+v (%v), encoded from %+v", got, back, err, ref)
		}
		if b, ok := appendJournalEvent(nil, ref); ok {
			if _, ok := readJournalEvent(b); !ok {
				t.Fatalf("%s: the fixed-shape writer wrote it, the reader refused it", b)
			}
		}
	})
}
