package ceph

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bolted/internal/blockdev"
)

// TestRevivedReplicaIsMissingNotStale: a write that had to skip a down
// replica takes that replica's copy away, so when the OSD comes back
// reads fall through it to the replica that saw the write.
func TestRevivedReplicaIsMissingNotStale(t *testing.T) {
	c := newCluster(t, 3, 2)
	if err := c.Put("obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	primary := c.PrimaryOSD("obj")
	c.SetOSDDown(primary, true)
	if err := c.Put("obj", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	c.SetOSDDown(primary, false)
	if got, ok := c.Get("obj"); !ok || string(got) != "v2" {
		t.Fatalf("Get after the primary came back = %q, %v; want v2", got, ok)
	}
	dst := make([]byte, 2)
	if n, ok := c.ReadAt("obj", dst, 0); !ok || string(dst[:n]) != "v2" {
		t.Fatalf("ReadAt after the primary came back = %q, %v; want v2", dst[:n], ok)
	}
	if n := c.ReplicaCount("obj"); n != 1 {
		t.Fatalf("object on %d replicas, want 1 until the next write backfills", n)
	}
	// All replicas down: the write fails and must not cost the last copy.
	for id := 0; id < c.NumOSDs(); id++ {
		c.SetOSDDown(id, true)
	}
	if err := c.Put("obj", []byte("v3")); err == nil {
		t.Fatal("write with every replica down accepted")
	}
	for id := 0; id < c.NumOSDs(); id++ {
		c.SetOSDDown(id, false)
	}
	if got, ok := c.Get("obj"); !ok || string(got) != "v2" {
		t.Fatalf("failed write damaged the object: %q, %v", got, ok)
	}
}

// TestImageDeviceDegradedInPlaceWrites drives the same rule through the
// in-place path, where it has a second half: a live replica that lacks
// the object must be backfilled before a sub-object write lands on it,
// or it would hold the new sectors over zeros and serve them as primary.
func TestImageDeviceDegradedInPlaceWrites(t *testing.T) {
	c := newCluster(t, 3, 2)
	dev, err := NewImageDevice(c, "img", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	const obj = "img.00000000"
	want := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(want)
	read := func(when string) {
		t.Helper()
		got := make([]byte, len(want))
		if err := dev.ReadSectors(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: image differs from what was written", when)
		}
	}
	write := func(b byte, off int) {
		t.Helper()
		patch := bytes.Repeat([]byte{b}, 4096)
		copy(want[off:], patch)
		if err := dev.WriteSectors(patch, int64(off/blockdev.SectorSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.WriteSectors(want, 0); err != nil {
		t.Fatal(err)
	}
	primary := c.PrimaryOSD(obj)
	c.SetOSDDown(primary, true)
	write(0xB1, 4096)
	read("primary down")
	c.SetOSDDown(primary, false)
	read("primary back, missing the object")
	write(0xC2, 3*4096) // both up: the primary gets the whole object with this write
	if n := c.ReplicaCount(obj); n != 2 {
		t.Fatalf("object on %d replicas after a healthy write, want 2", n)
	}
	read("both up")
	for id := 0; id < c.NumOSDs(); id++ { // only the primary left
		c.SetOSDDown(id, id != primary)
	}
	read("backfilled primary alone")
}

// TestConcurrentInPlaceWritersAndReaders: writers overwrite whole
// sectors of one object with a single byte value while readers copy
// sectors out. Every sector read must be one value throughout, on either
// replica; run under -race this is also the proof that no stored slice
// is touched outside its OSD lock.
func TestConcurrentInPlaceWritersAndReaders(t *testing.T) {
	const sectors, writers, readers, rounds = 64, 4, 4, 400
	c := newCluster(t, 3, 2)
	if err := c.Put("o", make([]byte, sectors*blockdev.SectorSize)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				n := 1 + rng.Intn(4)
				data := bytes.Repeat([]byte{byte(1 + rng.Intn(255))}, n*blockdev.SectorSize)
				off := int64(rng.Intn(sectors-n)) * blockdev.SectorSize
				if err := c.WriteAt("o", off, data); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			buf := make([]byte, blockdev.SectorSize)
			for i := 0; i < rounds; i++ {
				s := rng.Intn(sectors)
				if n, ok := c.ReadAt("o", buf, int64(s)*blockdev.SectorSize); !ok || n != len(buf) {
					t.Errorf("ReadAt sector %d: n=%d ok=%v", s, n, ok)
					return
				}
				if !bytes.Equal(buf, bytes.Repeat(buf[:1], len(buf))) {
					t.Errorf("torn sector %d", s)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Writers held both replicas for each write, so they ended equal.
	a, _ := c.Get("o")
	c.SetOSDDown(c.PrimaryOSD("o"), true)
	b, _ := c.Get("o")
	if !bytes.Equal(a, b) {
		t.Fatal("replicas diverged under concurrent writers")
	}
}

// TestSmallWriteGrowsObjectExactly is the churn-cold guard: every
// provisioned node writes one 16 KiB LUKS header to a fresh image, and
// that must not allocate a 4 MiB object.
func TestSmallWriteGrowsObjectExactly(t *testing.T) {
	c := newCluster(t, 3, 2)
	dev, _ := NewImageDevice(c, "img", 64<<20)
	if err := dev.WriteSectors(make([]byte, 16<<10), 0); err != nil {
		t.Fatal(err)
	}
	if n, ok := c.ObjectLen("img.00000000"); !ok || n != 16<<10 {
		t.Fatalf("ObjectLen after a 16 KiB write = %d, %v; want %d", n, ok, 16<<10)
	}
	// Growth stops at the last byte written; writes below it keep the length.
	if err := dev.WriteSectors(make([]byte, 4096), (1<<20)/blockdev.SectorSize); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteSectors(make([]byte, 4096), 8); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.ObjectLen("img.00000000"); n != 1<<20+4096 {
		t.Fatalf("ObjectLen = %d, want %d", n, 1<<20+4096)
	}
	if err := c.WriteAt("img.00000000", ObjectSize-1, []byte{1, 2}); err == nil {
		t.Fatal("write past ObjectSize accepted")
	}
}

// TestCopyPrefixWhileWriting clones an image while it is being written
// in place: race-free under -race, and the clone — whichever writes it
// caught — never changes afterwards.
func TestCopyPrefixWhileWriting(t *testing.T) {
	c := newCluster(t, 3, 2)
	dev, _ := NewImageDevice(c, "src", 2*ObjectSize)
	if err := dev.WriteSectors(make([]byte, 2*ObjectSize), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 8*blockdev.SectorSize)
			if err := dev.WriteSectors(data, rng.Int63n(dev.NumSectors()-8)); err != nil {
				t.Error(err)
				return
			}
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started
	if err := c.CopyPrefix("src.", "clone."); err != nil {
		t.Fatal(err)
	}
	snapshot := func() (out [][]byte) {
		for _, name := range c.ListPrefix("clone.") {
			d, _ := c.Get(name)
			out = append(out, d)
		}
		return out
	}
	before := snapshot()
	wg.Wait()
	if err := dev.WriteSectors(bytes.Repeat([]byte{0xFF}, ObjectSize), 100); err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	if len(before) != 2 || len(after) != 2 {
		t.Fatalf("clone has %d then %d objects, want 2", len(before), len(after))
	}
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			t.Fatalf("clone object %d changed after CopyPrefix returned", i)
		}
	}
}

// TestPieceWritesMatchOneWrite writes an object front to back in 16
// pieces, one of them last so that the pieces after it extend the object
// past a hole: the hole reads as zeros until it is written, and the
// object ends byte-identical, on both replicas, to the same bytes put in
// one write. Growth is geometric, so the pieces allocate a small multiple
// of the object, not the k² / 2 pieces a copy per extension costs.
func TestPieceWritesMatchOneWrite(t *testing.T) {
	const pieces, hole = 16, 9
	const piece = ObjectSize / pieces
	want := make([]byte, ObjectSize)
	rand.New(rand.NewSource(3)).Read(want)
	whole := newCluster(t, 3, 2)
	if err := whole.Put("o", want); err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 3, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pieces; i++ {
		if i == hole {
			continue
		}
		if err := c.WriteAt("o", int64(i*piece), want[i*piece:(i+1)*piece]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	gap := make([]byte, piece)
	if n, ok := c.ReadAt("o", gap, hole*piece); !ok || n != piece || !bytes.Equal(gap, make([]byte, piece)) {
		t.Fatalf("the unwritten piece reads n=%d ok=%v, nonzero=%v; want %d zero bytes", n, ok, !bytes.Equal(gap, make([]byte, piece)), piece)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 3*ObjectSize {
		t.Errorf("writing %d pieces allocated %d bytes, want at most %d", pieces-1, grew, 3*ObjectSize)
	}
	if err := c.WriteAt("o", hole*piece, want[hole*piece:(hole+1)*piece]); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*Cluster{whole, c} {
		got, _ := cl.Get("o")
		if !bytes.Equal(got, want) {
			t.Fatal("object differs from the bytes written")
		}
		cl.SetOSDDown(cl.PrimaryOSD("o"), true)
		if got, _ := cl.Get("o"); !bytes.Equal(got, want) {
			t.Fatal("secondary replica differs from the bytes written")
		}
	}
}
