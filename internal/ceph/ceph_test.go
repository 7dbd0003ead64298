package ceph

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"bolted/internal/blockdev"
	"bolted/internal/sim"
)

func newCluster(t testing.TB, osds, repl int) *Cluster {
	t.Helper()
	c, err := NewCluster(osds, repl)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetDelete(t *testing.T) {
	c := newCluster(t, 3, 2)
	data := []byte("object body")
	if err := c.Put("pool/obj", data); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("pool/obj")
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if n := c.ReplicaCount("pool/obj"); n != 2 {
		t.Fatalf("replicas = %d, want 2", n)
	}
	c.Delete("pool/obj")
	if _, ok := c.Get("pool/obj"); ok {
		t.Fatal("deleted object still readable")
	}
	if n := c.ReplicaCount("pool/obj"); n != 0 {
		t.Fatalf("replicas after delete = %d", n)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewCluster(0, 1); err == nil {
		t.Error("zero OSDs accepted")
	}
	if _, err := NewCluster(3, 4); err == nil {
		t.Error("replication > OSDs accepted")
	}
	if _, err := NewCluster(3, 0); err == nil {
		t.Error("zero replication accepted")
	}
	c := newCluster(t, 3, 1)
	if err := c.Put("big", make([]byte, ObjectSize+1)); err == nil {
		t.Error("oversized object accepted")
	}
}

func TestPlacementDeterministicAndSpread(t *testing.T) {
	c := newCluster(t, 9, 3)
	counts := make(map[int]int)
	for i := 0; i < 500; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune(i))
		p1 := c.PrimaryOSD(name)
		p2 := c.PrimaryOSD(name)
		if p1 != p2 {
			t.Fatal("placement not deterministic")
		}
		counts[p1]++
	}
	// Every OSD should get a share; rendezvous hashing is near-uniform.
	for i := 0; i < 9; i++ {
		if counts[i] == 0 {
			t.Fatalf("OSD %d received no objects: %v", i, counts)
		}
	}
}

func TestPrefixOps(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.Put("img-golden.00000000", []byte("a"))
	c.Put("img-golden.00000001", []byte("b"))
	c.Put("other.00000000", []byte("c"))
	names := c.ListPrefix("img-golden.")
	if len(names) != 2 {
		t.Fatalf("ListPrefix = %v", names)
	}
	if err := c.CopyPrefix("img-golden.", "img-clone."); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("img-clone.00000001")
	if !ok || string(got) != "b" {
		t.Fatal("clone missing object")
	}
	c.DeletePrefix("img-golden.")
	if len(c.ListPrefix("img-golden.")) != 0 {
		t.Fatal("DeletePrefix left objects")
	}
	if len(c.ListPrefix("img-clone.")) != 2 {
		t.Fatal("DeletePrefix removed wrong prefix")
	}
	if c.TotalObjects() != 3 {
		t.Fatalf("TotalObjects = %d, want 3", c.TotalObjects())
	}
}

func TestImageDeviceRoundTrip(t *testing.T) {
	c := newCluster(t, 3, 2)
	const size = 10 << 20 // spans 3 objects
	dev, err := NewImageDevice(c, "img", size)
	if err != nil {
		t.Fatal(err)
	}
	if dev.NumSectors() != size/blockdev.SectorSize {
		t.Fatalf("NumSectors = %d", dev.NumSectors())
	}
	// Unwritten regions read as zeros.
	buf := make([]byte, 2*blockdev.SectorSize)
	if err := dev.ReadSectors(buf, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatal("unwritten sectors not zero")
	}
	// Write spanning an object boundary (4 MiB = sector 8192).
	data := make([]byte, 4*blockdev.SectorSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	boundary := int64(ObjectSize/blockdev.SectorSize) - 2
	if err := dev.WriteSectors(data, boundary); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := dev.ReadSectors(got, boundary); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-object write lost data")
	}
	if c.TotalObjects() != 2 {
		t.Fatalf("objects materialized = %d, want 2", c.TotalObjects())
	}
}

func TestImageDeviceBounds(t *testing.T) {
	c := newCluster(t, 3, 1)
	dev, _ := NewImageDevice(c, "img", 1<<20)
	buf := make([]byte, blockdev.SectorSize)
	if err := dev.ReadSectors(buf, dev.NumSectors()); err == nil {
		t.Error("read past end accepted")
	}
	if err := dev.WriteSectors(buf, -1); err == nil {
		t.Error("negative write accepted")
	}
	if err := dev.ReadSectors(make([]byte, 7), 0); err == nil {
		t.Error("unaligned buffer accepted")
	}
	if _, err := NewImageDevice(c, "x", 100); err == nil {
		t.Error("unaligned image size accepted")
	}
}

// Property: ImageDevice behaves like a flat RAM disk.
func TestQuickImageDeviceEquivalence(t *testing.T) {
	c := newCluster(t, 5, 2)
	const size = 1 << 20
	dev, _ := NewImageDevice(c, "img", size)
	ref, _ := blockdev.NewRAMDisk(size)
	f := func(sector uint16, content [blockdev.SectorSize]byte) bool {
		s := int64(sector) % dev.NumSectors()
		if err := dev.WriteSectors(content[:], s); err != nil {
			return false
		}
		if err := ref.WriteSectors(content[:], s); err != nil {
			return false
		}
		a := make([]byte, 4*blockdev.SectorSize)
		b := make([]byte, 4*blockdev.SectorSize)
		start := s
		if start+4 > dev.NumSectors() {
			start = dev.NumSectors() - 4
		}
		if err := dev.ReadSectors(a, start); err != nil {
			return false
		}
		if err := ref.ReadSectors(b, start); err != nil {
			return false
		}
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestOSDFailover(t *testing.T) {
	c := newCluster(t, 3, 2)
	data := []byte("replicated object")
	if err := c.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	primary := c.PrimaryOSD("obj")
	if err := c.SetOSDDown(primary, true); err != nil {
		t.Fatal(err)
	}
	// Reads fail over to the surviving replica.
	got, ok := c.Get("obj")
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("read did not fail over to replica")
	}
	// Writes land on survivors.
	if err := c.Put("obj2", []byte("degraded write")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("obj2"); !ok {
		t.Fatal("degraded write unreadable")
	}
	// Recovery: the primary rejoins (without backfill) and reads still
	// work via whichever replica holds the object.
	c.SetOSDDown(primary, false)
	if _, ok := c.Get("obj2"); !ok {
		t.Fatal("object lost after primary recovery")
	}
	if err := c.SetOSDDown(99, true); err == nil {
		t.Fatal("marking unknown OSD down accepted")
	}
}

func TestAllReplicasDownFails(t *testing.T) {
	c := newCluster(t, 2, 2)
	for i := 0; i < 2; i++ {
		c.SetOSDDown(i, true)
	}
	if err := c.Put("obj", []byte("x")); err == nil {
		t.Fatal("write with all replicas down accepted")
	}
	if _, ok := c.Get("obj"); ok {
		t.Fatal("read with all replicas down succeeded")
	}
}

// A node keeps booting through an OSD host failure — the availability
// argument for the replicated boot-image pool.
func TestImageDeviceSurvivesOSDFailure(t *testing.T) {
	c := newCluster(t, 3, 2)
	dev, _ := NewImageDevice(c, "img", 8<<20)
	data := make([]byte, 8*blockdev.SectorSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := dev.WriteSectors(data, 0); err != nil {
		t.Fatal(err)
	}
	c.SetOSDDown(0, true)
	got := make([]byte, len(data))
	if err := dev.ReadSectors(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("image read corrupted by OSD failure")
	}
}

func TestSimBackendContention(t *testing.T) {
	// With few spindles, concurrent image reads queue: total time for 8
	// concurrent readers must exceed 4x a single reader's time (the
	// Figure 5 knee mechanism).
	run := func(readers int) time.Duration {
		s := sim.New(1)
		cluster := newCluster(t, 3, 2)
		backend := NewSimBackend(s, cluster, 3) // 9 spindles
		for i := 0; i < readers; i++ {
			s.Go("reader", func(p *sim.Proc) {
				backend.ChargeImageRead(p, "golden", 64<<20)
			})
		}
		return s.Run()
	}
	one := run(1)
	eight := run(8)
	sixteen := run(16)
	if eight < one {
		t.Fatalf("8 readers (%v) faster than 1 (%v)", eight, one)
	}
	if sixteen <= eight {
		t.Fatalf("16 readers (%v) not slower than 8 (%v): no contention modelled", sixteen, eight)
	}
}

// TestStoredSlicesNeverEscape pins the ownership contract in-place
// writes depend on: Put copies the caller's buffer in, Get copies the
// object out, so nothing outside the OSD locks aliases stored bytes.
func TestStoredSlicesNeverEscape(t *testing.T) {
	c := newCluster(t, 3, 2)
	buf := []byte("mutable caller buffer")
	if err := c.Put("safe", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := c.Get("safe")
	if got[0] == 'X' {
		t.Fatal("Put did not defensively copy")
	}
	got[0] = 'Y'
	if again, _ := c.Get("safe"); again[0] == 'Y' {
		t.Fatal("Get handed out the stored slice")
	}
}

// TestReadAt reads partial extents without exposing internal slices.
func TestReadAt(t *testing.T) {
	c := newCluster(t, 3, 2)
	obj := []byte("0123456789")
	c.Put("o", obj)
	dst := make([]byte, 4)
	if n, ok := c.ReadAt("o", dst, 3); !ok || n != 4 || string(dst) != "3456" {
		t.Fatalf("ReadAt mid = %q n=%d ok=%v", dst, n, ok)
	}
	// Reading past the end is short, past-the-object is zero.
	if n, ok := c.ReadAt("o", dst, 8); !ok || n != 2 {
		t.Fatalf("ReadAt tail n=%d ok=%v", n, ok)
	}
	if n, ok := c.ReadAt("o", dst, 100); !ok || n != 0 {
		t.Fatalf("ReadAt beyond n=%d ok=%v", n, ok)
	}
	if _, ok := c.ReadAt("missing", dst, 0); ok {
		t.Fatal("ReadAt found a missing object")
	}
	if l, ok := c.ObjectLen("o"); !ok || l != len(obj) {
		t.Fatalf("ObjectLen = %d ok=%v", l, ok)
	}
}

// TestReadAtFailsOver mirrors the Get failover semantics.
func TestReadAtFailsOver(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.Put("o", []byte("replicated"))
	primary := c.PrimaryOSD("o")
	if err := c.SetOSDDown(primary, true); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 10)
	if n, ok := c.ReadAt("o", dst, 0); !ok || string(dst[:n]) != "replicated" {
		t.Fatalf("ReadAt did not fail over: %q ok=%v", dst[:n], ok)
	}
}
