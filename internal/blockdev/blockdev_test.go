package blockdev

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"bolted/internal/ipsec"
)

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

func TestRAMDiskRoundTrip(t *testing.T) {
	d, err := NewRAMDisk(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSectors() != (1<<20)/SectorSize {
		t.Fatalf("NumSectors = %d", d.NumSectors())
	}
	data := fill(4*SectorSize, 7)
	if err := d.WriteSectors(data, 10); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadSectors(got, 10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
}

func TestRAMDiskValidation(t *testing.T) {
	if _, err := NewRAMDisk(0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewRAMDisk(SectorSize + 1); err == nil {
		t.Error("unaligned size accepted")
	}
	d, _ := NewRAMDisk(4 * SectorSize)
	buf := make([]byte, SectorSize)
	if err := d.ReadSectors(buf, 4); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := d.WriteSectors(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative sector: %v", err)
	}
	if err := d.ReadSectors(make([]byte, 100), 0); err == nil {
		t.Error("unaligned buffer accepted")
	}
	if err := d.ReadSectors(nil, 0); err == nil {
		t.Error("empty buffer accepted")
	}
}

func TestRAMDiskScrub(t *testing.T) {
	d, _ := NewRAMDisk(2 * SectorSize)
	d.WriteSectors(fill(SectorSize, 1), 0)
	d.Scrub()
	buf := make([]byte, SectorSize)
	d.ReadSectors(buf, 0)
	if !bytes.Equal(buf, make([]byte, SectorSize)) {
		t.Fatal("scrub left data behind")
	}
}

func TestOverlayCoW(t *testing.T) {
	base, _ := NewRAMDisk(8 * SectorSize)
	baseData := fill(8*SectorSize, 3)
	base.WriteSectors(baseData, 0)

	ov := NewOverlay(base)
	// Reads pass through.
	got := make([]byte, 8*SectorSize)
	ov.ReadSectors(got, 0)
	if !bytes.Equal(got, baseData) {
		t.Fatal("overlay read does not pass through")
	}
	// Writes stay in the overlay.
	newSec := fill(SectorSize, 99)
	ov.WriteSectors(newSec, 2)
	if ov.DirtySectors() != 1 {
		t.Fatalf("dirty = %d, want 1", ov.DirtySectors())
	}
	sec := make([]byte, SectorSize)
	ov.ReadSectors(sec, 2)
	if !bytes.Equal(sec, newSec) {
		t.Fatal("overlay lost write")
	}
	base.ReadSectors(sec, 2)
	if !bytes.Equal(sec, baseData[2*SectorSize:3*SectorSize]) {
		t.Fatal("overlay write leaked into base image")
	}
	// Discard reverts.
	ov.Discard()
	ov.ReadSectors(sec, 2)
	if !bytes.Equal(sec, baseData[2*SectorSize:3*SectorSize]) {
		t.Fatal("discard did not revert")
	}
}

func TestOverlayMixedRead(t *testing.T) {
	base, _ := NewRAMDisk(4 * SectorSize)
	base.WriteSectors(fill(4*SectorSize, 1), 0)
	ov := NewOverlay(base)
	mod := fill(SectorSize, 200)
	ov.WriteSectors(mod, 1)
	// One read spanning clean and dirty sectors.
	got := make([]byte, 3*SectorSize)
	if err := ov.ReadSectors(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), fill(4*SectorSize, 1)[:SectorSize]...)
	want = append(want, mod...)
	want = append(want, fill(4*SectorSize, 1)[2*SectorSize:3*SectorSize]...)
	if !bytes.Equal(got, want) {
		t.Fatal("mixed clean/dirty read incorrect")
	}
}

func newNBD(t testing.TB, size int64, transport func(*Target) Transport, readAhead int64) (*Client, *RAMDisk) {
	t.Helper()
	disk, err := NewRAMDisk(size)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport(NewTarget(disk))
	c, err := NewClient(tr, readAhead)
	if err != nil {
		t.Fatal(err)
	}
	return c, disk
}

func loopback(tg *Target) Transport { return Loopback{Target: tg} }

func TestNBDRoundTrip(t *testing.T) {
	c, _ := newNBD(t, 1<<20, loopback, 0)
	if c.NumSectors() != (1<<20)/SectorSize {
		t.Fatalf("negotiated size %d", c.NumSectors())
	}
	data := fill(16*SectorSize, 5)
	if err := c.WriteSectors(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadSectors(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("NBD round-trip mismatch")
	}
}

func TestNBDOutOfRangeSurfaced(t *testing.T) {
	c, _ := newNBD(t, 4*SectorSize, loopback, 0)
	buf := make([]byte, SectorSize)
	if err := c.ReadSectors(buf, 4); err == nil {
		t.Fatal("remote out-of-range read succeeded")
	}
}

func TestReadAheadReducesRoundTrips(t *testing.T) {
	const size = 8 << 20
	seq := func(ra int64) int64 {
		c, disk := newNBD(t, size, loopback, ra)
		disk.WriteSectors(fill(size, 9), 0)
		buf := make([]byte, 64<<10) // 64 KiB dd blocks
		for off := int64(0); off < size/SectorSize; off += int64(len(buf)) / SectorSize {
			if err := c.ReadSectors(buf, off); err != nil {
				t.Fatal(err)
			}
		}
		return c.NetReads()
	}
	small := seq(DefaultReadAhead)
	big := seq(TunedReadAhead)
	if big >= small {
		t.Fatalf("8 MiB read-ahead did %d round trips, 128 KiB did %d", big, small)
	}
	if small/big < 10 {
		t.Fatalf("expected >=10x round-trip reduction, got %dx", small/big)
	}
}

func TestWriteInvalidatesReadAhead(t *testing.T) {
	c, _ := newNBD(t, 1<<20, loopback, TunedReadAhead)
	buf := make([]byte, SectorSize)
	c.ReadSectors(buf, 0) // populates window
	newData := fill(SectorSize, 42)
	c.WriteSectors(newData, 0)
	got := make([]byte, SectorSize)
	c.ReadSectors(got, 0)
	if !bytes.Equal(got, newData) {
		t.Fatal("stale read-ahead served after overlapping write")
	}
}

func TestNBDOverIPsec(t *testing.T) {
	disk, _ := NewRAMDisk(1 << 20)
	inner := Loopback{Target: NewTarget(disk)}
	tr, err := NewIPsecTransport(inner, ipsec.SuiteHWAES, 9000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(tr, TunedReadAhead)
	if err != nil {
		t.Fatal(err)
	}
	data := fill(32*SectorSize, 77)
	if err := c.WriteSectors(data, 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := c.ReadSectors(got, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("IPsec NBD round-trip mismatch")
	}
	// The backing disk holds plaintext (encryption protects the wire,
	// not the target) but the wire path actually sealed/opened.
	raw := make([]byte, len(data))
	disk.ReadSectors(raw, 5)
	if !bytes.Equal(raw, data) {
		t.Fatal("target data corrupted by tunnel")
	}
}

func TestClientValidation(t *testing.T) {
	disk, _ := NewRAMDisk(1 << 20)
	tr := Loopback{Target: NewTarget(disk)}
	if _, err := NewClient(tr, 100); err == nil {
		t.Error("unaligned read-ahead accepted")
	}
	if _, err := NewClient(tr, -SectorSize); err == nil {
		t.Error("negative read-ahead accepted")
	}
}

func TestFaultTransportSurfacesErrors(t *testing.T) {
	disk, _ := NewRAMDisk(1 << 20)
	disk.WriteSectors(fill(4*SectorSize, 3), 0)
	ft := &FaultTransport{Inner: Loopback{Target: NewTarget(disk)}, FailEvery: 2}
	c, err := NewClient(ft, 0) // size negotiation is request 1
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, SectorSize)
	// Request 2 fails, request 3 succeeds: errors surface, state is
	// not poisoned, and retries work.
	if err := c.ReadSectors(buf, 0); err == nil {
		t.Fatal("injected failure not surfaced")
	}
	if err := c.ReadSectors(buf, 0); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if !bytes.Equal(buf, fill(4*SectorSize, 3)[:SectorSize]) {
		t.Fatal("retry returned wrong data")
	}
	if err := c.WriteSectors(buf, 8); err == nil {
		t.Fatal("injected write failure not surfaced")
	}
	if err := c.WriteSectors(buf, 8); err != nil {
		t.Fatalf("write retry: %v", err)
	}
}

func TestFaultTransportNeverCachesFailure(t *testing.T) {
	// A failed read-ahead fill must not leave garbage in the window.
	disk, _ := NewRAMDisk(1 << 20)
	want := fill(SectorSize, 9)
	disk.WriteSectors(want, 100)
	ft := &FaultTransport{Inner: Loopback{Target: NewTarget(disk)}, FailEvery: 2}
	c, err := NewClient(ft, TunedReadAhead)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, SectorSize)
	for i := 0; i < 10; i++ {
		if err := c.ReadSectors(buf, 100); err != nil {
			continue
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("iteration %d: cached garbage after failure", i)
		}
	}
}

// Property: any sequence of aligned writes then reads over NBD matches a
// plain RAM disk (the network device is transparent).
func TestQuickNBDEquivalence(t *testing.T) {
	const sectors = 64
	c, _ := newNBD(t, sectors*SectorSize, loopback, TunedReadAhead)
	ref, _ := NewRAMDisk(sectors * SectorSize)
	f := func(ops []struct {
		Sector uint8
		Data   [SectorSize]byte
	}) bool {
		for _, op := range ops {
			s := int64(op.Sector) % sectors
			if err := c.WriteSectors(op.Data[:], s); err != nil {
				return false
			}
			if err := ref.WriteSectors(op.Data[:], s); err != nil {
				return false
			}
		}
		a := make([]byte, sectors*SectorSize)
		b := make([]byte, sectors*SectorSize)
		if err := c.ReadSectors(a, 0); err != nil {
			return false
		}
		if err := ref.ReadSectors(b, 0); err != nil {
			return false
		}
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestVectorEquivalence checks that vectored I/O (native on RAMDisk and
// Client, fallback elsewhere) moves exactly the same bytes as the
// contiguous path, across uneven buffer splits.
func TestVectorEquivalence(t *testing.T) {
	split := func(b []byte, cuts ...int) [][]byte {
		var out [][]byte
		prev := 0
		for _, c := range cuts {
			out = append(out, b[prev:c])
			prev = c
		}
		return append(out, b[prev:])
	}
	data := fill(8*SectorSize, 3)
	devices := map[string]Device{}
	rd, _ := NewRAMDisk(1 << 20)
	devices["ramdisk"] = rd
	nbd, _ := newNBD(t, 1<<20, loopback, DefaultReadAhead)
	devices["nbd-client"] = nbd
	base, _ := NewRAMDisk(1 << 20)
	devices["overlay-fallback"] = NewOverlay(base)

	for name, dev := range devices {
		// Gather-write buffers with non-sector-aligned internal cuts.
		w := split(data, 100, 1024, 1024+SectorSize)
		if err := WriteVector(dev, w, 5); err != nil {
			t.Fatalf("%s: WriteVector: %v", name, err)
		}
		flat := make([]byte, len(data))
		if err := dev.ReadSectors(flat, 5); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat, data) {
			t.Fatalf("%s: gather-write wrote wrong bytes", name)
		}
		// Scatter-read into uneven buffers.
		got := make([]byte, len(data))
		r := split(got, 7, 2048, 2048+3*SectorSize)
		if err := ReadVector(dev, r, 5); err != nil {
			t.Fatalf("%s: ReadVector: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: scatter-read returned wrong bytes", name)
		}
		// Misaligned totals are rejected.
		if err := WriteVector(dev, [][]byte{data[:100]}, 0); err == nil {
			t.Fatalf("%s: unaligned vector accepted", name)
		}
	}
}

// TestClientGatherWriteSingleRoundTrip pins the wire win: a three-part
// gather write must cost exactly one round trip, same as a contiguous
// write of equal size.
func TestClientGatherWriteSingleRoundTrip(t *testing.T) {
	c, disk := newNBD(t, 1<<20, loopback, 0)
	parts := [][]byte{fill(300, 1), fill(3*SectorSize-400, 2), fill(100, 3)}
	before := c.NetWrites()
	if err := c.WriteVector(parts, 9); err != nil {
		t.Fatal(err)
	}
	if got := c.NetWrites() - before; got != 1 {
		t.Fatalf("gather write took %d round trips, want 1", got)
	}
	want := bytes.Join(parts, nil)
	got := make([]byte, len(want))
	disk.ReadSectors(got, 9)
	if !bytes.Equal(got, want) {
		t.Fatal("gathered bytes landed wrong")
	}
}
