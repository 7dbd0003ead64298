package blockdev_test

import (
	"testing"

	"bolted/internal/blockdev"
	"bolted/internal/luks"
)

// TestPrefetchQuietMisses: misses that do not run off the end of a live
// window start nothing in the background, so each issues exactly the
// one wire read the synchronous read-ahead issued — luks.Open's header
// read of sector 0, a random miss, a stream's first fill, and a random
// read that lands on the window's end without continuing the stream.
func TestPrefetchQuietMisses(t *testing.T) {
	disk, err := blockdev.NewRAMDisk(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	tr := blockdev.Loopback{Target: blockdev.NewTarget(disk)}
	c, err := blockdev.NewClient(tr, blockdev.TunedReadAhead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := luks.FormatWithIterations(c, []byte("pass"), 16); err != nil {
		t.Fatal(err)
	}
	if c, err = blockdev.NewClient(tr, blockdev.TunedReadAhead); err != nil {
		t.Fatal(err)
	}
	const kib = 1024 / blockdev.SectorSize // sectors
	var vol *luks.Volume
	buf := make([]byte, 64<<10)
	want := int64(0)
	for _, step := range []struct {
		what  string
		reads int64
		do    func() error
	}{
		{"luks.Open's header read (sector 0)", 1, func() (err error) { vol, err = luks.Open(c, []byte("pass")); return }},
		{"a read inside the header's 128 KiB window", 0, func() error { return vol.ReadSectors(buf[:4096], 0) }},
		{"a random miss", 1, func() error { return c.ReadSectors(buf[:4096], 5<<10*kib) }},
		{"a random miss next to the window", 1, func() error { return c.ReadSectors(buf, 132*kib) }},
		{"a stream's first fill", 1, func() error { return c.ReadSectors(buf, 196*kib) }},
		{"a read inside that window", 0, func() error { return c.ReadSectors(buf, 260*kib) }},
		{"a random read landing on that window's end", 1, func() error { return c.ReadSectors(buf[:4096], 452*kib) }},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if want += step.reads; c.NetReads() != want {
			t.Fatalf("after %s: %d wire reads, want %d", step.what, c.NetReads(), want)
		}
	}
}
