package blockdev

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// wire counts what crosses the transport: round trips and read-reply
// payload bytes (the reply minus its status byte).
type wire struct {
	inner    Transport
	trips    int
	readData int
}

func (w *wire) RoundTrip(req []byte) ([]byte, error) {
	resp, err := w.inner.RoundTrip(req)
	w.trips++
	if err == nil && req[0] == opRead {
		w.readData += len(resp) - 1
	}
	return resp, err
}

// newWiredNBD is a client over a counting loopback onto a RAM disk
// whose every sector holds its own number (from 1).
func newWiredNBD(t testing.TB, size, readAhead int64) (*Client, *wire, []byte) {
	t.Helper()
	disk, err := NewRAMDisk(size)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, size)
	for off := int64(0); off < size; off += SectorSize {
		binary.BigEndian.PutUint64(content[off:], uint64(off/SectorSize)+1)
	}
	if err := disk.WriteSectors(content, 0); err != nil {
		t.Fatal(err)
	}
	w := &wire{inner: loopback(NewTarget(disk))}
	c, err := NewClient(w, readAhead)
	if err != nil {
		t.Fatal(err)
	}
	w.trips = 0 // the size negotiation
	return c, w, content
}

func readAt(t testing.TB, c *Client, content []byte, byteOff, n int64) {
	t.Helper()
	buf := make([]byte, n)
	if err := c.ReadSectors(buf, byteOff/SectorSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, content[byteOff:byteOff+n]) {
		t.Fatalf("read of %d bytes at %d returned wrong data", n, byteOff)
	}
}

func TestRandomReadMovesOnlyItsSectors(t *testing.T) {
	c, w, content := newWiredNBD(t, 16<<20, TunedReadAhead)
	for i, off := range []int64{5 << 20, 1 << 20, 9<<20 + 4096, 3 << 20} {
		readAt(t, c, content, off, 4096)
		if w.trips != i+1 || w.readData != (i+1)*4096 {
			t.Fatalf("after %d random 4 KiB reads: %d round trips, %d payload bytes", i+1, w.trips, w.readData)
		}
	}
}

// scan reads [0, total) in 64 KiB reads, calling each after every one.
func scan(t testing.TB, c *Client, content []byte, total int64, each func(off int64)) {
	t.Helper()
	for off := int64(0); off < total; off += 64 << 10 {
		readAt(t, c, content, off, 64<<10)
		if each != nil {
			each(off)
		}
	}
}

func TestScanRampsToTheCap(t *testing.T) {
	const total = 32 << 20
	c, w, content := newWiredNBD(t, total, TunedReadAhead)
	scan(t, c, content, total, nil)
	// 256K, 512K, 1M, 2M, 4M, 8M, 8M, 8M and the 256 KiB that is left.
	if w.trips > 12 {
		t.Fatalf("32 MiB scan under an 8 MiB cap took %d round trips, want <= 12", w.trips)
	}
	if w.readData != total {
		t.Fatalf("scan moved %d bytes for %d read", w.readData, total)
	}
	c, w, content = newWiredNBD(t, total, DefaultReadAhead)
	scan(t, c, content, total, nil)
	if w.trips != 256 {
		t.Fatalf("32 MiB scan under a 128 KiB cap took %d round trips, want exactly 256", w.trips)
	}
}

func TestStrayReadCostsTheScanNothing(t *testing.T) {
	const total = 32 << 20
	plain, pw, content := newWiredNBD(t, total, TunedReadAhead)
	scan(t, plain, content, total, nil)

	c, w, content := newWiredNBD(t, total, TunedReadAhead)
	strays := 0
	scan(t, c, content, total, func(off int64) {
		// A stray 4 KiB read half a disk away after every fourth scan
		// read, which includes each one that ends on a window's last
		// byte (windows end at 256 KiB, 768 KiB, 1.75 MiB, ...).
		if (off+64<<10)%(256<<10) == 0 {
			readAt(t, c, content, (off+total/2)%total+8192, 4096)
			strays++
		}
	})
	if got := w.trips - strays; got != pw.trips {
		t.Fatalf("scan with %d stray reads took %d fills, without them %d", strays, got, pw.trips)
	}
	if extra := w.readData - pw.readData; extra != strays*4096 {
		t.Fatalf("%d stray reads moved %d extra bytes", strays, extra)
	}
}

func TestNewStreamStartsSmall(t *testing.T) {
	// A scan ramps to the cap; a second scan elsewhere is a new stream
	// and must not inherit the 8 MiB window.
	c, w, content := newWiredNBD(t, 64<<20, TunedReadAhead)
	scan(t, c, content, 24<<20, nil)
	before := w.readData
	readAt(t, c, content, 40<<20, 64<<10) // random: exactly 64 KiB
	readAt(t, c, content, 40<<20+64<<10, 64<<10)
	if got := w.readData - before; got != 64<<10+256<<10 {
		t.Fatalf("new stream moved %d bytes for its first two reads, want 64 KiB + a 256 KiB window", got)
	}
}

func TestOverlappingWriteNeverServedStale(t *testing.T) {
	for _, w := range []struct{ off, n int64 }{
		{0, SectorSize},             // first sector of the window
		{100 << 10, 3 * 4096},       // inside it
		{256<<10 - 4096, 2 * 4096},  // straddling its end
		{256<<10 - SectorSize, 512}, // its last sector
	} {
		c, _, content := newWiredNBD(t, 4<<20, TunedReadAhead)
		readAt(t, c, content, 0, 64<<10) // opens the window [0, 256 KiB)
		patch := bytes.Repeat([]byte{0xEE}, int(w.n))
		if err := c.WriteVector([][]byte{patch[:100], patch[100:]}, w.off/SectorSize); err != nil {
			t.Fatal(err)
		}
		copy(content[w.off:], patch)
		readAt(t, c, content, 64<<10, 512<<10)
	}
}

// TestClientDifferential drives a client and a reference RAM disk with
// the same seeded mix of sequential runs, random reads, overlapping
// writes and vectored I/O; every read must equal the reference.
func TestClientDifferential(t *testing.T) {
	const size = 2 << 20
	const sectors = size / SectorSize
	for _, readAhead := range []int64{0, 4096, 64 << 10, DefaultReadAhead, TunedReadAhead} {
		t.Run(fmt.Sprint(readAhead), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42 + readAhead))
			c, _ := newNBD(t, size, loopback, readAhead)
			ref, _ := NewRAMDisk(size)
			split := func(b []byte) [][]byte {
				var out [][]byte
				for len(b) > 0 {
					n := rng.Intn(len(b) + 1) // zero-length parts included
					out = append(out, b[:n])
					b = b[n:]
				}
				return out
			}
			check := func(start, n int64) {
				t.Helper()
				got, want := make([]byte, n*SectorSize), make([]byte, n*SectorSize)
				var err error
				if rng.Intn(2) == 0 {
					err = c.ReadSectors(got, start)
				} else {
					err = c.ReadVector(split(got), start)
				}
				if err != nil {
					t.Fatal(err)
				}
				ref.ReadSectors(want, start)
				if !bytes.Equal(got, want) {
					t.Fatalf("read of %d sectors at %d differs from the reference", n, start)
				}
			}
			pos := int64(0) // the sequential stream's cursor
			for op := 0; op < 800; op++ {
				n := int64(1 + rng.Intn(96))
				switch k := rng.Intn(10); {
				case k < 4: // continue the scan, wrapping at the end
					if pos+n > sectors {
						pos = 0
					}
					check(pos, n)
					pos += n
				case k < 6: // random read
					check(rng.Int63n(sectors-n), n)
				case k < 7: // jump the scan
					pos = rng.Int63n(sectors)
				default: // write, biased to land on or near the scan
					start := rng.Int63n(sectors - n)
					if rng.Intn(2) == 0 {
						start = min(max(pos-n/2+int64(rng.Intn(64)), 0), sectors-n)
					}
					data := make([]byte, n*SectorSize)
					rng.Read(data)
					var err error
					if rng.Intn(2) == 0 {
						err = c.WriteSectors(data, start)
					} else {
						err = c.WriteVector(split(data), start)
					}
					if err != nil {
						t.Fatal(err)
					}
					ref.WriteSectors(data, start)
				}
			}
			check(0, sectors)
		})
	}
}

// liar answers every read with a fixed reply.
type liar struct {
	inner Transport
	reply []byte
}

func (l liar) RoundTrip(req []byte) ([]byte, error) {
	if req[0] == opRead {
		return l.reply, nil
	}
	return l.inner.RoundTrip(req)
}

func TestClientRejectsMisSizedReadReply(t *testing.T) {
	disk, _ := NewRAMDisk(1 << 20)
	for name, reply := range map[string][]byte{
		"empty":             {},
		"bare OK":           {respOK},
		"one sector short":  make([]byte, 1+7*SectorSize),
		"half a sector":     make([]byte, 1+8*SectorSize-256),
		"one sector beyond": make([]byte, 1+9*SectorSize),
		"error frame":       errResp(ErrOutOfRange),
	} {
		for _, readAhead := range []int64{0, TunedReadAhead} {
			c, err := NewClient(liar{loopback(NewTarget(disk)), reply}, readAhead)
			if err != nil {
				t.Fatal(err)
			}
			// Sector 0 takes the sequential path when read-ahead is on
			// (a 256-sector window), sector 64 the random one (8 sectors).
			for _, start := range []int64{0, 64} {
				if err := c.ReadSectors(make([]byte, 8*SectorSize), start); err == nil {
					t.Errorf("%s reply accepted (read-ahead %d, sector %d)", name, readAhead, start)
				}
			}
		}
	}
}

// hugeDevice claims 512 MiB and stores nothing.
type hugeDevice struct{}

func (hugeDevice) NumSectors() int64                { return 1 << 20 }
func (hugeDevice) ReadSectors([]byte, int64) error  { return nil }
func (hugeDevice) WriteSectors([]byte, int64) error { return nil }

func frame(op byte, start uint64, count uint32, payload []byte) []byte {
	req := make([]byte, 13, 13+len(payload))
	req[0] = op
	binary.BigEndian.PutUint64(req[1:9], start)
	binary.BigEndian.PutUint32(req[9:13], count)
	return append(req, payload...)
}

func TestTargetRangeChecksBeforeAllocating(t *testing.T) {
	tg := NewTarget(hugeDevice{})
	for _, req := range [][]byte{
		frame(opRead, 0, 0xFFFFFFFF, nil), // 2 TiB at the parent
		frame(opRead, 1<<20-1, 2, nil),
		frame(opRead, 1<<63, 1, nil), // negative as int64
		frame(opRead, 1<<62, 1, nil),
	} {
		resp, err := tg.Handle(req)
		if err != nil || len(resp) < 1 || resp[0] != respErr {
			t.Fatalf("frame %x: resp %x err %v, want an error frame", req, resp, err)
		}
	}
}

// FuzzTargetHandle feeds the provider-side target arbitrary frames from
// the tenant's side of the wire: it must never panic, never reply with
// more bytes than the device holds, and still serve an honest client.
func FuzzTargetHandle(f *testing.F) {
	f.Add(frame(opSize, 0, 0, nil))
	f.Add(frame(opRead, 0, 0xFFFFFFFF, nil))
	f.Add(frame(opRead, 3, 2, nil))
	f.Add(frame(opRead, 1<<63, 1, nil))
	f.Add(frame(opWrite, 1, 1, make([]byte, SectorSize)))
	f.Add(frame(opWrite, 63, 2, make([]byte, 2*SectorSize)))
	f.Add(frame(opWrite, 0, 0xFFFFFFFF, []byte{1}))
	f.Add([]byte{opRead, 0, 0})
	f.Add(frame(9, 0, 0, nil))
	const size = 64 * SectorSize
	f.Fuzz(func(t *testing.T, req []byte) {
		disk, err := NewRAMDisk(size)
		if err != nil {
			t.Fatal(err)
		}
		tg := NewTarget(disk)
		if resp, _ := tg.Handle(req); len(resp) > 1+size {
			t.Fatalf("a %d-byte reply from a %d-byte device", len(resp), size)
		}
		// Whatever the frame did, a well-formed write and read round-trip.
		want := bytes.Repeat([]byte{0xA5}, 2*SectorSize)
		if resp, err := tg.Handle(frame(opWrite, 7, 2, want)); err != nil || !bytes.Equal(resp, []byte{respOK}) {
			t.Fatalf("write after fuzzed frame: %x, %v", resp, err)
		}
		resp, err := tg.Handle(frame(opRead, 7, 2, nil))
		if err != nil || len(resp) != 1+len(want) || resp[0] != respOK || !bytes.Equal(resp[1:], want) {
			t.Fatalf("read after fuzzed frame: %d bytes, %v", len(resp), err)
		}
	})
}
