package blockdev

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bolted/internal/ipsec"
)

// newIPsecRig is a RAM disk behind one ESP-wrapped transport.
func newIPsecRig(t testing.TB, size int64) (*RAMDisk, *IPsecTransport) {
	t.Helper()
	disk, err := NewRAMDisk(size)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewIPsecTransport(Loopback{Target: NewTarget(disk)}, ipsec.SuiteHWAES, 9000)
	if err != nil {
		t.Fatal(err)
	}
	return disk, tr
}

// TestIPsecReplyOutlivesArena pins the reply's lifetime apart from the
// packet arena each leg seals into: whatever the transport does with its
// packets, the reply RoundTrip hands back is the caller's for good — the
// client keeps read replies as its read-ahead window. A read reply must
// survive the round trips after it (a smaller write and a read of other
// data, so a recycled buffer would be reused) and a round trip whose
// response leg fails to open.
func TestIPsecReplyOutlivesArena(t *testing.T) {
	disk, tr := newIPsecRig(t, 1<<20)
	if err := disk.WriteSectors(fill(8*SectorSize, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := disk.WriteSectors(fill(8*SectorSize, 2), 100); err != nil {
		t.Fatal(err)
	}
	readReply := func(start, count int64) ([]byte, error) {
		return tr.RoundTrip(request(opRead, start, count, 0))
	}
	r1, err := readReply(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]byte(nil), r1...)
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(r1, kept) {
			t.Fatalf("read reply changed %s", when)
		}
	}

	wr := request(opWrite, 200, 4, 4*SectorSize)
	copy(wr[13:], fill(4*SectorSize, 3))
	if resp, err := tr.RoundTrip(wr); err != nil || len(resp) != 1 || resp[0] != respOK {
		t.Fatalf("write round trip = %v, %v", resp, err)
	}
	check("after a write round trip")
	r3, err := readReply(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r3[1:], fill(8*SectorSize, 2)) {
		t.Fatal("second read returned the wrong data")
	}
	check("after a read of other data")

	// A response leg that fails to open: the client end listens on a
	// foreign SA for one round trip.
	foreign, _, err := ipsec.NewPair(ipsec.SuiteHWAES, ipsec.NewMasterKey())
	if err != nil {
		t.Fatal(err)
	}
	in := tr.Client.In
	tr.Client.In = foreign.In
	if _, err := readReply(100, 8); err == nil {
		t.Fatal("round trip over a foreign SA opened")
	}
	tr.Client.In = in
	check("after a leg failed to open")
	r5, err := readReply(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r5[1:], fill(4*SectorSize, 3)) {
		t.Fatal("read after a failed leg returned the wrong data")
	}
	check("after the tunnel recovered")
}

// TestConcurrentClientOverIPsec drives one Client over one IPsec
// transport from several goroutines, as core shares a node's disk. The
// client serializes round trips (one SA carries one at a time). Every
// goroutine writes generations of its own pattern into its own region,
// spaced so a read-ahead window over one region never reaches the
// next, and reads each back in sequential steps: the later steps are
// served from a window that other goroutines' round trips run between.
// A read must never return another request's bytes.
func TestConcurrentClientOverIPsec(t *testing.T) {
	const (
		workers = 4
		region  = 64   // sectors each worker writes
		stride  = 1024 // sectors between regions
		step    = 8    // sectors per read
		rounds  = 20
	)
	_, tr := newIPsecRig(t, workers*stride*SectorSize)
	c, err := NewClient(tr, TunedReadAhead)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := int64(w * stride)
			got := make([]byte, step*SectorSize)
			for r := range rounds {
				want := fill(region*SectorSize, byte(w*rounds+r))
				if err := c.WriteSectors(want, base); err != nil {
					errs <- err
					return
				}
				for off := int64(0); off < region; off += step {
					runtime.Gosched()
					if err := c.ReadSectors(got, base+off); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, want[off*SectorSize:(off+step)*SectorSize]) {
						errs <- fmt.Errorf("worker %d round %d: read at sector %d returned other bytes", w, r, base+off)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
