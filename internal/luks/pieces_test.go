package luks

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"bolted/internal/blockdev"
)

// pieceProbe stands between a Volume and its device and holds the write
// pipeline to its contract. Each write keeps its buffer for hold before
// storing it, long enough for XTS to encrypt a whole piece meanwhile, and
// the probe records a fault if the buffer changes during the hold (a
// staging buffer reused while in flight) or if a second write of the
// same region starts before the first is stored (a piece sent before
// the one ahead of it was acknowledged). Regions are region sectors
// wide: one writer's span each.
type pieceProbe struct {
	blockdev.Device
	hold   time.Duration
	region int64
	failAt int // the failAt-th write fails (counting from 1); 0: none

	mu     sync.Mutex
	starts []int64 // first sector of every write, in the order they began
	busy   map[int64]int
	faults []string
}

func newProbe(dev blockdev.Device, hold time.Duration, region int64) *pieceProbe {
	return &pieceProbe{Device: dev, hold: hold, region: region, busy: map[int64]int{}}
}

var errInjected = errors.New("injected device failure")

func (p *pieceProbe) WriteSectors(src []byte, start int64) error {
	r := start / p.region
	p.mu.Lock()
	p.starts = append(p.starts, start)
	k := len(p.starts)
	if p.busy[r]++; p.busy[r] > 1 {
		p.faults = append(p.faults, fmt.Sprintf("write at sector %d began while another write of its region was in flight", start))
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.busy[r]--
		p.mu.Unlock()
	}()
	held := bytes.Clone(src)
	time.Sleep(p.hold)
	if !bytes.Equal(held, src) {
		p.mu.Lock()
		p.faults = append(p.faults, fmt.Sprintf("write at sector %d: its buffer changed while the device held it", start))
		p.mu.Unlock()
	}
	if k == p.failAt {
		return errInjected
	}
	return p.Device.WriteSectors(held, start)
}

// check fails t with every fault the probe saw.
func (p *pieceProbe) check(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		t.Error(f)
	}
}

// writesSoFar is the number of writes that have reached the device.
func (p *pieceProbe) writesSoFar() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.starts)
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestPiecewiseWriteCiphertext: a write of 1 MiB + 3 sectors at an odd
// sector goes down as five pieces in order, one at a time, and leaves a
// raw image byte-identical to the same bytes written 4 KiB at a time
// under the same master key.
func TestPiecewiseWriteCiphertext(t *testing.T) {
	const first = 7
	data := randomBytes(1, 1<<20+3*blockdev.SectorSize)
	whole := newDisk(t, 4<<20)
	format(t, whole, "pw")
	img := make([]byte, 4<<20)
	if err := whole.ReadSectors(img, 0); err != nil {
		t.Fatal(err)
	}
	chunked := newDisk(t, int64(len(img)))
	if err := chunked.WriteSectors(img, 0); err != nil {
		t.Fatal(err)
	}

	probe := newProbe(whole, 2*time.Millisecond, 1<<40)
	v, err := Open(probe, []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.WriteSectors(data, first); err != nil {
		t.Fatal(err)
	}
	probe.check(t)
	for i, s := range probe.starts {
		if want := int64(headerSectors + first + i*pieceBytes/blockdev.SectorSize); s != want {
			t.Fatalf("piece %d went to sector %d, want %d (pieces %v)", i, s, want, probe.starts)
		}
	}
	if got, want := len(probe.starts), (len(data)+pieceBytes-1)/pieceBytes; got != want {
		t.Fatalf("%d pieces reached the device, want %d", got, want)
	}

	v4, err := Open(chunked, []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 4096 {
		end := min(off+4096, len(data))
		if err := v4.WriteSectors(data[off:end], first+int64(off/blockdev.SectorSize)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := make([]byte, len(img)), make([]byte, len(img))
	whole.ReadSectors(a, 0)
	chunked.ReadSectors(b, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("a piecewise write left different ciphertext than 4 KiB writes of the same bytes")
	}
	got := make([]byte, len(data))
	if err := v.ReadSectors(got, first); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back after a piecewise write: err=%v, equal=%v", err, bytes.Equal(got, data))
	}
}

// TestPiecewiseWriteStopsAtFailure: when the device fails piece k, the
// write returns that error, no piece after k reaches the device, and
// nothing is left running.
func TestPiecewiseWriteStopsAtFailure(t *testing.T) {
	data := randomBytes(2, 1<<20+3*blockdev.SectorSize) // five pieces
	for k := 1; k <= 5; k++ {
		t.Run(fmt.Sprintf("piece%d", k), func(t *testing.T) {
			disk := newDisk(t, 4<<20)
			format(t, disk, "pw")
			probe := newProbe(disk, 2*time.Millisecond, 1<<40)
			v, err := Open(probe, []byte("pw"))
			if err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumGoroutine()
			probe.failAt = k
			if err := v.WriteSectors(data, 1); !errors.Is(err, errInjected) {
				t.Fatalf("WriteSectors = %v, want the device's error", err)
			}
			probe.mu.Lock()
			busy := probe.busy[0]
			probe.mu.Unlock()
			if busy != 0 {
				t.Fatalf("%d device writes still running after WriteSectors returned", busy)
			}
			time.Sleep(4 * probe.hold)
			if n := probe.writesSoFar(); n != k {
				t.Fatalf("%d pieces reached the device, want %d: none after the failed one", n, k)
			}
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left running after WriteSectors returned", runtime.NumGoroutine()-goroutines)
				}
				time.Sleep(time.Millisecond)
			}
			probe.check(t)
		})
	}
}

// TestConcurrentVolumeIOPieces is TestConcurrentVolumeIO with spans
// longer than one piece, over a RAM disk and over a network block device
// whose read-ahead windows the other writers' pieces keep dropping:
// every writer's pieces go down one at a time, and every read returns
// what its writer last wrote.
func TestConcurrentVolumeIOPieces(t *testing.T) {
	const goroutines = 4
	const spanSectors = 2*pieceBytes/blockdev.SectorSize + 5
	const regionSectors = 2048 // > headerSectors + spanSectors
	for _, overNBD := range []bool{false, true} {
		t.Run(map[bool]string{false: "ramdisk", true: "nbd"}[overNBD], func(t *testing.T) {
			var dev blockdev.Device = newDisk(t, goroutines*regionSectors*blockdev.SectorSize)
			if overNBD {
				c, err := blockdev.NewClient(blockdev.Loopback{Target: blockdev.NewTarget(dev)}, blockdev.TunedReadAhead)
				if err != nil {
					t.Fatal(err)
				}
				dev = c
			}
			format(t, dev, "pw")
			probe := newProbe(dev, 200*time.Microsecond, regionSectors)
			v, err := Open(probe, []byte("pw"))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					start := int64(g * regionSectors)
					for iter := 0; iter < 3; iter++ {
						data := randomBytes(int64(10*g+iter), spanSectors*blockdev.SectorSize)
						if err := v.WriteSectors(data, start); err != nil {
							errs[g] = err
							return
						}
						got := make([]byte, len(data))
						if err := v.ReadSectors(got, start); err != nil {
							errs[g] = err
							return
						}
						if !bytes.Equal(got, data) {
							errs[g] = fmt.Errorf("writer %d, round %d: read back differs from what it wrote", g, iter)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			probe.check(t)
		})
	}
}

// slowReads delays every read frame, so that a read-ahead window the
// client fetches in the background is still in flight when the next
// request arrives.
type slowReads struct {
	blockdev.Transport
	delay time.Duration
}

func (s slowReads) RoundTrip(req []byte) ([]byte, error) {
	if req[0] == 1 { // the wire protocol's read op
		time.Sleep(s.delay)
	}
	return s.Transport.RoundTrip(req)
}

// TestPiecewiseWriteReadsFresh: over blockdev.Client, reads straight
// after a piecewise write return the new bytes where a read-ahead window
// — the live one, the one in flight, or both — covered the range before
// the write.
func TestPiecewiseWriteReadsFresh(t *testing.T) {
	// A scan of 64 KiB reads over the first 1 MiB leaves the live window
	// at data sectors [1536, 3584) and the next one, [3584, 7680), in
	// flight. A read from 1536 to 5632 is served by both if they are
	// kept: from the live window, then from the one in flight.
	const scanBytes, read = 1 << 20, 64 << 10
	const recheck, recheckEnd = 1536, 5632
	for _, w := range []struct {
		name  string
		start int64
	}{
		{"live", 1000},
		{"inflight", 3700},
		{"both", 3000},
	} {
		t.Run(w.name, func(t *testing.T) {
			disk := newDisk(t, 8<<20)
			client, err := blockdev.NewClient(slowReads{blockdev.Loopback{Target: blockdev.NewTarget(disk)}, 3 * time.Millisecond}, blockdev.TunedReadAhead)
			if err != nil {
				t.Fatal(err)
			}
			format(t, client, "pw")
			probe := newProbe(client, 200*time.Microsecond, 1<<40)
			v, err := Open(probe, []byte("pw"))
			if err != nil {
				t.Fatal(err)
			}
			want := randomBytes(3, 4<<20)
			if err := v.WriteSectors(want, 0); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, read)
			for off := 0; off < scanBytes; off += read {
				if err := v.ReadSectors(buf, int64(off/blockdev.SectorSize)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, want[off:off+read]) {
					t.Fatalf("scan at byte %d read wrong data", off)
				}
			}
			data := randomBytes(4, 1<<20+3*blockdev.SectorSize)
			if err := v.WriteSectors(data, w.start); err != nil {
				t.Fatal(err)
			}
			copy(want[w.start*blockdev.SectorSize:], data)
			for _, r := range [][2]int64{{recheck, recheckEnd}, {w.start, w.start + int64(len(data)/blockdev.SectorSize)}} {
				lo, hi := r[0]*blockdev.SectorSize, r[1]*blockdev.SectorSize
				got := make([]byte, hi-lo)
				if err := v.ReadSectors(got, r[0]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[lo:hi]) {
					t.Fatalf("read of data sectors [%d, %d) after a piecewise write returned stale bytes", r[0], r[1])
				}
			}
			probe.check(t)
		})
	}
}
