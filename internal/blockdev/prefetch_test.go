package blockdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gate holds the read of sector at on the wire until release is
// closed, after closing entered. It holds one read; at < 0 holds none.
type gate struct {
	inner   Transport
	at      int64
	entered chan struct{}
	release chan struct{}
}

func newGate(inner Transport, at int64) *gate {
	return &gate{inner: inner, at: at, entered: make(chan struct{}), release: make(chan struct{})}
}

// held waits until the gate holds its read on the wire. A client that did
// not start the fetch fails the test in seconds instead of hanging it.
func (g *gate) held(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no fetch started")
	}
}

func (g *gate) RoundTrip(req []byte) ([]byte, error) {
	if req[0] == opRead && int64(binary.BigEndian.Uint64(req[1:9])) == g.at {
		g.at = -1
		close(g.entered)
		<-g.release
	}
	return g.inner.RoundTrip(req)
}

// holding runs f in a goroutine and returns once the client's lock is
// held, which in these tests is by f, waiting on the fetch in flight. The
// returned func waits for f's result. An f that returns without blocking
// under the lock, or never takes it, fails the test in seconds instead
// of hanging it.
func holding(t *testing.T, c *Client, f func() error) func() error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- f() }()
	deadline := time.Now().Add(5 * time.Second)
	for c.mu.TryLock() {
		c.mu.Unlock()
		select {
		case err := <-errc:
			t.Fatalf("returned (err %v) without blocking under the client's lock", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the client's lock was never held")
		}
		runtime.Gosched()
	}
	return func() error { return <-errc }
}

// inFlight returns the client's background fetch.
func inFlight(t *testing.T, c *Client) *inflight {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next == nil {
		t.Fatal("no window in flight")
	}
	return c.next
}

// TestPrefetchWriteNeverServedStale writes into the window fetched in
// the background at three points of its round trip: before it takes the
// transport, while it holds it, and after it has landed. Each time the
// fetch reads the bytes the write replaces, and a read of the window
// afterwards must return the written ones.
func TestPrefetchWriteNeverServedStale(t *testing.T) {
	const (
		before = iota
		during
		after
	)
	for timing, name := range []string{"before the fetch takes the transport", "while the fetch holds it", "after the fetch landed"} {
		t.Run(name, func(t *testing.T) {
			c, w, content := newWiredNBD(t, 8<<20, TunedReadAhead)
			g := newGate(w.inner, -1)
			if timing == during {
				g.at = 768 << 10 / SectorSize
			}
			w.inner = g
			readAt(t, c, content, 0, 64<<10)       // a stream's first window: [0, 256 KiB)
			readAt(t, c, content, 64<<10, 256<<10) // runs off its end: [256 KiB, 768 KiB), and [768 KiB, 1.75 MiB) in flight
			f := inFlight(t, c)
			switch timing {
			case before:
				// Take the landed window with the transport held: the
				// next one, [1.75 MiB, 3.75 MiB), waits to take it. A
				// landed window that failed would send the read to the
				// held transport for good.
				settle(c)
				if f.err != nil {
					t.Fatalf("the background fetch failed: %v", f.err)
				}
				c.trip.Lock()
				readAt(t, c, content, 320<<10, 512<<10)
				f = inFlight(t, c)
			case during:
				g.held(t)
			case after:
				settle(c)
			}

			off := f.start*SectorSize + 100<<10
			patch := bytes.Repeat([]byte{0xEE}, 3*4096)
			write := func() error { return c.WriteSectors(patch, off/SectorSize) }
			var err error
			switch timing {
			case before:
				wait := holding(t, c, write)
				c.trip.Unlock()
				err = wait()
			case during:
				wait := holding(t, c, write)
				close(g.release)
				err = wait()
			case after:
				err = write()
			}
			if err != nil {
				t.Fatal(err)
			}
			<-f.done
			if f.err != nil {
				t.Fatalf("the background fetch failed: %v", f.err)
			}
			if stale := f.data[off-f.start*SectorSize:][:len(patch)]; !bytes.Equal(stale, content[off:off+int64(len(patch))]) {
				t.Fatal("the fetch did not read the bytes the write replaced")
			}
			copy(content[off:], patch)
			for cur := f.start * SectorSize; cur < (f.start+f.n)*SectorSize; cur += 64 << 10 {
				readAt(t, c, content, cur, 64<<10)
			}
			settle(c)
		})
	}
}

// failing fails the first fails reads of sector at.
type failing struct {
	inner Transport
	at    int64
	fails int
}

func (f *failing) RoundTrip(req []byte) ([]byte, error) {
	if req[0] == opRead && int64(binary.BigEndian.Uint64(req[1:9])) == f.at && f.fails > 0 {
		f.fails--
		return nil, errors.New("injected read failure")
	}
	return f.inner.RoundTrip(req)
}

// TestPrefetchFailureNotCached fails the background fetch: reads of
// other sectors (in the live window and elsewhere) never see its error,
// and a read of its window fetches for itself — reporting its own error
// when that fetch fails too, and the right bytes once one succeeds.
func TestPrefetchFailureNotCached(t *testing.T) {
	for _, fails := range []int{1, 2} {
		c, w, content := newWiredNBD(t, 8<<20, TunedReadAhead)
		w.inner = &failing{inner: w.inner, at: 768 << 10 / SectorSize, fails: fails}
		readAt(t, c, content, 0, 64<<10)
		readAt(t, c, content, 64<<10, 256<<10) // [768 KiB, 1.75 MiB) fails in flight
		settle(c)
		if f := inFlight(t, c); f.err == nil {
			t.Fatal("the background fetch did not fail")
		}
		readAt(t, c, content, 320<<10, 64<<10)  // the live window
		readAt(t, c, content, 5<<20, 4096)      // a random miss
		readAt(t, c, content, 512<<10, 256<<10) // the rest of the live window
		before := c.NetReads()
		buf := make([]byte, 64<<10)
		err := c.ReadSectors(buf, 768<<10/SectorSize)
		// Its own fetch and, once that lands, the next window's.
		if got, want := c.NetReads()-before, int64(3-fails); got != want {
			t.Fatalf("read of the failed window issued %d wire reads, want %d", got, want)
		}
		if fails == 2 {
			if err == nil {
				t.Fatal("the read's own failed fetch was not reported")
			}
			err = c.ReadSectors(buf, 768<<10/SectorSize)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, content[768<<10:768<<10+64<<10]) {
			t.Fatal("read of the failed window returned wrong data")
		}
		settle(c)
	}
}

// TestPrefetchStoppedScan stops 64 KiB-read scans at points before, at
// and past the first window's end: once the reader lands, the client has
// moved what the synchronous read-ahead moved plus at most one
// cap-sized window, and no fetch runs on.
func TestPrefetchStoppedScan(t *testing.T) {
	const size = 40 << 20
	for _, stop := range []int64{64 << 10, 256 << 10, 320 << 10, 5 << 20, 24 << 20} {
		c, w, content := newWiredNBD(t, size, TunedReadAhead)
		scan(t, c, content, stop, nil)
		settle(c)
		// The synchronous windows: 256 KiB, doubling to the cap.
		var moved, trips int
		for win := 256 << 10; moved < int(stop); win = min(2*win, TunedReadAhead) {
			moved += win
			trips++
		}
		extra := w.readData - moved
		if extra < 0 || extra > TunedReadAhead || w.trips-trips > 1 {
			t.Fatalf("scan of %d bytes moved %d bytes in %d round trips; synchronous read-ahead moves %d in %d",
				stop, w.readData, w.trips, moved, trips)
		}
		if stop <= 256<<10 && extra != 0 {
			t.Fatalf("scan inside its first window speculated %d bytes", extra)
		}
	}
}

// TestPrefetchRunsBesideTheReader holds the next window on the wire:
// reads of the live window still return, and a read that reaches the
// held window waits for it and takes it rather than fetching again.
func TestPrefetchRunsBesideTheReader(t *testing.T) {
	c, w, content := newWiredNBD(t, 8<<20, TunedReadAhead)
	g := newGate(w.inner, 768<<10/SectorSize)
	w.inner = g
	readAt(t, c, content, 0, 64<<10)
	readAt(t, c, content, 64<<10, 256<<10)
	g.held(t)
	for off := int64(320 << 10); off < 768<<10; off += 64 << 10 {
		readAt(t, c, content, off, 64<<10)
	}
	buf := make([]byte, 64<<10)
	wait := holding(t, c, func() error { return c.ReadSectors(buf, 768<<10/SectorSize) })
	close(g.release)
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, content[768<<10:768<<10+64<<10]) {
		t.Fatal("read of the held window returned wrong data")
	}
	// The first window, its double, the held one and the one after it.
	if got := c.NetReads(); got != 4 {
		t.Fatalf("%d wire reads, want 4", got)
	}
	settle(c)
}

// TestPrefetchConcurrentWorkers shares one client between workers that
// each write generations of a pattern into their own region and read it
// back in sequential steps. Regions are adjacent, so a window fetched
// for one worker's scan runs into its neighbours' regions while they
// write: no read may return a generation but the last one written.
func TestPrefetchConcurrentWorkers(t *testing.T) {
	const (
		workers = 4
		region  = 512 << 10
		step    = 32 << 10
		rounds  = 10
	)
	c, _ := newNBD(t, workers*region, loopback, TunedReadAhead)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := int64(w * region)
			got := make([]byte, step)
			for r := range rounds {
				want := fill(region, byte(w*rounds+r))
				if err := c.WriteSectors(want, base/SectorSize); err != nil {
					errs <- err
					return
				}
				for off := int64(0); off < region; off += step {
					if err := c.ReadSectors(got, (base+off)/SectorSize); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(got, want[off:off+step]) {
						errs <- fmt.Errorf("worker %d round %d: read at byte %d returned other bytes", w, r, base+off)
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
	settle(c)
}
