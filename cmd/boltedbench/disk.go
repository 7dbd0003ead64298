package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"bolted/internal/blockdev"
	"bolted/internal/ceph"
	"bolted/internal/ipsec"
	"bolted/internal/luks"
)

// disk-charlie: Charlie's root-disk stack, in process, no daemon:
//
//	luks.Volume → blockdev.Client(TunedReadAhead) → IPsecTransport(HW AES, MTU 9000)
//	  → blockdev.Target → ceph.ImageDevice(64 MiB, 3 OSDs × 2 replicas)
//
// built with the constructors and parameters core.provisionNode uses.
// Alternating passes: sequential 1 MiB writes over the whole device,
// sequential 1 MiB reads, then seeded random 4 KiB reads and writes
// 70/30. Every read is compared with what was last written there.
const (
	diskSize      = 64 << 20
	diskBlock     = 1 << 20
	diskChunk     = 4 << 10
	diskRandOps   = 256 // random 4 KiB operations per pass
	diskReadShare = 70  // percent of random operations that read
	luksIter      = 64  // PBKDF2 iterations, as core formats a node's volume
	ipsecMTU      = 9000
	cephOSDs      = 3
	cephReplicas  = 2
)

type diskStack struct {
	img *ceph.ImageDevice
	dev blockdev.Device
	nbd *blockdev.Client
}

// newDiskStack builds the storage path; LUKS and IPsec are optional so
// the probes can price each layer by leaving it out.
func newDiskStack(name string, key []byte, withIPsec, withLUKS bool) (*diskStack, error) {
	cluster, err := ceph.NewCluster(cephOSDs, cephReplicas)
	if err != nil {
		return nil, err
	}
	img, err := ceph.NewImageDevice(cluster, name, diskSize)
	if err != nil {
		return nil, err
	}
	var transport blockdev.Transport = blockdev.Loopback{Target: blockdev.NewTarget(img)}
	if withIPsec {
		if transport, err = blockdev.NewIPsecTransport(transport, ipsec.SuiteHWAES, ipsecMTU); err != nil {
			return nil, err
		}
	}
	nbd, err := blockdev.NewClient(transport, blockdev.TunedReadAhead)
	if err != nil {
		return nil, err
	}
	s := &diskStack{img: img, dev: nbd, nbd: nbd}
	if withLUKS {
		if s.dev, err = luks.FormatWithIterations(nbd, key, luksIter); err != nil {
			return nil, err
		}
	}
	return s, nil
}

type disk struct {
	seed  int64
	rng   *rand.Rand
	base  []byte // one seeded 4 KiB chunk every pattern derives from
	stack *diskStack

	blocks  int64    // whole 1 MiB blocks on the volume
	version []uint32 // per 4 KiB chunk: the write generation it holds
	gen     uint32
	buf     []byte
}

func newDisk(seed int64) *disk {
	rng := rand.New(rand.NewSource(seed))
	w := &disk{seed: seed, rng: rng, base: make([]byte, diskChunk), buf: make([]byte, diskBlock)}
	rng.Read(w.base)
	return w
}

func (w *disk) close() {}

// fillChunk writes chunk idx's contents at generation gen into dst:
// the seeded base chunk with a header that makes every (chunk,
// generation) pair distinct, so a stale or misplaced read is caught.
func (w *disk) fillChunk(dst []byte, idx int64, gen uint32) {
	copy(dst, w.base)
	binary.LittleEndian.PutUint64(dst, uint64(idx))
	binary.LittleEndian.PutUint32(dst[8:], gen)
}

func (w *disk) setup(ctx context.Context) error {
	key := make([]byte, 32)
	w.rng.Read(key)
	stack, err := newDiskStack(fmt.Sprintf("charlie-%d", w.seed), key, true, true)
	if err != nil {
		return err
	}
	w.stack = stack
	w.blocks = stack.dev.NumSectors() * blockdev.SectorSize / diskBlock
	w.version = make([]uint32, w.blocks*diskBlock/diskChunk)
	warm := newTally()
	w.writePass(warm)
	w.readPass(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up pass failed: %v", warm.firstCauses(1))
	}
	return tolerable(warm, "warm-up")
}

const sectorsPerBlock = diskBlock / blockdev.SectorSize
const sectorsPerChunk = diskChunk / blockdev.SectorSize
const chunksPerBlock = diskBlock / diskChunk

// writePass writes every 1 MiB block in order at a new generation.
func (w *disk) writePass(t *tally) {
	w.gen++
	for b := int64(0); b < w.blocks; b++ {
		for c := int64(0); c < chunksPerBlock; c++ {
			w.fillChunk(w.buf[c*diskChunk:(c+1)*diskChunk], b*chunksPerBlock+c, w.gen)
		}
		t.attempt()
		begin := time.Now()
		err := w.stack.dev.WriteSectors(w.buf, b*sectorsPerBlock)
		d := time.Since(begin)
		if err != nil {
			t.fail("write", err)
			continue
		}
		t.observe("disk_write", d)
		for c := int64(0); c < chunksPerBlock; c++ {
			w.version[b*chunksPerBlock+c] = w.gen
		}
	}
}

// verify compares chunks read from the volume, starting at chunk
// first, with the pattern last written there.
func (w *disk) verify(t *tally, got []byte, first int64) {
	want := make([]byte, diskChunk)
	for c := int64(0); c*diskChunk < int64(len(got)); c++ {
		idx := first + c
		w.fillChunk(want, idx, w.version[idx])
		if !bytes.Equal(got[c*diskChunk:(c+1)*diskChunk], want) {
			t.violation("disk: chunk %d does not hold generation %d of its pattern", idx, w.version[idx])
			return
		}
	}
}

// readPass reads every 1 MiB block in order and checks it.
func (w *disk) readPass(t *tally) {
	for b := int64(0); b < w.blocks; b++ {
		t.attempt()
		begin := time.Now()
		err := w.stack.dev.ReadSectors(w.buf, b*sectorsPerBlock)
		d := time.Since(begin)
		if err != nil {
			t.fail("read", err)
			continue
		}
		t.observe("disk_read", d)
		w.verify(t, w.buf, b*chunksPerBlock)
	}
}

// randPass does seeded random 4 KiB reads (checked) and writes.
func (w *disk) randPass(t *tally) {
	chunk := w.buf[:diskChunk]
	for i := 0; i < diskRandOps; i++ {
		idx := w.rng.Int63n(int64(len(w.version)))
		t.attempt()
		if w.rng.Intn(100) < diskReadShare {
			begin := time.Now()
			err := w.stack.dev.ReadSectors(chunk, idx*sectorsPerChunk)
			d := time.Since(begin)
			if err != nil {
				t.fail("rand-read", err)
				continue
			}
			t.observe("disk_rand4k", d)
			w.verify(t, chunk, idx)
			continue
		}
		w.gen++
		w.fillChunk(chunk, idx, w.gen)
		begin := time.Now()
		err := w.stack.dev.WriteSectors(chunk, idx*sectorsPerChunk)
		d := time.Since(begin)
		if err != nil {
			t.fail("rand-write", err)
			continue
		}
		t.observe("disk_rand4k", d)
		w.version[idx] = w.gen
	}
}

// checkCiphertext reads the backing image raw: what the provider's
// storage holds must not contain the pattern.
func (w *disk) checkCiphertext(t *tally) {
	raw := make([]byte, diskBlock)
	probe := w.base[64:128] // past the per-chunk header, identical in every plaintext chunk
	for _, b := range []int64{1, w.blocks / 2, w.blocks - 1} {
		if err := w.stack.img.ReadSectors(raw, b*sectorsPerBlock); err != nil {
			t.violation("disk: raw image read: %v", err)
			return
		}
		if bytes.Contains(raw, probe) {
			t.violation("disk: the backing image holds plaintext at block %d", b)
		}
	}
}

func (w *disk) measure(ctx context.Context, window time.Duration) (*tally, map[string]float64, error) {
	t := newTally()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		w.writePass(t)
		w.readPass(t)
		w.randPass(t)
	}
	w.checkCiphertext(t)
	wr, rd, rnd := sorted(t.samples("disk_write")), sorted(t.samples("disk_read")), sorted(t.samples("disk_rand4k"))
	// Throughput over the time spent inside the device calls: pattern
	// generation and verification are the harness's, not the stack's.
	return t, map[string]float64{
		"disk_write_MBps":  perSecond(wr, diskBlock>>20),
		"disk_read_MBps":   perSecond(rd, diskBlock>>20),
		"disk_rand4k_iops": perSecond(rnd, 1),
	}, nil
}

// perSecond is units done per second of summed latency (ms samples).
func perSecond(ms []float64, unitsPerOp float64) float64 {
	var total float64
	for _, v := range ms {
		total += v
	}
	if total == 0 {
		return 0
	}
	return unitsPerOp * float64(len(ms)) / (total / 1000)
}

func (w *disk) layers(ctx context.Context, window time.Duration, r *result) error {
	t := newTally()
	w.writePass(t)
	w.readPass(t)
	w.randPass(t)
	w.checkCiphertext(t)
	r.absorb(t)
	return dataPlaneProbes(w.rng, r.Layer)
}
