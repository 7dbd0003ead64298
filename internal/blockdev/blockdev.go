// Package blockdev provides the block-device abstractions under Bolted's
// diskless provisioning: RAM disks (Figure 3a's dd target), copy-on-write
// overlays (BMI image clones), and an iSCSI-like network block device
// with a configurable read-ahead buffer (Figure 3c's critical tuning
// knob: 128 KiB default vs 8 MiB).
//
// # Buffer ownership
//
// One read or write through a Client over an IPsecTransport touches
// these buffers. Each is allocated by one party; only the party named
// may keep it, and it dies at the point named.
//
//   - Write-staging pieces, two, above the Client. A luks.Volume write
//     longer than one 256 KiB piece takes two staging buffers from the
//     volume's pool and encrypts the span into them a piece at a time,
//     alternating. The piece being stored is lent to one WriteSectors
//     call on the Client, run from a goroutine, which copies it into
//     the wire frame; the volume encrypts the next piece into the other
//     buffer meanwhile and writes into a buffer again only after the
//     call that borrowed it has returned. Both go back to the pool when
//     the volume's write returns, which is after its last piece is
//     stored or has failed.
//   - Wire frame. Allocated by the Client (request) for each round trip;
//     a write copies its payload into it. The transport reads it during
//     RoundTrip only. Dead when RoundTrip returns.
//   - SegmentStream arenas, one per leg. Allocated by ipsec.SegmentStream
//     for the request leg (client end) and the response leg (server
//     end); the packets are slices of it. IPsecTransport.RoundTrip holds
//     them until the other end's ReassembleStream has opened them. Dead
//     when that leg is opened or fails to open.
//   - Reassembled plaintext. Allocated by ipsec.ReassembleStream at the
//     receiving end of each leg. The request leg's is the frame
//     Target.Handle reads; a write's payload is copied into the device,
//     so it is dead when Handle returns. The response leg's is the reply
//     RoundTrip hands the Client: the caller's for good.
//   - Target.Handle's read reply. Allocated fresh by Handle for every
//     read, filled by the Device. Over Loopback it is the reply the
//     Client receives; over IPsec it is sealed into the response arena
//     and dead once sealed.
//   - Live window. The payload of the reply a fill (or the background
//     fetch it took over) returned. Owned by the Client under its lock;
//     readers get copies of it, never the slice. Dead when the next
//     window replaces it or a write that overlaps it drops it.
//   - In-flight window. The reply of the one background fetch a Client
//     may have. Its goroutine owns it until the round trip ends; then
//     the Client does. It becomes the live window when a reader reaches
//     it, and dies when a write overlaps it or a later stream's fetch
//     replaces it. A fetch that fails leaves no window.
//
// So a scanning Client keeps up to two cap-sized windows alive, the live
// one and the one in flight: 16 MiB under TunedReadAhead.
package blockdev

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// SectorSize is the logical sector size of every device in the system.
const SectorSize = 512

// ErrOutOfRange indicates an access beyond the end of the device.
var ErrOutOfRange = errors.New("blockdev: sector out of range")

// Device is a random-access block device addressed in sectors.
type Device interface {
	// NumSectors returns the device capacity in sectors.
	NumSectors() int64
	// ReadSectors fills dst (len a positive multiple of SectorSize)
	// starting at sector start.
	ReadSectors(dst []byte, start int64) error
	// WriteSectors stores src (len a positive multiple of SectorSize)
	// starting at sector start.
	WriteSectors(src []byte, start int64) error
}

// checkRange validates a sector-aligned access.
func checkRange(dev Device, buf []byte, start int64) (sectors int64, err error) {
	if len(buf) == 0 || len(buf)%SectorSize != 0 {
		return 0, fmt.Errorf("blockdev: buffer length %d not a positive multiple of %d", len(buf), SectorSize)
	}
	sectors = int64(len(buf) / SectorSize)
	if start < 0 || start+sectors > dev.NumSectors() {
		return 0, ErrOutOfRange
	}
	return sectors, nil
}

// RAMDisk is a memory-backed device (Linux brd, the paper's Figure 3a
// substrate).
type RAMDisk struct {
	mu   sync.RWMutex
	data []byte
}

// NewRAMDisk allocates a zeroed RAM disk of the given byte size, which
// must be a multiple of SectorSize.
func NewRAMDisk(size int64) (*RAMDisk, error) {
	if size <= 0 || size%SectorSize != 0 {
		return nil, fmt.Errorf("blockdev: size %d not a positive multiple of %d", size, SectorSize)
	}
	return &RAMDisk{data: make([]byte, size)}, nil
}

// NumSectors implements Device.
func (r *RAMDisk) NumSectors() int64 { return int64(len(r.data)) / SectorSize }

// ReadSectors implements Device.
func (r *RAMDisk) ReadSectors(dst []byte, start int64) error {
	if _, err := checkRange(r, dst, start); err != nil {
		return err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	copy(dst, r.data[start*SectorSize:])
	return nil
}

// WriteSectors implements Device.
func (r *RAMDisk) WriteSectors(src []byte, start int64) error {
	if _, err := checkRange(r, src, start); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	copy(r.data[start*SectorSize:], src)
	return nil
}

// Scrub zeroes the entire disk (the LinuxBoot memory-scrub analogue for
// node-local state).
func (r *RAMDisk) Scrub() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.data {
		r.data[i] = 0
	}
}

// Overlay is a copy-on-write view over a read-only base device: reads
// come from the base until a sector is written. BMI uses overlays to
// clone golden images for each provisioned node in O(1).
type Overlay struct {
	base  Device
	mu    sync.RWMutex
	dirty map[int64][]byte // sector index -> SectorSize bytes
}

// NewOverlay creates a copy-on-write overlay of base.
func NewOverlay(base Device) *Overlay {
	return &Overlay{base: base, dirty: make(map[int64][]byte)}
}

// NumSectors implements Device.
func (o *Overlay) NumSectors() int64 { return o.base.NumSectors() }

// ReadSectors implements Device.
func (o *Overlay) ReadSectors(dst []byte, start int64) error {
	sectors, err := checkRange(o, dst, start)
	if err != nil {
		return err
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	for i := int64(0); i < sectors; i++ {
		out := dst[i*SectorSize : (i+1)*SectorSize]
		if d, ok := o.dirty[start+i]; ok {
			copy(out, d)
			continue
		}
		if err := o.base.ReadSectors(out, start+i); err != nil {
			return err
		}
	}
	return nil
}

// WriteSectors implements Device.
func (o *Overlay) WriteSectors(src []byte, start int64) error {
	sectors, err := checkRange(o, src, start)
	if err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := int64(0); i < sectors; i++ {
		sec := make([]byte, SectorSize)
		copy(sec, src[i*SectorSize:])
		o.dirty[start+i] = sec
	}
	return nil
}

// DirtySectors reports how many sectors have been written — BMI's
// observation that "less than 1% of the image is typically used" is
// measured with this.
func (o *Overlay) DirtySectors() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return int64(len(o.dirty))
}

// DirtyList returns the indices of written sectors in ascending order.
func (o *Overlay) DirtyList() []int64 {
	o.mu.RLock()
	out := make([]int64, 0, len(o.dirty))
	for s := range o.dirty {
		out = append(out, s)
	}
	o.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Discard drops all overlay state, reverting to the base image.
func (o *Overlay) Discard() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.dirty = make(map[int64][]byte)
}
