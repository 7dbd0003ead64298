// Package ceph models the RADOS object store backing BMI's image
// service. Like Ceph, it stores fixed 4 MiB objects placed across OSDs
// by deterministic hashing (a rendezvous-hash stand-in for CRUSH) with
// configurable replication, and exposes a striped block-device view of
// an object prefix, which is how RBD-style images are consumed by the
// iSCSI target.
//
// The data plane is real (bytes stored, replicas consistent); the
// performance plane is an analytic OSD service-time model consumed by
// the discrete-event simulation — the paper's 3-host, 27-spindle Ceph
// pool is the bottleneck that bends Figure 5 at 16 concurrent boots.
package ceph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"bolted/internal/blockdev"
)

// ObjectSize is the RADOS object (stripe unit) size.
const ObjectSize = 4 << 20

// Cluster is an in-memory object store cluster.
type Cluster struct {
	mu          sync.RWMutex
	osds        []*OSD
	replication int
}

// OSD is one object storage daemon.
type OSD struct {
	ID      int
	mu      sync.RWMutex
	objects map[string][]byte
	down    bool
}

// NewCluster creates a cluster of numOSDs daemons with the given
// replication factor.
func NewCluster(numOSDs, replication int) (*Cluster, error) {
	if numOSDs < 1 {
		return nil, fmt.Errorf("ceph: need at least one OSD, got %d", numOSDs)
	}
	if replication < 1 || replication > numOSDs {
		return nil, fmt.Errorf("ceph: replication %d invalid for %d OSDs", replication, numOSDs)
	}
	c := &Cluster{replication: replication}
	for i := 0; i < numOSDs; i++ {
		c.osds = append(c.osds, &OSD{ID: i, objects: make(map[string][]byte)})
	}
	return c, nil
}

// NumOSDs returns the cluster size.
func (c *Cluster) NumOSDs() int { return len(c.osds) }

// Replication returns the replica count.
func (c *Cluster) Replication() int { return c.replication }

// placement returns the OSDs holding an object, primary first, via
// rendezvous (highest-random-weight) hashing: deterministic, uniform,
// and minimally disruptive on membership change — the properties CRUSH
// provides. An OSD's score hashes the key "<name>|osd<ID>", built in one
// reused buffer.
func (c *Cluster) placement(name string) []*OSD {
	type scored struct {
		osd   *OSD
		score uint64
	}
	scores := make([]scored, len(c.osds))
	var buf [128]byte
	key := append(append(buf[:0], name...), "|osd"...)
	prefix := len(key)
	for i, o := range c.osds {
		key = strconv.AppendInt(key[:prefix], int64(o.ID), 10)
		h := sha256.Sum256(key)
		scores[i] = scored{o, binary.BigEndian.Uint64(h[:8])}
	}
	slices.SortFunc(scores, func(a, b scored) int { return cmp.Compare(b.score, a.score) })
	out := make([]*OSD, c.replication)
	for i := range out {
		out[i] = scores[i].osd
	}
	return out
}

// PrimaryOSD returns the ID of the primary OSD for an object, used by
// the simulation layer to charge service time to the right queue.
func (c *Cluster) PrimaryOSD(name string) int {
	return c.placement(name)[0].ID
}

// SetOSDDown marks an OSD failed (up=false) or recovered. Failed OSDs
// serve no I/O; reads fail over to surviving replicas and writes land
// on survivors only, exactly the availability property replication
// buys.
func (c *Cluster) SetOSDDown(id int, down bool) error {
	if id < 0 || id >= len(c.osds) {
		return fmt.Errorf("ceph: no OSD %d", id)
	}
	o := c.osds[id]
	o.mu.Lock()
	o.down = down
	o.mu.Unlock()
	return nil
}

// Put replaces an object on all its live replicas; the caller keeps
// its buffer. It fails only when every replica placement is down.
func (c *Cluster) Put(name string, data []byte) error {
	return c.store(name, 0, data, true)
}

// WriteAt copies data into the object at byte offset off, in place, on
// all its live replicas: the bytes around the write are neither read nor
// moved, and an object grows only as far as the last byte written.
func (c *Cluster) WriteAt(name string, off int64, data []byte) error {
	return c.store(name, off, data, false)
}

// store is the one object write path. It holds every replica's lock, in
// OSD-ID order, for the whole update, so a reader under any one replica's
// read lock never sees half a write. The live replicas share one slice,
// mutated in place: nothing outside these locks may hold it.
//
// Replica rule: a live replica that lacks the object (it was down for an
// earlier write) receives it with this write; a down replica loses its
// copy, so that when it comes back it is missing the object — which
// reads fall through — instead of serving it stale.
func (c *Cluster) store(name string, off int64, data []byte, replace bool) error {
	end := off + int64(len(data))
	if off < 0 || end > ObjectSize {
		return fmt.Errorf("ceph: object %q write [%d,%d) exceeds %d", name, off, end, ObjectSize)
	}
	replicas := c.placement(name)
	defer lockAll(replicas)()
	var obj []byte // the object as a reader sees it (nil if nowhere)
	live := 0
	for _, o := range replicas {
		if o.down {
			continue
		}
		live++
		if obj == nil && !replace {
			obj = o.objects[name]
		}
	}
	if live == 0 {
		return fmt.Errorf("ceph: all replicas of %q are down", name)
	}
	switch n := int64(len(obj)); {
	case replace:
		obj = make([]byte, end)
	case n < end:
		// Grow geometrically up to ObjectSize, so an object written
		// front to back in k pieces is copied O(log k) times, not k.
		// Bytes past len are zero: make zeroed them, and nothing
		// writes past len without extending it first.
		if int64(cap(obj)) < end {
			grown := make([]byte, n, min(max(end, 2*int64(cap(obj))), ObjectSize))
			copy(grown, obj)
			obj = grown
		}
		obj = obj[:end]
	}
	copy(obj[off:], data)
	for _, o := range replicas {
		if o.down {
			delete(o.objects, name)
		} else {
			o.objects[name] = obj
		}
	}
	return nil
}

// lockAll write-locks osds in ID order — one order for every caller, so
// writers of objects that share replicas cannot deadlock — and returns
// the unlock.
func lockAll(osds []*OSD) (unlock func()) {
	byID := slices.Clone(osds)
	slices.SortFunc(byID, func(a, b *OSD) int { return a.ID - b.ID })
	for _, o := range byID {
		o.mu.Lock()
	}
	return func() {
		for _, o := range byID {
			o.mu.Unlock()
		}
	}
}

// Get returns a copy of an object, read from its primary or, when the
// primary is down or lacks it, from a surviving replica.
func (c *Cluster) Get(name string) ([]byte, bool) {
	for _, o := range c.placement(name) {
		o.mu.RLock()
		d, ok := o.objects[name]
		if ok && !o.down {
			d = append([]byte{}, d...)
			o.mu.RUnlock()
			return d, true
		}
		o.mu.RUnlock()
		// A live replica may lack the object if it was down during the
		// write (degraded object, pending backfill): keep looking.
	}
	return nil, false
}

// ReadAt copies object bytes [off, off+len(dst)) into dst under the
// replica's read lock, failing over like Get, and returns how many
// bytes were copied (short when the object ends early). ok reports
// whether the object exists on any live replica.
func (c *Cluster) ReadAt(name string, dst []byte, off int64) (int, bool) {
	for _, o := range c.placement(name) {
		o.mu.RLock()
		if o.down {
			o.mu.RUnlock()
			continue
		}
		d, ok := o.objects[name]
		if !ok {
			o.mu.RUnlock()
			continue // degraded object, keep looking
		}
		n := 0
		if off < int64(len(d)) {
			n = copy(dst, d[off:])
		}
		o.mu.RUnlock()
		return n, true
	}
	return 0, false
}

// ObjectLen reports the stored length of an object without copying it.
func (c *Cluster) ObjectLen(name string) (int, bool) {
	for _, o := range c.placement(name) {
		o.mu.RLock()
		if o.down {
			o.mu.RUnlock()
			continue
		}
		d, ok := o.objects[name]
		o.mu.RUnlock()
		if ok {
			return len(d), true
		}
	}
	return 0, false
}

// Delete removes an object from all replicas.
func (c *Cluster) Delete(name string) {
	replicas := c.placement(name)
	defer lockAll(replicas)()
	for _, o := range replicas {
		delete(o.objects, name)
	}
}

// ReplicaCount reports on how many OSDs an object currently resides
// (test hook for replication invariants).
func (c *Cluster) ReplicaCount(name string) int {
	n := 0
	for _, o := range c.osds {
		o.mu.RLock()
		if _, ok := o.objects[name]; ok {
			n++
		}
		o.mu.RUnlock()
	}
	return n
}

// TotalObjects returns the number of distinct objects stored.
func (c *Cluster) TotalObjects() int {
	seen := make(map[string]bool)
	for _, o := range c.osds {
		o.mu.RLock()
		for name := range o.objects {
			seen[name] = true
		}
		o.mu.RUnlock()
	}
	return len(seen)
}

// ListPrefix returns the names of objects with the given prefix, sorted.
func (c *Cluster) ListPrefix(prefix string) []string {
	seen := make(map[string]bool)
	for _, o := range c.osds {
		o.mu.RLock()
		for name := range o.objects {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				seen[name] = true
			}
		}
		o.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DeletePrefix removes all objects with the given prefix (image delete).
func (c *Cluster) DeletePrefix(prefix string) {
	for _, name := range c.ListPrefix(prefix) {
		c.Delete(name)
	}
}

// CopyPrefix duplicates every object under srcPrefix to dstPrefix
// (image clone/snapshot flatten). Each object is copied under its source
// replica's read lock, so cloning an image that is being written is safe
// and the clone never changes afterwards.
func (c *Cluster) CopyPrefix(srcPrefix, dstPrefix string) error {
	for _, name := range c.ListPrefix(srcPrefix) {
		d, ok := c.Get(name)
		if !ok {
			continue
		}
		if err := c.Put(dstPrefix+name[len(srcPrefix):], d); err != nil {
			return err
		}
	}
	return nil
}

// ImageDevice presents the objects under a prefix as a striped block
// device (RBD semantics): sector s lives in object floor(s*512 /
// ObjectSize). Missing objects read as zeros; writes materialize them.
type ImageDevice struct {
	c       *Cluster
	prefix  string
	sectors int64
}

var _ blockdev.Device = (*ImageDevice)(nil)

// NewImageDevice opens a block view of size bytes over the objects named
// prefix+".<n>".
func NewImageDevice(c *Cluster, prefix string, size int64) (*ImageDevice, error) {
	if size <= 0 || size%blockdev.SectorSize != 0 {
		return nil, fmt.Errorf("ceph: image size %d not a positive sector multiple", size)
	}
	return &ImageDevice{c: c, prefix: prefix, sectors: size / blockdev.SectorSize}, nil
}

func (d *ImageDevice) objName(idx int64) string {
	return fmt.Sprintf("%s.%08d", d.prefix, idx)
}

// NumSectors implements blockdev.Device.
func (d *ImageDevice) NumSectors() int64 { return d.sectors }

// ReadSectors implements blockdev.Device: one pass over the object
// stripe copies straight into dst via Cluster.ReadAt — no reference to
// internal object slices, no staging allocation.
func (d *ImageDevice) ReadSectors(dst []byte, start int64) error {
	if err := d.checkRange(dst, start); err != nil {
		return err
	}
	byteOff := start * blockdev.SectorSize
	for len(dst) > 0 {
		inObj := byteOff % ObjectSize
		seg := dst[:min(int64(len(dst)), ObjectSize-inObj)]
		copied, _ := d.c.ReadAt(d.objName(byteOff/ObjectSize), seg, inObj)
		// Missing objects and short tails read as zeros.
		clear(seg[copied:])
		dst = dst[len(seg):]
		byteOff += int64(len(seg))
	}
	return nil
}

// WriteSectors implements blockdev.Device: each touched object takes
// its share of src in place through Cluster.WriteAt.
func (d *ImageDevice) WriteSectors(src []byte, start int64) error {
	if err := d.checkRange(src, start); err != nil {
		return err
	}
	byteOff := start * blockdev.SectorSize
	for len(src) > 0 {
		inObj := byteOff % ObjectSize
		seg := src[:min(int64(len(src)), ObjectSize-inObj)]
		if err := d.c.WriteAt(d.objName(byteOff/ObjectSize), inObj, seg); err != nil {
			return err
		}
		src = src[len(seg):]
		byteOff += int64(len(seg))
	}
	return nil
}

// checkRange validates a sector-aligned access against the image.
func (d *ImageDevice) checkRange(buf []byte, start int64) error {
	if len(buf) == 0 || len(buf)%blockdev.SectorSize != 0 {
		return fmt.Errorf("ceph: buffer not sector aligned")
	}
	if start < 0 || start+int64(len(buf))/blockdev.SectorSize > d.sectors {
		return blockdev.ErrOutOfRange
	}
	return nil
}
