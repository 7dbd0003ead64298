// Package bmi implements the Bare Metal Imaging provisioning service
// (§5): disk images stored in the Ceph-like object store, image clone
// and snapshot, and diskless boot — each node is exported an iSCSI-like
// target backed by a copy-on-write view of a golden image, so nodes are
// stateless, releases leave nothing behind on the node, and a booting
// server fetches only the fraction of the image it actually touches.
package bmi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bolted/internal/blockdev"
	"bolted/internal/ceph"
)

// Common errors.
var (
	ErrNotFound = errors.New("bmi: not found")
	ErrExists   = errors.New("bmi: already exists")
	ErrInUse    = errors.New("bmi: in use")
)

// ctxErr refuses to start an image or export mutation after the caller
// has given up: a cancelled provisioning batch must not leak half-made
// images or dangling exports.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("bmi: %w", err)
	}
	return nil
}

// Image is a named disk image.
type Image struct {
	Name     string `json:"name"`
	Size     int64  `json:"size"`
	Snapshot bool   `json:"snapshot"` // snapshots are immutable
	prefix   string
}

// Export is an active per-node boot target.
type Export struct {
	Node   string
	Image  string
	Target *blockdev.Target

	overlay *blockdev.Overlay // nil when exported read-write without CoW
}

// DirtySectors reports how much of the image the node has written —
// with CoW exports this also bounds how much it has paged in for
// modification (the "<1% of the image is typically used" observation).
func (e *Export) DirtySectors() int64 {
	if e.overlay == nil {
		return 0
	}
	return e.overlay.DirtySectors()
}

// Service is the BMI API. Safe for concurrent use.
type Service struct {
	cluster *ceph.Cluster

	mu      sync.Mutex
	images  map[string]*Image
	exports map[string]*Export // keyed by node
}

// New creates a BMI service over an object-store cluster.
func New(cluster *ceph.Cluster) *Service {
	return &Service{
		cluster: cluster,
		images:  make(map[string]*Image),
		exports: make(map[string]*Export),
	}
}

func (s *Service) prefixFor(name string) string { return "img-" + name }

// CreateImage allocates an empty image of the given byte size.
func (s *Service) CreateImage(ctx context.Context, name string, size int64) (*Image, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.images[name]; ok {
		return nil, fmt.Errorf("%w: image %q", ErrExists, name)
	}
	if size <= 0 || size%blockdev.SectorSize != 0 {
		return nil, fmt.Errorf("bmi: size %d not a positive sector multiple", size)
	}
	img := &Image{Name: name, Size: size, prefix: s.prefixFor(name)}
	s.images[name] = img
	return img, nil
}

// Device opens a block view of an image (internal and test use; booting
// nodes go through ExportForBoot).
func (s *Service) Device(name string) (blockdev.Device, error) {
	s.mu.Lock()
	img, ok := s.images[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: image %q", ErrNotFound, name)
	}
	return ceph.NewImageDevice(s.cluster, img.prefix, img.Size)
}

// CloneImage copies src's objects into a new image dst (BMI "clone").
func (s *Service) CloneImage(ctx context.Context, src, dst string) (*Image, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	srcImg, ok := s.images[src]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: image %q", ErrNotFound, src)
	}
	if _, ok := s.images[dst]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: image %q", ErrExists, dst)
	}
	dstImg := &Image{Name: dst, Size: srcImg.Size, prefix: s.prefixFor(dst)}
	s.images[dst] = dstImg
	s.mu.Unlock()
	if err := s.cluster.CopyPrefix(srcImg.prefix, dstImg.prefix); err != nil {
		return nil, err
	}
	return dstImg, nil
}

// SnapshotImage creates an immutable snapshot of an image.
func (s *Service) SnapshotImage(ctx context.Context, src, snap string) (*Image, error) {
	img, err := s.CloneImage(ctx, src, snap)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	img.Snapshot = true
	s.mu.Unlock()
	return img, nil
}

// DeleteImage removes an image and its objects; it fails while any node
// has the image exported.
func (s *Service) DeleteImage(ctx context.Context, name string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	img, ok := s.images[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: image %q", ErrNotFound, name)
	}
	for _, e := range s.exports {
		if e.Image == name {
			s.mu.Unlock()
			return fmt.Errorf("%w: image %q exported to node %q", ErrInUse, name, e.Node)
		}
	}
	delete(s.images, name)
	s.mu.Unlock()
	s.cluster.DeletePrefix(img.prefix + ".")
	return nil
}

// ListImages returns image names, sorted. The error return exists for
// remote implementations of the same surface; the in-process service
// never fails.
func (s *Service) ListImages() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name := range s.images {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// GetImage looks up an image.
func (s *Service) GetImage(name string) (*Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.images[name]
	if !ok {
		return nil, fmt.Errorf("%w: image %q", ErrNotFound, name)
	}
	cp := *img
	return &cp, nil
}

// ExportForBoot creates the node's boot target. With cow=true (the
// normal diskless mode) node writes land in a discardable overlay and
// the golden image stays pristine; cow=false exports the image
// read-write (e.g. for image preparation). A node can hold only one
// export at a time.
func (s *Service) ExportForBoot(ctx context.Context, node, image string, cow bool) (*Export, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.exports[node]; ok {
		return nil, fmt.Errorf("%w: node %q already has an export", ErrInUse, node)
	}
	img, ok := s.images[image]
	if !ok {
		return nil, fmt.Errorf("%w: image %q", ErrNotFound, image)
	}
	if img.Snapshot && !cow {
		return nil, fmt.Errorf("bmi: snapshot %q is immutable; export with cow", image)
	}
	dev, err := ceph.NewImageDevice(s.cluster, img.prefix, img.Size)
	if err != nil {
		return nil, err
	}
	e := &Export{Node: node, Image: image}
	if cow {
		e.overlay = blockdev.NewOverlay(dev)
		e.Target = blockdev.NewTarget(e.overlay)
	} else {
		e.Target = blockdev.NewTarget(dev)
	}
	s.exports[node] = e
	return e, nil
}

// GetExport returns a node's active export.
func (s *Service) GetExport(node string) (*Export, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.exports[node]
	if !ok {
		return nil, fmt.Errorf("%w: no export for node %q", ErrNotFound, node)
	}
	return e, nil
}

// Unexport tears down a node's boot target. With saveAs non-empty the
// node's CoW state is persisted as a new image (shutdown + later
// restart on any compatible node — the elasticity property); otherwise
// the overlay is discarded and no node state survives.
func (s *Service) Unexport(ctx context.Context, node, saveAs string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	e, ok := s.exports[node]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: no export for node %q", ErrNotFound, node)
	}
	delete(s.exports, node)
	img := s.images[e.Image]
	s.mu.Unlock()

	if saveAs == "" || e.overlay == nil {
		if e.overlay != nil {
			e.overlay.Discard()
		}
		return nil
	}
	// Persist: clone the golden image, then apply the overlay's dirty
	// sectors on top.
	saved, err := s.CloneImage(ctx, e.Image, saveAs)
	if err != nil {
		return err
	}
	dst, err := ceph.NewImageDevice(s.cluster, saved.prefix, img.Size)
	if err != nil {
		return err
	}
	buf := make([]byte, blockdev.SectorSize)
	for _, sec := range e.overlay.DirtyList() {
		if err := e.overlay.ReadSectors(buf, sec); err != nil {
			return err
		}
		if err := dst.WriteSectors(buf, sec); err != nil {
			return err
		}
	}
	e.overlay.Discard()
	return nil
}
