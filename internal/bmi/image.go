package bmi

import (
	"context"
	"encoding/json"
	"fmt"

	"bolted/internal/blockdev"
)

// This file defines BMI's OS image layout and the boot-info extraction
// the paper describes: "BMI allows tenants to run scripts against a
// BMI-managed filesystem which we use to extract boot information
// (kernel, initramfs image and kernel command lines) from images so
// that they could be passed to a booting server in a secure way via
// Keylime."
//
// Layout: a JSON manifest padded to manifestBytes at image start, then
// the kernel, initrd and root filesystem at sector-aligned offsets.

const manifestBytes = 64 << 10

// OSImageSpec describes an operating-system image to build.
type OSImageSpec struct {
	KernelID string // human-readable kernel identity, e.g. "fedora28-4.17.9"
	Kernel   []byte
	Initrd   []byte
	Cmdline  string
	RootFS   []byte
}

// BootInfo is what Keylime delivers to an attested node.
type BootInfo struct {
	KernelID string
	Kernel   []byte
	Initrd   []byte
	Cmdline  string
}

// manifest is the on-image metadata block.
type manifest struct {
	Magic     string `json:"magic"`
	KernelID  string `json:"kernel_id"`
	Cmdline   string `json:"cmdline"`
	KernelOff int64  `json:"kernel_off"`
	KernelLen int64  `json:"kernel_len"`
	InitrdOff int64  `json:"initrd_off"`
	InitrdLen int64  `json:"initrd_len"`
	RootOff   int64  `json:"root_off"`
	RootLen   int64  `json:"root_len"`
}

const manifestMagic = "BMI-OS-IMAGE-V1"

func alignUp(n int64) int64 {
	const s = blockdev.SectorSize
	return (n + s - 1) / s * s
}

// writePadded writes data at a byte offset (must be sector aligned),
// padding the tail to a sector boundary. The whole sectors go down
// straight from data; only the last partial sector is staged, so no
// device ever sees a full-size copy of the kernel or root filesystem.
func writePadded(dev blockdev.Device, off int64, data []byte) error {
	const s = blockdev.SectorSize
	start, whole := off/s, len(data)/s*s
	if whole > 0 {
		if err := dev.WriteSectors(data[:whole], start); err != nil {
			return err
		}
	}
	if tail := data[whole:]; len(tail) > 0 {
		last := make([]byte, s)
		copy(last, tail)
		return dev.WriteSectors(last, start+int64(whole/s))
	}
	return nil
}

// CreateOSImage builds a bootable OS image from spec. The image is
// sized to fit its contents plus 25% slack for node writes.
func (s *Service) CreateOSImage(name string, spec OSImageSpec) (*Image, error) {
	if spec.KernelID == "" || len(spec.Kernel) == 0 {
		return nil, fmt.Errorf("bmi: OS image needs a kernel")
	}
	m := manifest{
		Magic:    manifestMagic,
		KernelID: spec.KernelID,
		Cmdline:  spec.Cmdline,
	}
	off := int64(manifestBytes)
	m.KernelOff, m.KernelLen = off, int64(len(spec.Kernel))
	off += alignUp(m.KernelLen)
	m.InitrdOff, m.InitrdLen = off, int64(len(spec.Initrd))
	off += alignUp(m.InitrdLen)
	m.RootOff, m.RootLen = off, int64(len(spec.RootFS))
	off += alignUp(m.RootLen)

	size := alignUp(off + off/4)
	img, err := s.CreateImage(context.Background(), name, size)
	if err != nil {
		return nil, err
	}
	dev, err := s.Device(name)
	if err != nil {
		return nil, err
	}
	enc, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if len(enc) > manifestBytes {
		return nil, fmt.Errorf("bmi: manifest too large")
	}
	mbuf := make([]byte, manifestBytes)
	copy(mbuf, enc)
	if err := dev.WriteSectors(mbuf, 0); err != nil {
		return nil, err
	}
	for _, part := range []struct {
		off  int64
		data []byte
	}{
		{m.KernelOff, spec.Kernel},
		{m.InitrdOff, spec.Initrd},
		{m.RootOff, spec.RootFS},
	} {
		if err := writePadded(dev, part.off, part.data); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// readManifest parses the manifest from an image device.
func readManifest(dev blockdev.Device) (*manifest, error) {
	raw := make([]byte, manifestBytes)
	if err := dev.ReadSectors(raw, 0); err != nil {
		return nil, err
	}
	end := len(raw)
	for end > 0 && raw[end-1] == 0 {
		end--
	}
	var m manifest
	if err := json.Unmarshal(raw[:end], &m); err != nil {
		return nil, fmt.Errorf("bmi: image has no OS manifest: %w", err)
	}
	if m.Magic != manifestMagic {
		return nil, fmt.Errorf("bmi: bad manifest magic %q", m.Magic)
	}
	return &m, nil
}

// readExtent reads a byte extent from sector-aligned storage in one
// read of its whole sectors. The returned slice is exactly length bytes
// long and capped there, so the tail padding behind it (less than one
// sector) is never visible to the caller.
func readExtent(dev blockdev.Device, off, length int64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	buf := make([]byte, alignUp(length))
	if err := dev.ReadSectors(buf, off/blockdev.SectorSize); err != nil {
		return nil, err
	}
	return buf[:length:length], nil
}

// ExtractBootInfo reads the kernel, initrd and command line out of an
// OS image without booting it.
func (s *Service) ExtractBootInfo(ctx context.Context, image string) (*BootInfo, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	dev, err := s.Device(image)
	if err != nil {
		return nil, err
	}
	m, err := readManifest(dev)
	if err != nil {
		return nil, err
	}
	kernel, err := readExtent(dev, m.KernelOff, m.KernelLen)
	if err != nil {
		return nil, err
	}
	initrd, err := readExtent(dev, m.InitrdOff, m.InitrdLen)
	if err != nil {
		return nil, err
	}
	return &BootInfo{
		KernelID: m.KernelID,
		Kernel:   kernel,
		Initrd:   initrd,
		Cmdline:  m.Cmdline,
	}, nil
}

// ReadRootFS returns an image's root filesystem payload (test hook and
// workload substrate).
func (s *Service) ReadRootFS(image string) ([]byte, error) {
	dev, err := s.Device(image)
	if err != nil {
		return nil, err
	}
	m, err := readManifest(dev)
	if err != nil {
		return nil, err
	}
	return readExtent(dev, m.RootOff, m.RootLen)
}
