package bmi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bolted/internal/blockdev"
	"bolted/internal/ceph"
)

func newBMI(t testing.TB) *Service {
	t.Helper()
	cluster, err := ceph.NewCluster(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return New(cluster)
}

func testSpec() OSImageSpec {
	return OSImageSpec{
		KernelID: "fedora28-4.17.9",
		Kernel:   bytes.Repeat([]byte("K"), 10_000),
		Initrd:   bytes.Repeat([]byte("I"), 5_000),
		Cmdline:  "root=/dev/sda ima_policy=tcb",
		RootFS:   bytes.Repeat([]byte("R"), 50_000),
	}
}

func TestImageLifecycle(t *testing.T) {
	s := newBMI(t)
	if _, err := s.CreateImage(context.Background(), "a", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateImage(context.Background(), "a", 1<<20); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := s.CreateImage(context.Background(), "bad", 100); err == nil {
		t.Fatal("unaligned size accepted")
	}
	imgs, _ := s.ListImages()
	if len(imgs) != 1 || imgs[0] != "a" {
		t.Fatalf("ListImages = %v", imgs)
	}
	if err := s.DeleteImage(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteImage(context.Background(), "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// TestOSImageBootInfo builds OS images whose parts end at and around
// sector boundaries: every part must come back byte for byte with
// len == cap, and the on-disk pad after its last byte must read as
// zeros up to the sector boundary.
func TestOSImageBootInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	type row struct {
		name string
		spec OSImageSpec
	}
	rows := []row{{"testSpec", testSpec()}}
	for _, n := range []int{1, 511, 512, 513, 4097} {
		rows = append(rows, row{fmt.Sprint(n), OSImageSpec{KernelID: "k", Kernel: bytesOf(n), Initrd: bytesOf(n), Cmdline: "c", RootFS: bytesOf(n)}})
	}
	rows = append(rows, row{"empty initrd", OSImageSpec{KernelID: "k", Kernel: bytesOf(513), Cmdline: "c", RootFS: bytesOf(4097)}})
	for _, r := range rows {
		spec := r.spec
		t.Run(r.name, func(t *testing.T) {
			s := newBMI(t)
			if _, err := s.CreateOSImage("fedora", spec); err != nil {
				t.Fatal(err)
			}
			bi, err := s.ExtractBootInfo(context.Background(), "fedora")
			if err != nil {
				t.Fatal(err)
			}
			if bi.KernelID != spec.KernelID || bi.Cmdline != spec.Cmdline {
				t.Fatalf("boot info = %+v", bi)
			}
			root, err := s.ReadRootFS("fedora")
			if err != nil {
				t.Fatal(err)
			}
			dev, _ := s.Device("fedora")
			m, err := readManifest(dev)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range []struct {
				name      string
				got, want []byte
				off       int64
			}{
				{"kernel", bi.Kernel, spec.Kernel, m.KernelOff},
				{"initrd", bi.Initrd, spec.Initrd, m.InitrdOff},
				{"rootfs", root, spec.RootFS, m.RootOff},
			} {
				if !bytes.Equal(part.got, part.want) || len(part.got) != cap(part.got) {
					t.Fatalf("%s: got %d bytes (cap %d), want %d bytes back exactly", part.name, len(part.got), cap(part.got), len(part.want))
				}
				end := part.off + int64(len(part.want))
				if end%blockdev.SectorSize == 0 {
					continue
				}
				last := make([]byte, blockdev.SectorSize)
				if err := dev.ReadSectors(last, end/blockdev.SectorSize); err != nil {
					t.Fatal(err)
				}
				if pad := last[end%blockdev.SectorSize:]; !bytes.Equal(pad, make([]byte, len(pad))) {
					t.Fatalf("%s: the %d-byte pad after its last byte is not zero", part.name, len(pad))
				}
			}
		})
	}
}

func TestOSImageValidation(t *testing.T) {
	s := newBMI(t)
	if _, err := s.CreateOSImage("x", OSImageSpec{KernelID: "k"}); err == nil {
		t.Fatal("kernel-less image accepted")
	}
	s.CreateImage(context.Background(), "raw", 1<<20)
	if _, err := s.ExtractBootInfo(context.Background(), "raw"); err == nil {
		t.Fatal("boot info from raw image accepted")
	}
	if _, err := s.ExtractBootInfo(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("boot info from missing image: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := newBMI(t)
	s.CreateOSImage("golden", testSpec())
	if _, err := s.CloneImage(context.Background(), "golden", "copy"); err != nil {
		t.Fatal(err)
	}
	// Mutate the clone; golden must be unaffected.
	dev, _ := s.Device("copy")
	junk := make([]byte, blockdev.SectorSize)
	for i := range junk {
		junk[i] = 0xFF
	}
	dev.WriteSectors(junk, 0)
	if _, err := s.ExtractBootInfo(context.Background(), "copy"); err == nil {
		t.Fatal("clobbered clone still parses")
	}
	if _, err := s.ExtractBootInfo(context.Background(), "golden"); err != nil {
		t.Fatalf("golden damaged by clone mutation: %v", err)
	}
	if _, err := s.CloneImage(context.Background(), "ghost", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("clone of missing: %v", err)
	}
	if _, err := s.CloneImage(context.Background(), "golden", "copy"); !errors.Is(err, ErrExists) {
		t.Fatalf("clone onto existing: %v", err)
	}
}

func TestSnapshotImmutable(t *testing.T) {
	s := newBMI(t)
	s.CreateOSImage("golden", testSpec())
	snap, err := s.SnapshotImage(context.Background(), "golden", "golden@v1")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Snapshot {
		t.Fatal("snapshot not marked")
	}
	if _, err := s.ExportForBoot(context.Background(), "node1", "golden@v1", false); err == nil {
		t.Fatal("read-write export of snapshot accepted")
	}
	if _, err := s.ExportForBoot(context.Background(), "node1", "golden@v1", true); err != nil {
		t.Fatalf("CoW export of snapshot rejected: %v", err)
	}
}

func TestExportCoWKeepsGoldenPristine(t *testing.T) {
	s := newBMI(t)
	s.CreateOSImage("golden", testSpec())
	e, err := s.ExportForBoot(context.Background(), "node1", "golden", true)
	if err != nil {
		t.Fatal(err)
	}
	// The node boots and writes through its NBD client.
	client, err := blockdev.NewClient(blockdev.Loopback{Target: e.Target}, blockdev.TunedReadAhead)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xEE}, 4*blockdev.SectorSize)
	if err := client.WriteSectors(junk, 0); err != nil {
		t.Fatal(err)
	}
	if e.DirtySectors() != 4 {
		t.Fatalf("dirty = %d, want 4", e.DirtySectors())
	}
	// Golden image unaffected.
	if _, err := s.ExtractBootInfo(context.Background(), "golden"); err != nil {
		t.Fatalf("golden image damaged by node writes: %v", err)
	}
	// Release without saving: nothing persists anywhere.
	if err := s.Unexport(context.Background(), "node1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetExport("node1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("export still present after unexport")
	}
}

func TestExportSaveState(t *testing.T) {
	s := newBMI(t)
	s.CreateOSImage("golden", testSpec())
	e, _ := s.ExportForBoot(context.Background(), "node1", "golden", true)
	client, _ := blockdev.NewClient(blockdev.Loopback{Target: e.Target}, 0)
	marker := bytes.Repeat([]byte{0xAB}, blockdev.SectorSize)
	stateSector := client.NumSectors() - 1
	if err := client.WriteSectors(marker, stateSector); err != nil {
		t.Fatal(err)
	}
	if err := s.Unexport(context.Background(), "node1", "node1-state"); err != nil {
		t.Fatal(err)
	}
	// The saved image contains golden + the node's write, and can boot
	// on any other node (elasticity: restart image on a compatible node).
	bi, err := s.ExtractBootInfo(context.Background(), "node1-state")
	if err != nil || bi.KernelID != "fedora28-4.17.9" {
		t.Fatalf("saved image boot info: %v", err)
	}
	e2, err := s.ExportForBoot(context.Background(), "node2", "node1-state", true)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := blockdev.NewClient(blockdev.Loopback{Target: e2.Target}, 0)
	got := make([]byte, blockdev.SectorSize)
	c2.ReadSectors(got, stateSector)
	if !bytes.Equal(got, marker) {
		t.Fatal("saved state not visible on restart")
	}
}

func TestExportExclusivity(t *testing.T) {
	s := newBMI(t)
	s.CreateOSImage("golden", testSpec())
	if _, err := s.ExportForBoot(context.Background(), "node1", "golden", true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportForBoot(context.Background(), "node1", "golden", true); !errors.Is(err, ErrInUse) {
		t.Fatalf("double export: %v", err)
	}
	if err := s.DeleteImage(context.Background(), "golden"); !errors.Is(err, ErrInUse) {
		t.Fatalf("delete of exported image: %v", err)
	}
	if _, err := s.ExportForBoot(context.Background(), "node2", "ghost", true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("export of missing image: %v", err)
	}
	if err := s.Unexport(context.Background(), "ghost", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unexport of missing: %v", err)
	}
	s.Unexport(context.Background(), "node1", "")
	if err := s.DeleteImage(context.Background(), "golden"); err != nil {
		t.Fatal(err)
	}
}

// The diskless-boot observation: a booting node touches a tiny fraction
// of the image.
func TestBootTouchesFractionOfImage(t *testing.T) {
	s := newBMI(t)
	spec := testSpec()
	spec.RootFS = bytes.Repeat([]byte("R"), 4<<20) // 4 MiB of rootfs
	s.CreateOSImage("golden", spec)
	e, _ := s.ExportForBoot(context.Background(), "node1", "golden", true)
	client, _ := blockdev.NewClient(blockdev.Loopback{Target: e.Target}, blockdev.DefaultReadAhead)

	// A boot reads the manifest area and the kernel+initrd, not the
	// whole rootfs.
	buf := make([]byte, 64<<10)
	client.ReadSectors(buf, 0)
	kb := make([]byte, 16<<10)
	client.ReadSectors(kb, (64<<10)/blockdev.SectorSize)

	img, _ := s.GetImage("golden")
	frac := float64(80<<10) / float64(img.Size)
	if frac > 0.05 {
		t.Fatalf("boot touched %.1f%% of image; diskless premise broken", frac*100)
	}
}
