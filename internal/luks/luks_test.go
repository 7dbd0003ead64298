package luks

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"bolted/internal/blockdev"
)

// PBKDF2-HMAC-SHA256 known-answer vectors (RFC 7914 §11).
func TestPBKDF2Vectors(t *testing.T) {
	cases := []struct {
		pass, salt string
		iter       int
		want       string
	}{
		{"passwd", "salt", 1, "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"},
		{"Password", "NaCl", 80000, "4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56"},
	}
	for _, tc := range cases {
		got := pbkdf2SHA256([]byte(tc.pass), []byte(tc.salt), tc.iter, 32)
		want, _ := hex.DecodeString(tc.want)
		if !bytes.Equal(got, want) {
			t.Errorf("pbkdf2(%q,%q,%d) = %x, want %x", tc.pass, tc.salt, tc.iter, got, want)
		}
	}
}

func TestPBKDF2LongOutput(t *testing.T) {
	// Multi-block derivation: prefix property.
	short := pbkdf2SHA256([]byte("p"), []byte("s"), 10, 32)
	long := pbkdf2SHA256([]byte("p"), []byte("s"), 10, 80)
	if !bytes.Equal(long[:32], short) {
		t.Fatal("longer derivation does not extend shorter one")
	}
	if len(long) != 80 {
		t.Fatalf("len = %d", len(long))
	}
}

func newDisk(t testing.TB, size int64) *blockdev.RAMDisk {
	t.Helper()
	d, err := blockdev.NewRAMDisk(size)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func format(t testing.TB, dev blockdev.Device, pass string) *Volume {
	t.Helper()
	v, err := FormatWithIterations(dev, []byte(pass), 16) // fast KDF for tests
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFormatOpenRoundTrip(t *testing.T) {
	disk := newDisk(t, 1<<20)
	v := format(t, disk, "tenant-secret")
	data := bytes.Repeat([]byte("confidential"), 128)[:2*blockdev.SectorSize]
	if err := v.WriteSectors(data, 7); err != nil {
		t.Fatal(err)
	}
	// Reopen with the right passphrase.
	v2, err := Open(disk, []byte("tenant-secret"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v2.ReadSectors(got, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reopened volume lost data")
	}
}

func TestWrongPassphraseFails(t *testing.T) {
	disk := newDisk(t, 1<<20)
	format(t, disk, "right")
	if _, err := Open(disk, []byte("wrong")); !errors.Is(err, ErrNoMatchingKey) {
		t.Fatalf("err = %v, want ErrNoMatchingKey", err)
	}
}

func TestUnformattedRejected(t *testing.T) {
	disk := newDisk(t, 1<<20)
	if _, err := Open(disk, []byte("x")); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("err = %v, want ErrNotFormatted", err)
	}
	tiny := newDisk(t, 4*blockdev.SectorSize)
	if _, err := Open(tiny, []byte("x")); err == nil {
		t.Fatal("tiny device accepted")
	}
}

func TestCiphertextOnDisk(t *testing.T) {
	disk := newDisk(t, 1<<20)
	v := format(t, disk, "pw")
	plain := bytes.Repeat([]byte("SECRETDATA"), 52)[:blockdev.SectorSize]
	v.WriteSectors(plain, 0)
	// The raw device must never contain the plaintext.
	raw := make([]byte, 1<<20)
	disk.ReadSectors(raw, 0)
	if bytes.Contains(raw, []byte("SECRETDATA")) {
		t.Fatal("plaintext visible on underlying device")
	}
}

func TestEqualSectorsEncryptDifferently(t *testing.T) {
	disk := newDisk(t, 1<<20)
	v := format(t, disk, "pw")
	sector := bytes.Repeat([]byte{0xAA}, blockdev.SectorSize)
	v.WriteSectors(sector, 0)
	v.WriteSectors(sector, 1)
	a := make([]byte, blockdev.SectorSize)
	b := make([]byte, blockdev.SectorSize)
	disk.ReadSectors(a, headerSectors)
	disk.ReadSectors(b, headerSectors+1)
	if bytes.Equal(a, b) {
		t.Fatal("identical plaintext sectors produced identical ciphertext (tweak broken)")
	}
}

func TestAddRemoveKey(t *testing.T) {
	disk := newDisk(t, 1<<20)
	v := format(t, disk, "alpha")
	data := make([]byte, blockdev.SectorSize)
	copy(data, "payload")
	v.WriteSectors(data, 0)

	if err := AddKey(disk, []byte("alpha"), []byte("beta")); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(disk, []byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.SectorSize)
	v2.ReadSectors(got, 0)
	if !bytes.Equal(got, data) {
		t.Fatal("second passphrase sees different data")
	}

	if err := AddKey(disk, []byte("nope"), []byte("x")); !errors.Is(err, ErrNoMatchingKey) {
		t.Fatalf("AddKey with wrong passphrase: %v", err)
	}

	if err := RemoveKey(disk, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(disk, []byte("alpha")); !errors.Is(err, ErrNoMatchingKey) {
		t.Fatal("removed passphrase still opens")
	}
	if _, err := Open(disk, []byte("beta")); err != nil {
		t.Fatal("surviving passphrase no longer opens")
	}
	if err := RemoveKey(disk, []byte("alpha")); !errors.Is(err, ErrNoMatchingKey) {
		t.Fatalf("removing non-existent key: %v", err)
	}
}

func TestSlotsFill(t *testing.T) {
	disk := newDisk(t, 1<<20)
	format(t, disk, "p0")
	for i := 1; i < NumSlots; i++ {
		if err := AddKey(disk, []byte("p0"), []byte{byte('p'), byte('0' + i)}); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	if err := AddKey(disk, []byte("p0"), []byte("overflow")); !errors.Is(err, ErrSlotsFull) {
		t.Fatalf("9th key: %v, want ErrSlotsFull", err)
	}
}

func TestOpenWithMasterKey(t *testing.T) {
	disk := newDisk(t, 1<<20)
	mk := make([]byte, MasterKeySize)
	for i := range mk {
		mk[i] = byte(i)
	}
	// Keylime-style: format normally, then recover the master key via
	// passphrase and re-open with it directly.
	v := format(t, disk, "pw")
	data := make([]byte, blockdev.SectorSize)
	copy(data, "keylime delivered")
	v.WriteSectors(data, 3)

	h, err := readHeader(disk)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := unsealKey([]byte("pw"), h.Slots[0])
	if err != nil {
		t.Fatal(err)
	}
	v2, err := OpenWithMasterKey(disk, recovered)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.SectorSize)
	v2.ReadSectors(got, 3)
	if !bytes.Equal(got, data) {
		t.Fatal("master-key open sees different data")
	}
	if _, err := OpenWithMasterKey(disk, mk); err == nil {
		t.Fatal("wrong master key accepted")
	}
}

func TestVolumeBounds(t *testing.T) {
	disk := newDisk(t, 64*blockdev.SectorSize)
	v := format(t, disk, "pw")
	want := int64(64 - headerSectors)
	if v.NumSectors() != want {
		t.Fatalf("NumSectors = %d, want %d", v.NumSectors(), want)
	}
	buf := make([]byte, blockdev.SectorSize)
	if err := v.ReadSectors(buf, want); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := v.WriteSectors(buf, -1); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("negative write: %v", err)
	}
	if err := v.ReadSectors(make([]byte, 10), 0); err == nil {
		t.Fatal("unaligned read accepted")
	}
}

func TestVolumeOverNBD(t *testing.T) {
	// LUKS over the network block device: the Figure 3c "LUKS" stack.
	disk := newDisk(t, 1<<20)
	client, err := blockdev.NewClient(blockdev.Loopback{Target: blockdev.NewTarget(disk)}, blockdev.TunedReadAhead)
	if err != nil {
		t.Fatal(err)
	}
	v, err := FormatWithIterations(client, []byte("pw"), 16)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{3}, 8*blockdev.SectorSize)
	if err := v.WriteSectors(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.ReadSectors(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("LUKS-over-NBD mismatch")
	}
}

// Property: arbitrary write/read sequences round-trip.
func TestQuickVolumeRoundTrip(t *testing.T) {
	disk := newDisk(t, 256*blockdev.SectorSize)
	v := format(t, disk, "pw")
	n := v.NumSectors()
	f := func(sector uint16, content [blockdev.SectorSize]byte) bool {
		s := int64(sector) % n
		if err := v.WriteSectors(content[:], s); err != nil {
			return false
		}
		got := make([]byte, blockdev.SectorSize)
		if err := v.ReadSectors(got, s); err != nil {
			return false
		}
		return bytes.Equal(got, content[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentVolumeIO hammers one volume from many goroutines on
// disjoint ranges; run under -race this proves the shared cipher and
// the staging-buffer pool hold no unsynchronized state.
func TestConcurrentVolumeIO(t *testing.T) {
	disk := newDisk(t, 4<<20)
	v := format(t, disk, "pw")
	const goroutines = 4
	const spanSectors = 256
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := int64(g * spanSectors)
			data := make([]byte, spanSectors*blockdev.SectorSize)
			rand.New(rand.NewSource(int64(g))).Read(data)
			for iter := 0; iter < 3; iter++ {
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
					errs[g] = errors.New("round-trip mismatch")
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
}

// TestOpensVolumeWrittenByEarlierXTS pins the on-disk format across XTS
// rewrites: testdata/parent-volume.img was formatted (passphrase
// "parent-tree", 4 PBKDF2 iterations) and written with 8 KiB of a fixed
// pattern at data sector 0 by the per-block XTS loop that preceded the
// batched one. Today's code must read the pattern back, and writing it
// again under the same master key must reproduce the image byte for byte.
func TestOpensVolumeWrittenByEarlierXTS(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "parent-volume.img"))
	if err != nil {
		t.Fatal(err)
	}
	disk, err := blockdev.NewRAMDisk(int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.WriteSectors(img, 0); err != nil {
		t.Fatal(err)
	}
	v, err := Open(disk, []byte("parent-tree"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8<<10)
	for i := range want {
		want[i] = byte(i*31 + i>>9)
	}
	got := make([]byte, len(want))
	if err := v.ReadSectors(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("volume written by the earlier XTS loop decrypts to different bytes")
	}
	if err := v.WriteSectors(want, 0); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, len(img))
	if err := disk.ReadSectors(raw, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, img) {
		t.Fatal("re-encrypting the same data changed the on-disk ciphertext")
	}
}
