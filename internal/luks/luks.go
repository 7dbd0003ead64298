// Package luks implements a LUKS-style encrypted block container over
// any blockdev.Device, the disk-encryption layer Bolted tenants use so
// persistent state is unreadable by the provider or subsequent tenants
// (§5, §6). It follows the paper's cryptsetup configuration:
// AES-256-XTS sector encryption ("aes-xts-plain64") with
// passphrase-derived key slots, and — like LUKS2 — stores its metadata
// header as structured text.
//
// A Volume presents the data area as a blockdev.Device, so it stacks
// under filesystems and over RAM disks, CoW overlays, or network block
// devices interchangeably; Figure 3a measures exactly this stack.
package luks

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"bolted/internal/blockdev"
	"bolted/internal/xts"
)

const (
	// headerBytes reserves space at the device start for metadata.
	headerBytes   = 16 << 10
	headerSectors = headerBytes / blockdev.SectorSize

	magic = "BOLTED-LUKS\x00"

	// MasterKeySize is the XTS-AES-256 double-length key.
	MasterKeySize = 64

	// DefaultIterations balances unlock latency against brute force in
	// simulation; real cryptsetup benchmarks the host.
	DefaultIterations = 4096

	// NumSlots is the number of key slots (LUKS1 layout).
	NumSlots = 8
)

var (
	// ErrNoMatchingKey means no key slot opened with the passphrase.
	ErrNoMatchingKey = errors.New("luks: no key slot matches passphrase")
	// ErrNotFormatted means the device carries no LUKS header.
	ErrNotFormatted = errors.New("luks: device is not LUKS formatted")
	// ErrSlotsFull means all key slots are occupied.
	ErrSlotsFull = errors.New("luks: all key slots in use")
)

// slot is one passphrase binding of the master key.
type slot struct {
	Active bool   `json:"active"`
	Salt   []byte `json:"salt,omitempty"`
	Iter   int    `json:"iter,omitempty"`
	Nonce  []byte `json:"nonce,omitempty"`
	Sealed []byte `json:"sealed,omitempty"` // AES-GCM(kdf(pass), masterKey)
}

// header is the on-disk metadata.
type header struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	UUID     string          `json:"uuid"`
	Cipher   string          `json:"cipher"`
	MKSalt   []byte          `json:"mk_salt"`
	MKIter   int             `json:"mk_iter"`
	MKDigest []byte          `json:"mk_digest"` // PBKDF2(masterKey) for verification
	Slots    [NumSlots]*slot `json:"slots"`
}

func randBytes(n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		panic("luks: entropy source failed: " + err.Error())
	}
	return b
}

// sealKey encrypts the master key under a passphrase-derived key.
func sealKey(pass, masterKey []byte, iter int) (*slot, error) {
	s := &slot{Active: true, Salt: randBytes(32), Iter: iter}
	derived := pbkdf2SHA256(pass, s.Salt, iter, 32)
	block, err := aes.NewCipher(derived)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	s.Nonce = randBytes(aead.NonceSize())
	s.Sealed = aead.Seal(nil, s.Nonce, masterKey, nil)
	return s, nil
}

// unsealKey attempts to recover the master key from a slot.
func unsealKey(pass []byte, s *slot) ([]byte, error) {
	derived := pbkdf2SHA256(pass, s.Salt, s.Iter, 32)
	block, err := aes.NewCipher(derived)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return aead.Open(nil, s.Nonce, s.Sealed, nil)
}

func (h *header) digestOK(masterKey []byte) bool {
	want := pbkdf2SHA256(masterKey, h.MKSalt, h.MKIter, 32)
	return hmac.Equal(want, h.MKDigest)
}

func readHeader(dev blockdev.Device) (*header, error) {
	if dev.NumSectors() <= headerSectors {
		return nil, errors.New("luks: device too small for header")
	}
	raw := make([]byte, headerBytes)
	if err := dev.ReadSectors(raw, 0); err != nil {
		return nil, err
	}
	// Trim zero padding before JSON decode.
	end := len(raw)
	for end > 0 && raw[end-1] == 0 {
		end--
	}
	var h header
	if err := json.Unmarshal(raw[:end], &h); err != nil {
		return nil, ErrNotFormatted
	}
	if h.Magic != magic {
		return nil, ErrNotFormatted
	}
	return &h, nil
}

func writeHeader(dev blockdev.Device, h *header) error {
	enc, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if len(enc) > headerBytes {
		return fmt.Errorf("luks: header %d bytes exceeds reserved %d", len(enc), headerBytes)
	}
	raw := make([]byte, headerBytes)
	copy(raw, enc)
	return dev.WriteSectors(raw, 0)
}

// Format initializes a LUKS container on dev with a fresh random master
// key bound to passphrase in slot 0, then returns the opened volume.
// All previous data becomes unreachable.
func Format(dev blockdev.Device, passphrase []byte) (*Volume, error) {
	return FormatWithIterations(dev, passphrase, DefaultIterations)
}

// FormatWithIterations is Format with an explicit PBKDF2 cost.
func FormatWithIterations(dev blockdev.Device, passphrase []byte, iter int) (*Volume, error) {
	if iter < 1 {
		return nil, errors.New("luks: iterations must be positive")
	}
	masterKey := randBytes(MasterKeySize)
	h := &header{
		Magic:   magic,
		Version: 1,
		UUID:    hex.EncodeToString(randBytes(16)),
		Cipher:  "aes-xts-plain64",
		MKSalt:  randBytes(32),
		MKIter:  iter,
	}
	h.MKDigest = pbkdf2SHA256(masterKey, h.MKSalt, iter, 32)
	s, err := sealKey(passphrase, masterKey, iter)
	if err != nil {
		return nil, err
	}
	h.Slots[0] = s
	if err := writeHeader(dev, h); err != nil {
		return nil, err
	}
	return newVolume(dev, h, masterKey)
}

// Open unlocks a LUKS container by trying the passphrase against every
// active key slot.
func Open(dev blockdev.Device, passphrase []byte) (*Volume, error) {
	h, err := readHeader(dev)
	if err != nil {
		return nil, err
	}
	for _, s := range h.Slots {
		if s == nil || !s.Active {
			continue
		}
		mk, err := unsealKey(passphrase, s)
		if err != nil {
			continue
		}
		if !h.digestOK(mk) {
			continue
		}
		return newVolume(dev, h, mk)
	}
	return nil, ErrNoMatchingKey
}

// OpenWithMasterKey unlocks the container directly with the master key —
// the path Keylime uses when it delivers the volume key to an attested
// node (no passphrase typed on a cloud server).
func OpenWithMasterKey(dev blockdev.Device, masterKey []byte) (*Volume, error) {
	h, err := readHeader(dev)
	if err != nil {
		return nil, err
	}
	if !h.digestOK(masterKey) {
		return nil, errors.New("luks: master key digest mismatch")
	}
	return newVolume(dev, h, masterKey)
}

// AddKey binds an additional passphrase to the container (requires an
// existing passphrase).
func AddKey(dev blockdev.Device, existing, added []byte) error {
	h, err := readHeader(dev)
	if err != nil {
		return err
	}
	var mk []byte
	for _, s := range h.Slots {
		if s == nil || !s.Active {
			continue
		}
		if k, err := unsealKey(existing, s); err == nil && h.digestOK(k) {
			mk = k
			break
		}
	}
	if mk == nil {
		return ErrNoMatchingKey
	}
	for i, s := range h.Slots {
		if s == nil || !s.Active {
			ns, err := sealKey(added, mk, h.MKIter)
			if err != nil {
				return err
			}
			h.Slots[i] = ns
			return writeHeader(dev, h)
		}
	}
	return ErrSlotsFull
}

// RemoveKey deactivates every slot the passphrase opens.
func RemoveKey(dev blockdev.Device, passphrase []byte) error {
	h, err := readHeader(dev)
	if err != nil {
		return err
	}
	removed := false
	for i, s := range h.Slots {
		if s == nil || !s.Active {
			continue
		}
		if k, err := unsealKey(passphrase, s); err == nil && h.digestOK(k) {
			h.Slots[i] = &slot{Active: false}
			removed = true
		}
	}
	if !removed {
		return ErrNoMatchingKey
	}
	return writeHeader(dev, h)
}

// Volume is an unlocked LUKS container. It implements blockdev.Device
// over the data area, transparently encrypting with XTS-AES-256 using
// the data-area sector number as tweak (plain64).
type Volume struct {
	dev    blockdev.Device
	cipher *xts.Cipher
	uuid   string

	// bufs recycles WriteSectors ciphertext staging buffers.
	bufs sync.Pool
}

func newVolume(dev blockdev.Device, h *header, masterKey []byte) (*Volume, error) {
	c, err := xts.NewCipher(aes.NewCipher, masterKey)
	if err != nil {
		return nil, err
	}
	return &Volume{dev: dev, cipher: c, uuid: h.UUID}, nil
}

// UUID returns the container UUID.
func (v *Volume) UUID() string { return v.uuid }

// cryptSpan encrypts or decrypts a whole sector span. dst may alias src.
func (v *Volume) cryptSpan(dst, src []byte, firstSector uint64, encrypt bool) error {
	m := sealMetricsNow()
	m.batchSectors.Observe(float64(len(src) / blockdev.SectorSize))
	if encrypt {
		m.sealedBytes.Add(float64(len(src)))
		return v.cipher.EncryptSectors(dst, src, blockdev.SectorSize, firstSector)
	}
	m.unsealedBytes.Add(float64(len(src)))
	return v.cipher.DecryptSectors(dst, src, blockdev.SectorSize, firstSector)
}

// NumSectors implements Device (data area only).
func (v *Volume) NumSectors() int64 { return v.dev.NumSectors() - headerSectors }

// ReadSectors implements Device, decrypting the span in place.
func (v *Volume) ReadSectors(dst []byte, start int64) error {
	if len(dst) == 0 || len(dst)%blockdev.SectorSize != 0 {
		return errors.New("luks: buffer not sector aligned")
	}
	if start < 0 || start+int64(len(dst)/blockdev.SectorSize) > v.NumSectors() {
		return blockdev.ErrOutOfRange
	}
	if err := v.dev.ReadSectors(dst, start+headerSectors); err != nil {
		return err
	}
	return v.cryptSpan(dst, dst, uint64(start), false)
}

// WriteSectors implements Device, encrypting into pooled staging
// buffers before handing the ciphertext to the underlying device.
//
// A span of up to one piece is encrypted and stored in one call. A
// longer span goes down as consecutive pieces, in order, with at most
// one in flight: XTS encrypts piece i+1 into the second of two staging
// buffers while a goroutine stores piece i, so the cipher and the device
// each keep one CPU busy. The call returns once every piece is stored,
// or with the first error; no piece after a failed one is sent. Such a
// write is therefore not atomic against a concurrent reader of the same
// range, which may see its first pieces new and the rest old — as with
// a multi-sector write to a real disk, or dm-crypt splitting a bio.
func (v *Volume) WriteSectors(src []byte, start int64) error {
	if len(src) == 0 || len(src)%blockdev.SectorSize != 0 {
		return errors.New("luks: buffer not sector aligned")
	}
	if start < 0 || start+int64(len(src)/blockdev.SectorSize) > v.NumSectors() {
		return blockdev.ErrOutOfRange
	}
	if len(src) > pieceBytes {
		return v.writePieces(src, start)
	}
	bp := v.staging(len(src))
	defer v.bufs.Put(bp)
	buf := (*bp)[:len(src)]
	if err := v.cryptSpan(buf, src, uint64(start), true); err != nil {
		return err
	}
	return v.dev.WriteSectors(buf, start+headerSectors)
}

// pieceBytes is how much of a long write is encrypted while the device
// stores the piece before it. 128 KiB and 512 KiB write at about the
// same rate over IPsec to Ceph; each piece costs one round trip.
const pieceBytes = 256 << 10

// writePieces is WriteSectors for a span longer than one piece.
func (v *Volume) writePieces(src []byte, start int64) error {
	bufs := [2]*[]byte{v.staging(pieceBytes), v.staging(pieceBytes)}
	defer v.bufs.Put(bufs[0])
	defer v.bufs.Put(bufs[1])
	stored := make(chan error, 1) // the result of the piece in flight
	for i, off := 0, 0; ; i, off = i+1, off+pieceBytes {
		n := min(pieceBytes, len(src)-off)
		buf := (*bufs[i%2])[:n]
		sector := start + int64(off/blockdev.SectorSize)
		err := v.cryptSpan(buf, src[off:off+n], uint64(sector), true)
		// Piece i-1 must be stored before piece i is sent, and before
		// its buffer takes piece i+1.
		if i > 0 {
			if e := <-stored; e != nil {
				err = e
			}
		}
		if err != nil {
			return err
		}
		if off+n == len(src) {
			return v.dev.WriteSectors(buf, sector+headerSectors)
		}
		go func() { stored <- v.dev.WriteSectors(buf, sector+headerSectors) }()
	}
}

// staging returns a pooled buffer of at least n bytes.
func (v *Volume) staging(n int) *[]byte {
	bp, _ := v.bufs.Get().(*[]byte)
	if bp == nil || cap(*bp) < n {
		b := make([]byte, n)
		bp = &b
	}
	return bp
}
