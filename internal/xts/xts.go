// Package xts implements the XTS-AES mode of operation (IEEE P1619),
// the sector cipher used by LUKS/dm-crypt with the aes-xts-plain64
// specification. The Go standard library provides no XTS mode, so Bolted's
// LUKS substrate implements it here over crypto/aes.
//
// XTS uses two independent AES keys: one for data blocks, one to encrypt
// the sector number into the initial tweak. Each 16-byte block within a
// sector is whitened with the tweak before and after the block cipher, and
// the tweak is multiplied by alpha in GF(2^128) between blocks, so equal
// plaintext blocks at different positions produce unrelated ciphertext.
//
// Only whole-block sectors are supported (ciphertext stealing is not
// implemented); disk sectors are 512 or 4096 bytes, always a multiple of
// the AES block size.
package xts

import (
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
)

const blockSize = 16

// BlockProcessor is implemented by block ciphers that can encrypt or
// decrypt several contiguous 16-byte blocks per call (softaes provides
// it). When the data cipher implements it, the batched sector API below
// hands it whole sectors at a time instead of one block per call.
type BlockProcessor interface {
	EncryptBlocks(dst, src []byte)
	DecryptBlocks(dst, src []byte)
}

// Cipher is an XTS-AES tweakable cipher over sectors. A Cipher holds no
// per-call state and is safe for concurrent use.
type Cipher struct {
	data  cipher.Block   // K1: encrypts data blocks
	tweak cipher.Block   // K2: encrypts the sector number
	multi BlockProcessor // non-nil when data supports batched blocks
}

// NewCipher creates an XTS cipher from a double-length key: the first
// half keys the data cipher, the second half the tweak cipher, matching
// the dm-crypt aes-xts key layout. Supported lengths are 32 (XTS-AES-128)
// and 64 (XTS-AES-256) bytes. The mkBlock function constructs the
// underlying block cipher (e.g. aes.NewCipher).
func NewCipher(mkBlock func(key []byte) (cipher.Block, error), key []byte) (*Cipher, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, errors.New("xts: key must be 32 or 64 bytes (double-length)")
	}
	half := len(key) / 2
	data, err := mkBlock(key[:half])
	if err != nil {
		return nil, err
	}
	tweak, err := mkBlock(key[half:])
	if err != nil {
		return nil, err
	}
	if data.BlockSize() != blockSize || tweak.BlockSize() != blockSize {
		return nil, errors.New("xts: underlying cipher must have 16-byte blocks")
	}
	c := &Cipher{data: data, tweak: tweak}
	c.multi, _ = data.(BlockProcessor)
	return c, nil
}

// EncryptSector encrypts plaintext into dst for the given sector number.
// dst and plaintext must have equal length, a positive multiple of 16
// bytes. dst may alias plaintext.
func (c *Cipher) EncryptSector(dst, plaintext []byte, sectorNum uint64) error {
	return c.processSectors(dst, plaintext, len(plaintext), sectorNum, true)
}

// DecryptSector decrypts ciphertext into dst for the given sector number.
func (c *Cipher) DecryptSector(dst, ciphertext []byte, sectorNum uint64) error {
	return c.processSectors(dst, ciphertext, len(ciphertext), sectorNum, false)
}

// tweakChunkBlocks bounds the per-chunk tweak scratch: 256 blocks covers
// a whole 4 KiB sector per inner pass while keeping the buffer on the
// stack.
const tweakChunkBlocks = 256

// EncryptSectors encrypts a span of consecutive sectors in one call:
// len(src) must be a positive multiple of sectorSize (itself a positive
// multiple of 16), and sector numbers run firstSector, firstSector+1, …
// dst may alias src.
func (c *Cipher) EncryptSectors(dst, src []byte, sectorSize int, firstSector uint64) error {
	return c.processSectors(dst, src, sectorSize, firstSector, true)
}

// DecryptSectors is the decrypting counterpart of EncryptSectors.
func (c *Cipher) DecryptSectors(dst, src []byte, sectorSize int, firstSector uint64) error {
	return c.processSectors(dst, src, sectorSize, firstSector, false)
}

// processSectors is the one XTS loop. Per chunk of up to
// tweakChunkBlocks blocks it writes the tweak run into stack scratch —
// the tweak lives in two registers and is multiplied by alpha in
// GF(2^128) (little-endian convention) between blocks — then whitens
// the chunk with vectorised XOR, runs the block cipher over it (whole
// chunks for a BlockProcessor), and whitens it again.
func (c *Cipher) processSectors(dst, src []byte, sectorSize int, firstSector uint64, encrypt bool) error {
	if sectorSize <= 0 || sectorSize%blockSize != 0 {
		return errors.New("xts: sector size must be a positive multiple of 16")
	}
	if len(src) == 0 || len(src)%sectorSize != 0 {
		return errors.New("xts: span length must be a positive multiple of the sector size")
	}
	if len(dst) != len(src) {
		return errors.New("xts: dst and src length mismatch")
	}
	op := c.data.Encrypt
	if !encrypt {
		op = c.data.Decrypt
	}
	var tw [tweakChunkBlocks * blockSize]byte
	var t [blockSize]byte // escapes through the cipher.Block call: one per span
	for off, sector := 0, firstSector; off < len(src); off, sector = off+sectorSize, sector+1 {
		// The initial tweak is E_K2(sector), the sector number
		// little-endian in the low 8 bytes ("plain64").
		binary.LittleEndian.PutUint64(t[:8], sector)
		binary.LittleEndian.PutUint64(t[8:], 0)
		c.tweak.Encrypt(t[:], t[:])
		lo, hi := binary.LittleEndian.Uint64(t[:8]), binary.LittleEndian.Uint64(t[8:])
		s, d := src[off:off+sectorSize], dst[off:off+sectorSize]
		for len(s) > 0 {
			run := tw[:min(len(s), len(tw))]
			for i := 0; i < len(run); i += blockSize {
				binary.LittleEndian.PutUint64(run[i:], lo)
				binary.LittleEndian.PutUint64(run[i+8:], hi)
				lo, hi = lo<<1^(hi>>63)*0x87, hi<<1|lo>>63
			}
			cd := d[:len(run):len(run)]
			subtle.XORBytes(cd, s[:len(run)], run)
			switch {
			case c.multi != nil && encrypt:
				c.multi.EncryptBlocks(cd, cd)
			case c.multi != nil:
				c.multi.DecryptBlocks(cd, cd)
			default:
				for i := 0; i < len(cd); i += blockSize {
					op(cd[i:i+blockSize], cd[i:i+blockSize])
				}
			}
			subtle.XORBytes(cd, cd, run)
			s, d = s[len(run):], d[len(run):]
		}
	}
	return nil
}
