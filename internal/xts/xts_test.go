package xts

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bolted/internal/softaes"
)

func mustCipher(t testing.TB, key []byte) *Cipher {
	t.Helper()
	c, err := NewCipher(aes.NewCipher, key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// IEEE P1619 XTS-AES-128 test vectors 1-3 (32-byte data units).
func TestIEEE1619Vectors(t *testing.T) {
	cases := []struct {
		name       string
		key1, key2 string
		sector     uint64
		ptx, ctx   string
	}{
		{
			name:   "vector1",
			key1:   "00000000000000000000000000000000",
			key2:   "00000000000000000000000000000000",
			sector: 0,
			ptx:    "0000000000000000000000000000000000000000000000000000000000000000",
			ctx:    "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e",
		},
		{
			name:   "vector2",
			key1:   "11111111111111111111111111111111",
			key2:   "22222222222222222222222222222222",
			sector: 0x3333333333,
			ptx:    "4444444444444444444444444444444444444444444444444444444444444444",
			ctx:    "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0",
		},
		{
			name:   "vector3",
			key1:   "fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0",
			key2:   "22222222222222222222222222222222",
			sector: 0x3333333333,
			ptx:    "4444444444444444444444444444444444444444444444444444444444444444",
			ctx:    "af85336b597afc1a900b2eb21ec949d292df4c047e0b21532186a5971a227a89",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, _ := hex.DecodeString(tc.key1)
			k2, _ := hex.DecodeString(tc.key2)
			pt, _ := hex.DecodeString(tc.ptx)
			want, _ := hex.DecodeString(tc.ctx)
			c := mustCipher(t, append(k1, k2...))
			got := make([]byte, len(pt))
			if err := c.EncryptSector(got, pt, tc.sector); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encrypt = %x\nwant      %x", got, want)
			}
			back := make([]byte, len(pt))
			if err := c.DecryptSector(back, got, tc.sector); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, pt) {
				t.Fatalf("decrypt round-trip = %x, want %x", back, pt)
			}
		})
	}
}

// IEEE P1619 vectors 4 (XTS-AES-128) and 10 (XTS-AES-256): full
// 512-byte data units, exercising the whole-sector tweak progression
// the 32-byte vectors above cannot. Both are also run through the
// batched EncryptSectors path.
func TestIEEE1619FullSectorVectors(t *testing.T) {
	seqPT := make([]byte, 512)
	for i := range seqPT {
		seqPT[i] = byte(i)
	}
	cases := []struct {
		name       string
		key1, key2 string
		sector     uint64
		ctx        string
	}{
		{
			name:   "vector4-xts-aes-128",
			key1:   "27182818284590452353602874713526",
			key2:   "31415926535897932384626433832795",
			sector: 0,
			ctx: "27a7479befa1d476489f308cd4cfa6e2a96e4bbe3208ff25287dd3819616e89c" +
				"c78cf7f5e543445f8333d8fa7f56000005279fa5d8b5e4ad40e736ddb4d35412" +
				"328063fd2aab53e5ea1e0a9f332500a5df9487d07a5c92cc512c8866c7e860ce" +
				"93fdf166a24912b422976146ae20ce846bb7dc9ba94a767aaef20c0d61ad0265" +
				"5ea92dc4c4e41a8952c651d33174be51a10c421110e6d81588ede82103a252d8" +
				"a750e8768defffed9122810aaeb99f9172af82b604dc4b8e51bcb08235a6f434" +
				"1332e4ca60482a4ba1a03b3e65008fc5da76b70bf1690db4eae29c5f1badd03c" +
				"5ccf2a55d705ddcd86d449511ceb7ec30bf12b1fa35b913f9f747a8afd1b130e" +
				"94bff94effd01a91735ca1726acd0b197c4e5b03393697e126826fb6bbde8ecc" +
				"1e08298516e2c9ed03ff3c1b7860f6de76d4cecd94c8119855ef5297ca67e9f3" +
				"e7ff72b1e99785ca0a7e7720c5b36dc6d72cac9574c8cbbc2f801e23e56fd344" +
				"b07f22154beba0f08ce8891e643ed995c94d9a69c9f1b5f499027a78572aeebd" +
				"74d20cc39881c213ee770b1010e4bea718846977ae119f7a023ab58cca0ad752" +
				"afe656bb3c17256a9f6e9bf19fdd5a38fc82bbe872c5539edb609ef4f79c203e" +
				"bb140f2e583cb2ad15b4aa5b655016a8449277dbd477ef2c8d6c017db738b18d" +
				"eb4a427d1923ce3ff262735779a418f20a282df920147beabe421ee5319d0568",
		},
		{
			name:   "vector10-xts-aes-256",
			key1:   "2718281828459045235360287471352662497757247093699959574966967627",
			key2:   "3141592653589793238462643383279502884197169399375105820974944592",
			sector: 0xff,
			ctx: "1c3b3a102f770386e4836c99e370cf9bea00803f5e482357a4ae12d414a3e63b" +
				"5d31e276f8fe4a8d66b317f9ac683f44680a86ac35adfc3345befecb4bb188fd" +
				"5776926c49a3095eb108fd1098baec70aaa66999a72a82f27d848b21d4a741b0" +
				"c5cd4d5fff9dac89aeba122961d03a757123e9870f8acf1000020887891429ca" +
				"2a3e7a7d7df7b10355165c8b9a6d0a7de8b062c4500dc4cd120c0f7418dae3d0" +
				"b5781c34803fa75421c790dfe1de1834f280d7667b327f6c8cd7557e12ac3a0f" +
				"93ec05c52e0493ef31a12d3d9260f79a289d6a379bc70c50841473d1a8cc81ec" +
				"583e9645e07b8d9670655ba5bbcfecc6dc3966380ad8fecb17b6ba02469a020a" +
				"84e18e8f84252070c13e9f1f289be54fbc481457778f616015e1327a02b140f1" +
				"505eb309326d68378f8374595c849d84f4c333ec4423885143cb47bd71c5edae" +
				"9be69a2ffeceb1bec9de244fbe15992b11b77c040f12bd8f6a975a44a0f90c29" +
				"a9abc3d4d893927284c58754cce294529f8614dcd2aba991925fedc4ae74ffac" +
				"6e333b93eb4aff0479da9a410e4450e0dd7ae4c6e2910900575da401fc07059f" +
				"645e8b7e9bfdef33943054ff84011493c27b3429eaedb4ed5376441a77ed4385" +
				"1ad77f16f541dfd269d50d6a5f14fb0aab1cbb4c1550be97f7ab4066193c4caa" +
				"773dad38014bd2092fa755c824bb5e54c4f36ffda9fcea70b9c6e693e148c151",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, _ := hex.DecodeString(tc.key1)
			k2, _ := hex.DecodeString(tc.key2)
			want, _ := hex.DecodeString(tc.ctx)
			c := mustCipher(t, append(k1, k2...))
			got := make([]byte, len(seqPT))
			if err := c.EncryptSector(got, seqPT, tc.sector); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encrypt = %x…\nwant      %x…", got[:32], want[:32])
			}
			// The batched path must produce the identical data unit.
			batched := make([]byte, len(seqPT))
			if err := c.EncryptSectors(batched, seqPT, len(seqPT), tc.sector); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(batched, want) {
				t.Fatalf("EncryptSectors = %x…, want %x…", batched[:32], want[:32])
			}
			back := make([]byte, len(seqPT))
			if err := c.DecryptSectors(back, want, len(seqPT), tc.sector); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, seqPT) {
				t.Fatal("DecryptSectors round-trip mismatch")
			}
		})
	}
}

func TestKeyValidation(t *testing.T) {
	for _, n := range []int{0, 16, 31, 33, 48, 65} {
		if _, err := NewCipher(aes.NewCipher, make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted, want error", n)
		}
	}
	for _, n := range []int{32, 64} {
		if _, err := NewCipher(aes.NewCipher, make([]byte, n)); err != nil {
			t.Errorf("key size %d rejected: %v", n, err)
		}
	}
}

func TestLengthValidation(t *testing.T) {
	c := mustCipher(t, make([]byte, 64))
	for _, n := range []int{0, 1, 15, 17, 511} {
		if err := c.EncryptSector(make([]byte, n), make([]byte, n), 0); err == nil {
			t.Errorf("sector length %d accepted, want error", n)
		}
	}
	if err := c.EncryptSector(make([]byte, 16), make([]byte, 32), 0); err == nil {
		t.Error("mismatched dst/src lengths accepted")
	}
}

func TestInPlace(t *testing.T) {
	c := mustCipher(t, make([]byte, 64))
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = byte(i)
	}
	orig := append([]byte(nil), buf...)
	if err := c.EncryptSector(buf, buf, 7); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, orig) {
		t.Fatal("in-place encrypt left plaintext unchanged")
	}
	if err := c.DecryptSector(buf, buf, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("in-place round-trip mismatch")
	}
}

// Property: round-trip for random keys, sectors, and sizes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(key [64]byte, sector uint64, seed int64) bool {
		c, err := NewCipher(aes.NewCipher, key[:])
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		n := (1 + rng.Intn(64)) * 16
		pt := make([]byte, n)
		rng.Read(pt)
		ct := make([]byte, n)
		if err := c.EncryptSector(ct, pt, sector); err != nil {
			return false
		}
		back := make([]byte, n)
		if err := c.DecryptSector(back, ct, sector); err != nil {
			return false
		}
		return bytes.Equal(back, pt) && !bytes.Equal(ct, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the same plaintext at different sector numbers encrypts to
// different ciphertext (tweak actually varies with position).
func TestQuickSectorTweakVaries(t *testing.T) {
	c := mustCipher(t, bytes.Repeat([]byte{9}, 64))
	f := func(sa, sb uint64, block [16]byte) bool {
		if sa == sb {
			return true
		}
		ca, cb := make([]byte, 16), make([]byte, 16)
		if err := c.EncryptSector(ca, block[:], sa); err != nil {
			return false
		}
		if err := c.EncryptSector(cb, block[:], sb); err != nil {
			return false
		}
		return !bytes.Equal(ca, cb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: equal blocks within one sector encrypt differently
// (inter-block tweak progression).
func TestIntraSectorBlocksDiffer(t *testing.T) {
	c := mustCipher(t, bytes.Repeat([]byte{5}, 64))
	pt := bytes.Repeat([]byte{0xAB}, 512)
	ct := make([]byte, 512)
	if err := c.EncryptSector(ct, pt, 3); err != nil {
		t.Fatal(err)
	}
	for i := 16; i < 512; i += 16 {
		if bytes.Equal(ct[:16], ct[i:i+16]) {
			t.Fatalf("blocks 0 and %d encrypt identically (ECB-like leak)", i/16)
		}
	}
}

// softBlock adapts softaes.New to the mkBlock signature, exercising the
// BlockProcessor batch path inside processSectors.
func softBlock(key []byte) (cipher.Block, error) { return softaes.New(key) }

// referenceSectors is the per-block XTS loop the batched one replaced,
// kept as an independent oracle: each sector's tweak is derived and
// multiplied by alpha on a byte array, and every block is whitened,
// ciphered and whitened one at a time. It refuses exactly what the
// sector API documents as invalid.
func referenceSectors(c *Cipher, dst, src []byte, sectorSize int, first uint64, encrypt bool) error {
	if sectorSize <= 0 || sectorSize%blockSize != 0 || len(src) == 0 ||
		len(src)%sectorSize != 0 || len(dst) != len(src) {
		return errors.New("invalid span")
	}
	op := c.data.Encrypt
	if !encrypt {
		op = c.data.Decrypt
	}
	for off := 0; off < len(src); off += sectorSize {
		var t [blockSize]byte
		binary.LittleEndian.PutUint64(t[:8], first+uint64(off/sectorSize))
		c.tweak.Encrypt(t[:], t[:])
		for b := off; b < off+sectorSize; b += blockSize {
			out := dst[b : b+blockSize]
			for i := range out {
				out[i] = src[b+i] ^ t[i]
			}
			op(out, out)
			for i := range out {
				out[i] ^= t[i]
			}
			// Multiply by alpha: shift the 128-bit little-endian
			// value left one bit, folding the carry into 0x87.
			carry := t[blockSize-1] >> 7
			for i := blockSize - 1; i > 0; i-- {
				t[i] = t[i]<<1 | t[i-1]>>7
			}
			t[0] = t[0]<<1 ^ carry*0x87
		}
	}
	return nil
}

// TestSectorsMatchesPerSector pins the batched loop to the per-block
// reference for both backends (crypto/aes one block per call, softaes
// through BlockProcessor), across sector sizes, span lengths, the
// single-sector API and in-place operation.
func TestSectorsMatchesPerSector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := make([]byte, 64)
	rng.Read(key)
	backends := []struct {
		name string
		mk   func([]byte) (cipher.Block, error)
	}{{"aes", aes.NewCipher}, {"softaes", softBlock}}
	for _, be := range backends {
		c, err := NewCipher(be.mk, key)
		if err != nil {
			t.Fatal(err)
		}
		for _, sectorSize := range []int{16, 512, 4096, 8192} {
			for _, sectors := range []int{1, 2, 7} {
				first := rng.Uint64()
				src := make([]byte, sectorSize*sectors)
				rng.Read(src)
				want := make([]byte, len(src))
				if err := referenceSectors(c, want, src, sectorSize, first, true); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(src))
				if err := c.EncryptSectors(got, src, sectorSize, first); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: EncryptSectors(%d×%d) diverges from the reference", be.name, sectors, sectorSize)
				}
				one := make([]byte, sectorSize)
				if err := c.EncryptSector(one, src[:sectorSize], first); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(one, want[:sectorSize]) {
					t.Fatalf("%s: EncryptSector(%d) diverges from the reference", be.name, sectorSize)
				}
				// Decrypt in place over a copy.
				inplace := append([]byte(nil), got...)
				if err := c.DecryptSectors(inplace, inplace, sectorSize, first); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(inplace, src) {
					t.Fatalf("%s: in-place DecryptSectors round-trip mismatch", be.name)
				}
			}
		}
	}
}

// FuzzSectors holds the batched loop to referenceSectors over drawn
// keys (32 or 64 bytes), backends, sector sizes (zero, unaligned,
// larger than the span), first sectors and spans (empty, not a sector
// multiple, dst longer or shorter than src). Every valid input must
// encrypt to the reference's bytes and round-trip in place; every
// invalid one must be refused, as the reference refuses it, with dst
// untouched. The seed corpus is testdata/fuzz/FuzzSectors.
func FuzzSectors(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed []byte, wide, soft bool, sectorSize int, first uint64, src []byte, dstDelta int) {
		key := make([]byte, 32)
		if wide {
			key = make([]byte, 64)
		}
		for i := range key {
			key[i] = byte(i)
			if len(seed) > 0 {
				key[i] ^= seed[i%len(seed)]
			}
		}
		mk := aes.NewCipher
		if soft {
			mk = softBlock
			src = src[:min(len(src), 1024)] // softaes is slow
		}
		c, err := NewCipher(mk, key)
		if err != nil {
			t.Fatal(err)
		}
		n := max(0, len(src)+dstDelta%64)
		want := make([]byte, n)
		refErr := referenceSectors(c, want, src, sectorSize, first, true)
		got := bytes.Repeat([]byte{0xA5}, n)
		err = c.EncryptSectors(got, src, sectorSize, first)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("EncryptSectors error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if !bytes.Equal(got, bytes.Repeat([]byte{0xA5}, n)) {
				t.Fatal("refused span wrote dst")
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncryptSectors diverges from the reference (sector size %d, %d bytes)", sectorSize, len(src))
		}
		if err := c.DecryptSectors(got, got, sectorSize, first); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("in-place DecryptSectors round-trip mismatch")
		}
	})
}

func TestSectorsValidation(t *testing.T) {
	c := mustCipher(t, make([]byte, 64))
	buf := make([]byte, 1024)
	if err := c.EncryptSectors(buf, buf, 0, 0); err == nil {
		t.Error("zero sector size accepted")
	}
	if err := c.EncryptSectors(buf, buf, 24, 0); err == nil {
		t.Error("non-16-multiple sector size accepted")
	}
	if err := c.EncryptSectors(buf[:768], buf[:768], 512, 0); err == nil {
		t.Error("span not a sector multiple accepted")
	}
	if err := c.EncryptSectors(buf[:512], buf, 512, 0); err == nil {
		t.Error("dst/src length mismatch accepted")
	}
	if err := c.EncryptSectors(nil, nil, 512, 0); err == nil {
		t.Error("empty span accepted")
	}
}

func BenchmarkEncryptSectors(b *testing.B) {
	for _, be := range []struct {
		name string
		mk   func([]byte) (cipher.Block, error)
	}{{"aes", aes.NewCipher}, {"softaes", softBlock}} {
		for _, sectorSize := range []int{512, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", be.name, sectorSize), func(b *testing.B) {
				c, err := NewCipher(be.mk, make([]byte, 64))
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 64<<10)
				b.SetBytes(int64(len(buf)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.EncryptSectors(buf, buf, sectorSize, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkEncryptSector4K(b *testing.B) {
	c := mustCipher(b, make([]byte, 64))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		_ = c.EncryptSector(buf, buf, uint64(i))
	}
}
