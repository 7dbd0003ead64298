// Package ipsec implements an ESP-style encrypted tunnel between two
// endpoints, the mechanism security-sensitive Bolted tenants use so they
// need not trust the provider's network (§5, §7.2). It performs real
// AES-256-GCM per packet — the paper's AES-256-GCM SHA2-256 suite — with
// SPI/sequence-number encapsulation and standard anti-replay windowing.
//
// Two cipher paths reproduce Figure 3b's comparison: SuiteHWAES uses
// crypto/aes (AES-NI on amd64), SuiteSWAES uses the pure-Go softaes
// package, modelling a kernel without hardware AES.
package ipsec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"bolted/internal/softaes"
)

// Suite selects the AES implementation backing the tunnel.
type Suite int

const (
	// SuiteHWAES uses the standard library AES (hardware AES-NI where
	// available) — the paper's "IPsec HW" configuration.
	SuiteHWAES Suite = iota
	// SuiteSWAES uses a pure-Go software AES — the paper's "IPsec SW".
	SuiteSWAES
)

func (s Suite) String() string {
	switch s {
	case SuiteHWAES:
		return "aes-256-gcm-hw"
	case SuiteSWAES:
		return "aes-256-gcm-sw"
	default:
		return fmt.Sprintf("suite(%d)", int(s))
	}
}

// Encapsulation overheads in bytes, used both by the real packet path and
// the analytic link model (tunnel mode: outer IP + SPI + seq + IV + ICV).
const (
	HeaderOverhead = 20 + 4 + 4 + 8 // outer IP, SPI, seq, IV
	TagOverhead    = 16             // GCM ICV
	TotalOverhead  = HeaderOverhead + TagOverhead
)

// replayWindowSize is the anti-replay bitmap width (RFC 4303 minimum 32;
// Linux default 64).
const replayWindowSize = 64

var (
	// ErrReplay indicates a packet with an already-seen or too-old
	// sequence number.
	ErrReplay = errors.New("ipsec: replayed or stale sequence number")
	// ErrAuth indicates packet authentication failure.
	ErrAuth = errors.New("ipsec: packet authentication failed")
	// ErrRevoked indicates the SA has been torn down by key revocation.
	ErrRevoked = errors.New("ipsec: security association revoked")
	// ErrExpired indicates the SA exceeded its lifetime and must be
	// rekeyed before carrying more traffic.
	ErrExpired = errors.New("ipsec: security association lifetime exceeded")
)

// SA is a unidirectional security association.
type SA struct {
	mu      sync.Mutex
	spi     uint32
	aead    cipher.AEAD
	salt    [4]byte
	seq     uint64 // outbound: last sent; inbound: highest received
	window  uint64 // inbound anti-replay bitmap, bit 0 = seq
	revoked bool

	// Lifetime limits (0 = unlimited). When either is exceeded the SA
	// refuses further traffic until rekeyed, bounding how much
	// ciphertext any one key protects (RFC 4301 lifetimes).
	maxBytes, maxPkts   uint64
	usedBytes, usedPkts uint64

	// nonceBuf is scratch for Seal/Open, valid only while mu is held.
	// SegmentStream carries its own.
	nonceBuf [12]byte
}

// newSA derives a directional SA from a master key, SPI and direction
// label. Both tunnel ends derive identical SAs from the shared key.
func newSA(suite Suite, masterKey []byte, spi uint32, dir string) (*SA, error) {
	mac := hmac.New(sha256.New, masterKey)
	fmt.Fprintf(mac, "ipsec-sa|%d|%s", spi, dir)
	keymat := mac.Sum(nil) // 32 bytes: AES-256 key
	mac.Reset()
	fmt.Fprintf(mac, "ipsec-salt|%d|%s", spi, dir)
	saltmat := mac.Sum(nil)

	var block cipher.Block
	var err error
	switch suite {
	case SuiteHWAES:
		block, err = aes.NewCipher(keymat)
	case SuiteSWAES:
		block, err = softaes.New(keymat)
	default:
		return nil, fmt.Errorf("ipsec: unknown suite %v", suite)
	}
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	sa := &SA{spi: spi, aead: aead}
	copy(sa.salt[:], saltmat[:4])
	return sa, nil
}

// nonceLocked builds the RFC 4106-style nonce (4-byte salt || 8-byte
// sequence) into the SA's scratch buffer. The returned slice is valid
// only while sa.mu is held.
func (sa *SA) nonceLocked(seq uint64) []byte {
	copy(sa.nonceBuf[:4], sa.salt[:])
	binary.BigEndian.PutUint64(sa.nonceBuf[4:], seq)
	return sa.nonceBuf[:]
}

// fillNonce writes the nonce for seq into caller-owned scratch, for
// callers that seal outside the lock.
func (sa *SA) fillNonce(nonce *[12]byte, seq uint64) {
	copy(nonce[:4], sa.salt[:])
	binary.BigEndian.PutUint64(nonce[4:], seq)
}

// SetLifetime bounds the SA to maxBytes of payload and maxPkts packets
// (0 = unlimited).
func (sa *SA) SetLifetime(maxBytes, maxPkts uint64) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.maxBytes, sa.maxPkts = maxBytes, maxPkts
}

// Seal encapsulates a payload: SPI(4) || seq(8) || ciphertext+tag.
func (sa *SA) Seal(payload []byte) ([]byte, error) {
	return sa.SealAppend(make([]byte, 0, 12+len(payload)+TagOverhead), payload)
}

// SealAppend is Seal appending the packet to dst and returning the
// extended slice, so callers holding a reusable buffer pay no per-packet
// allocation. The nonce comes from the SA's scratch under the lock.
func (sa *SA) SealAppend(dst, payload []byte) ([]byte, error) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.revoked {
		return nil, ErrRevoked
	}
	if (sa.maxBytes > 0 && sa.usedBytes+uint64(len(payload)) > sa.maxBytes) ||
		(sa.maxPkts > 0 && sa.usedPkts+1 > sa.maxPkts) {
		return nil, ErrExpired
	}
	sa.usedBytes += uint64(len(payload))
	sa.usedPkts++
	sa.seq++
	seq := sa.seq

	m := espMetricsNow()
	m.sealedBytes.Add(float64(len(payload)))
	m.sealedPkts.Inc()

	base := len(dst)
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[:4], sa.spi)
	binary.BigEndian.PutUint64(hdr[4:], seq)
	dst = append(dst, hdr[:]...)
	return sa.aead.Seal(dst, sa.nonceLocked(seq), payload, dst[base:base+12]), nil
}

// Open authenticates and decapsulates a packet, enforcing anti-replay.
func (sa *SA) Open(pkt []byte) ([]byte, error) {
	return sa.OpenAppend(nil, pkt)
}

// OpenAppend is Open appending the recovered payload to dst.
func (sa *SA) OpenAppend(dst, pkt []byte) ([]byte, error) {
	if len(pkt) < 12+TagOverhead {
		return nil, errors.New("ipsec: packet too short")
	}
	spi := binary.BigEndian.Uint32(pkt[:4])
	if spi != sa.spi {
		return nil, fmt.Errorf("ipsec: SPI %d does not match SA %d", spi, sa.spi)
	}
	seq := binary.BigEndian.Uint64(pkt[4:12])

	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.revoked {
		return nil, ErrRevoked
	}
	if err := sa.checkReplayLocked(seq); err != nil {
		return nil, err
	}
	payload, err := sa.aead.Open(dst, sa.nonceLocked(seq), pkt[12:], pkt[:12])
	if err != nil {
		return nil, ErrAuth
	}
	sa.markSeenLocked(seq)
	espMetricsNow().openedBytes.Add(float64(len(payload) - len(dst)))
	return payload, nil
}

// reserveSeq reserves n consecutive outbound sequence numbers under a
// single lock acquisition, accounting totalBytes of payload against the
// SA lifetime, and returns the first reserved number. SegmentStream
// uses it so a stream's packets carry consecutive sequence numbers.
func (sa *SA) reserveSeq(n int, totalBytes int) (uint64, error) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if sa.revoked {
		return 0, ErrRevoked
	}
	if (sa.maxBytes > 0 && sa.usedBytes+uint64(totalBytes) > sa.maxBytes) ||
		(sa.maxPkts > 0 && sa.usedPkts+uint64(n) > sa.maxPkts) {
		return 0, ErrExpired
	}
	sa.usedBytes += uint64(totalBytes)
	sa.usedPkts += uint64(n)
	first := sa.seq + 1
	sa.seq += uint64(n)
	m := espMetricsNow()
	m.sealedBytes.Add(float64(totalBytes))
	m.sealedPkts.Add(float64(n))
	return first, nil
}

// sealPacketInto seals payload under an already-reserved sequence
// number, appending to dst (typically a zero-length, exact-capacity
// arena slot so nothing reallocates). nonce is caller-owned scratch and
// no mutable SA state is touched, so this needs no lock.
func (sa *SA) sealPacketInto(dst []byte, seq uint64, payload []byte, nonce *[12]byte) []byte {
	base := len(dst)
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[:4], sa.spi)
	binary.BigEndian.PutUint64(hdr[4:], seq)
	dst = append(dst, hdr[:]...)
	sa.fillNonce(nonce, seq)
	return sa.aead.Seal(dst, nonce[:], payload, dst[base:base+12])
}

func (sa *SA) checkReplayLocked(seq uint64) error {
	if seq == 0 {
		return ErrReplay
	}
	if seq > sa.seq {
		return nil // future packet, always fresh
	}
	diff := sa.seq - seq
	if diff >= replayWindowSize {
		return ErrReplay // too old
	}
	if sa.window&(1<<diff) != 0 {
		return ErrReplay // already seen
	}
	return nil
}

func (sa *SA) markSeenLocked(seq uint64) {
	if seq > sa.seq {
		shift := seq - sa.seq
		if shift >= replayWindowSize {
			sa.window = 1
		} else {
			sa.window = sa.window<<shift | 1
		}
		sa.seq = seq
		return
	}
	sa.window |= 1 << (sa.seq - seq)
}

// Revoke tears the SA down; all subsequent Seal/Open calls fail. Keylime
// uses this to cryptographically ban a compromised node (§7.4).
func (sa *SA) Revoke() {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.revoked = true
}

// Endpoint is one end of a host-to-host tunnel, holding an outbound and
// an inbound SA.
type Endpoint struct {
	Out *SA
	In  *SA
}

// NewPair creates the two endpoints of a tunnel keyed by a pre-shared
// master key, mirroring the paper's PSK Strongswan configuration. Each
// end holds its own SA state per direction (outbound counter on the
// sender, replay window on the receiver) derived from the same keys.
func NewPair(suite Suite, masterKey []byte) (a, b *Endpoint, err error) {
	spi := sharedSPI(masterKey)
	abOut, err := newSA(suite, masterKey, spi, "a->b")
	if err != nil {
		return nil, nil, err
	}
	baOut, err := newSA(suite, masterKey, spi+1, "b->a")
	if err != nil {
		return nil, nil, err
	}
	return &Endpoint{Out: abOut, In: baOut.clone()},
		&Endpoint{Out: baOut, In: abOut.clone()}, nil
}

// clone copies an SA's keys and identity with fresh sequencing state.
func (sa *SA) clone() *SA {
	return &SA{spi: sa.spi, aead: sa.aead, salt: sa.salt}
}

// sharedSPI derives a deterministic SPI pair base from the key.
func sharedSPI(key []byte) uint32 {
	d := sha256.Sum256(append([]byte("spi"), key...))
	return binary.BigEndian.Uint32(d[:4]) | 0x100 // avoid reserved SPIs 0-255
}

// Send seals a payload on the endpoint's outbound SA.
func (e *Endpoint) Send(payload []byte) ([]byte, error) { return e.Out.Seal(payload) }

// Recv opens a packet on the endpoint's inbound SA.
func (e *Endpoint) Recv(pkt []byte) ([]byte, error) { return e.In.Open(pkt) }

// Revoke tears down both directions.
func (e *Endpoint) Revoke() {
	e.Out.Revoke()
	e.In.Revoke()
}

// RekeyPair replaces both endpoints' SAs with fresh ones derived from
// newKey, resetting sequence numbers, replay windows and lifetime
// counters. Both ends must rekey together (IKE does this negotiation in
// a real deployment; Bolted's Keylime verifier can distribute the new
// key the same way it distributed the first).
func RekeyPair(a, b *Endpoint, suite Suite, newKey []byte) error {
	na, nb, err := NewPair(suite, newKey)
	if err != nil {
		return err
	}
	a.Out, a.In = na.Out, na.In
	b.Out, b.In = nb.Out, nb.In
	return nil
}

// NewMasterKey generates a fresh random 32-byte pre-shared key.
func NewMasterKey() []byte {
	k := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		panic("ipsec: entropy source failed: " + err.Error())
	}
	return k
}

// SegmentStream seals a byte stream as MTU-sized ESP packets, returning
// the packets. This is the data path the Figure 3b iperf-style benchmark
// measures.
//
// All sequence numbers are reserved under one lock, so packet i always
// carries sequence first+i. Packets are exact-capacity slices of one
// shared arena: a 1 MiB stream costs one allocation, not one per packet.
func SegmentStream(e *Endpoint, stream []byte, mtu int) ([][]byte, error) {
	payloadPer := mtu - HeaderOverhead - TagOverhead - 40
	if payloadPer < 1 {
		return nil, fmt.Errorf("ipsec: MTU %d too small", mtu)
	}
	if len(stream) == 0 {
		return nil, nil
	}
	n := (len(stream) + payloadPer - 1) / payloadPer
	first, err := e.Out.reserveSeq(n, len(stream))
	if err != nil {
		return nil, err
	}

	const pktOverhead = 12 + TagOverhead
	arena := make([]byte, len(stream)+n*pktOverhead)
	pkts := make([][]byte, n)
	var nonce [12]byte
	for i := range pkts {
		po := i * payloadPer
		pe := min(po+payloadPer, len(stream))
		ao := i * (payloadPer + pktOverhead)
		slot := arena[ao : ao : ao+pe-po+pktOverhead]
		pkts[i] = e.Out.sealPacketInto(slot, first+uint64(i), stream[po:pe], &nonce)
	}
	return pkts, nil
}

// ReassembleStream opens a packet sequence back into the byte stream.
//
// The packets must carry consecutive sequence numbers, as SegmentStream
// emits them: a reordered, holed or duplicated stream is refused with
// ErrReplay before any packet is opened. Each packet is then
// authenticated and marked seen in order; a packet is marked seen only
// once it authenticates. On the first failure the whole stream is
// discarded (packets before it stay marked seen — a sender retries
// under fresh sequence numbers). Payloads decrypt directly into slots
// of the returned buffer — no per-packet copy.
func ReassembleStream(e *Endpoint, pkts [][]byte) ([]byte, error) {
	if len(pkts) == 0 {
		return nil, nil
	}
	offs := make([]int, len(pkts)+1)
	for i, p := range pkts {
		if len(p) < 12+TagOverhead {
			return nil, errors.New("ipsec: packet too short")
		}
		if want := packetSeq(pkts[0]) + uint64(i); packetSeq(p) != want {
			return nil, fmt.Errorf("%w: stream packet %d carries seq %d, want %d", ErrReplay, i, packetSeq(p), want)
		}
		offs[i+1] = offs[i] + len(p) - 12 - TagOverhead
	}
	arena := make([]byte, offs[len(pkts)])
	for i, p := range pkts {
		if _, err := e.In.OpenAppend(arena[offs[i]:offs[i]:offs[i+1]], p); err != nil {
			return nil, err
		}
	}
	return arena, nil
}

// packetSeq reads a packet's (not yet authenticated) sequence number.
func packetSeq(pkt []byte) uint64 { return binary.BigEndian.Uint64(pkt[4:12]) }
