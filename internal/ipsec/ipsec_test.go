package ipsec

import (
	"bytes"
	"encoding/binary"
	"errors"
	mrand "math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func newTunnel(t testing.TB, suite Suite) (*Endpoint, *Endpoint) {
	t.Helper()
	a, b, err := NewPair(suite, []byte("pre-shared-key-for-tests-32bytes"))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestRoundTripBothSuites(t *testing.T) {
	for _, suite := range []Suite{SuiteHWAES, SuiteSWAES} {
		t.Run(suite.String(), func(t *testing.T) {
			a, b := newTunnel(t, suite)
			msg := []byte("enclave traffic")
			pkt, err := a.Send(msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Recv(pkt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("got %q want %q", got, msg)
			}
			// Reverse direction uses an independent SA.
			pkt2, _ := b.Send([]byte("reply"))
			got2, err := a.Recv(pkt2)
			if err != nil || string(got2) != "reply" {
				t.Fatalf("reverse direction failed: %v", err)
			}
		})
	}
}

func TestSuitesInteroperate(t *testing.T) {
	// A software-AES endpoint must interoperate with a hardware-AES
	// endpoint given the same PSK: the suite changes speed, not format.
	key := NewMasterKey()
	aHW, _, err := NewPair(SuiteHWAES, key)
	if err != nil {
		t.Fatal(err)
	}
	_, bSW, err := NewPair(SuiteSWAES, key)
	if err != nil {
		t.Fatal(err)
	}
	pkt, _ := aHW.Send([]byte("cross"))
	got, err := bSW.Recv(pkt)
	if err != nil || string(got) != "cross" {
		t.Fatalf("HW->SW failed: %v", err)
	}
}

func TestCiphertextNotPlaintext(t *testing.T) {
	a, _ := newTunnel(t, SuiteHWAES)
	msg := bytes.Repeat([]byte("secret"), 100)
	pkt, _ := a.Send(msg)
	if bytes.Contains(pkt, []byte("secretsecret")) {
		t.Fatal("plaintext visible in packet")
	}
	if len(pkt) != len(msg)+12+TagOverhead {
		t.Fatalf("packet length %d, want %d", len(pkt), len(msg)+12+TagOverhead)
	}
}

func TestTamperDetected(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	pkt, _ := a.Send([]byte("payload"))
	for _, idx := range []int{12, len(pkt) - 1} {
		bad := append([]byte(nil), pkt...)
		bad[idx] ^= 0x40
		if _, err := b.Recv(bad); !errors.Is(err, ErrAuth) {
			t.Errorf("tamper at byte %d: err = %v, want ErrAuth", idx, err)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	pkt, _ := a.Send([]byte("once"))
	if _, err := b.Recv(pkt); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(pkt); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: err = %v, want ErrReplay", err)
	}
}

func TestOutOfOrderWithinWindow(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	var pkts [][]byte
	for i := 0; i < 10; i++ {
		p, _ := a.Send([]byte{byte(i)})
		pkts = append(pkts, p)
	}
	// Deliver newest first, then the rest: all must be accepted once.
	order := []int{9, 3, 7, 0, 1, 2, 4, 5, 6, 8}
	for _, i := range order {
		if _, err := b.Recv(pkts[i]); err != nil {
			t.Fatalf("packet %d rejected: %v", i, err)
		}
	}
	// Any second delivery fails.
	for _, i := range []int{0, 5, 9} {
		if _, err := b.Recv(pkts[i]); !errors.Is(err, ErrReplay) {
			t.Fatalf("dup %d: err = %v, want ErrReplay", i, err)
		}
	}
}

func TestStaleBeyondWindowRejected(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	old, _ := a.Send([]byte("old"))
	for i := 0; i < replayWindowSize+8; i++ {
		p, _ := a.Send([]byte("fill"))
		if _, err := b.Recv(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Recv(old); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale packet: err = %v, want ErrReplay", err)
	}
}

func TestRevocationBansNode(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	pre, _ := a.Send([]byte("before"))
	if _, err := b.Recv(pre); err != nil {
		t.Fatal(err)
	}
	// Keylime detects a violation and revokes the compromised node's
	// keys: both directions die.
	a.Revoke()
	b.Revoke()
	if _, err := a.Send([]byte("x")); !errors.Is(err, ErrRevoked) {
		t.Fatalf("send after revoke: %v", err)
	}
	if _, err := b.Recv(pre); !errors.Is(err, ErrRevoked) {
		t.Fatalf("recv after revoke: %v", err)
	}
}

func TestWrongSPIRejected(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	pkt, _ := a.Send([]byte("x"))
	pkt[0] ^= 0xFF
	if _, err := b.Recv(pkt); err == nil {
		t.Fatal("wrong SPI accepted")
	}
}

func TestShortPacketRejected(t *testing.T) {
	_, b := newTunnel(t, SuiteHWAES)
	if _, err := b.Recv(make([]byte, 8)); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestDifferentKeysCannotTalk(t *testing.T) {
	a1, _, _ := NewPair(SuiteHWAES, bytes.Repeat([]byte{1}, 32))
	_, b2, _ := NewPair(SuiteHWAES, bytes.Repeat([]byte{2}, 32))
	pkt, _ := a1.Send([]byte("x"))
	if _, err := b2.Recv(pkt); err == nil {
		t.Fatal("cross-key packet accepted")
	}
}

func TestSegmentReassemble(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	stream := make([]byte, 100_000)
	for i := range stream {
		stream[i] = byte(i * 31)
	}
	for _, mtu := range []int{1500, 9000} {
		pkts, err := SegmentStream(a, stream, mtu)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if len(p) > mtu-40 {
				t.Fatalf("packet %d exceeds MTU budget %d", len(p), mtu)
			}
		}
		got, err := ReassembleStream(b, pkts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stream) {
			t.Fatalf("mtu %d: reassembled stream differs", mtu)
		}
	}
	if _, err := SegmentStream(a, stream, 50); err == nil {
		t.Fatal("tiny MTU accepted")
	}
}

func TestLifetimeAndRekey(t *testing.T) {
	key := NewMasterKey()
	a, b, err := NewPair(SuiteHWAES, key)
	if err != nil {
		t.Fatal(err)
	}
	a.Out.SetLifetime(0, 3) // 3 packets then rekey required
	for i := 0; i < 3; i++ {
		pkt, err := a.Send([]byte("x"))
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if _, err := b.Recv(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Send([]byte("x")); !errors.Is(err, ErrExpired) {
		t.Fatalf("4th packet: %v, want ErrExpired", err)
	}
	// Rekeying restores service with fresh sequence state.
	if err := RekeyPair(a, b, SuiteHWAES, NewMasterKey()); err != nil {
		t.Fatal(err)
	}
	pkt, err := a.Send([]byte("after rekey"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(pkt)
	if err != nil || string(got) != "after rekey" {
		t.Fatalf("post-rekey: %v", err)
	}
}

func TestByteLifetime(t *testing.T) {
	a, _, _ := NewPair(SuiteHWAES, NewMasterKey())
	a.Out.SetLifetime(100, 0)
	if _, err := a.Send(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(make([]byte, 60)); !errors.Is(err, ErrExpired) {
		t.Fatalf("byte lifetime not enforced: %v", err)
	}
	// A smaller packet that still fits goes through.
	if _, err := a.Send(make([]byte, 30)); err != nil {
		t.Fatalf("within-budget packet rejected: %v", err)
	}
}

// Property: every payload round-trips across both suites.
func TestQuickRoundTrip(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	f := func(msg []byte) bool {
		pkt, err := a.Send(msg)
		if err != nil {
			return false
		}
		got, err := b.Recv(pkt)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSegmentStreamOrdering proves that a stream's packets carry
// consecutive sequence numbers in stream order, and that they reassemble
// into the stream.
func TestSegmentStreamOrdering(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	stream := make([]byte, 256<<10)
	mrand.New(mrand.NewSource(5)).Read(stream)

	pkts, err := SegmentStream(a, stream, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 2 {
		t.Fatalf("only %d packets; the stream must span several", len(pkts))
	}
	var prev uint64
	for i, p := range pkts {
		seq := binary.BigEndian.Uint64(p[4:12])
		if i == 0 {
			prev = seq
			continue
		}
		if seq != prev+1 {
			t.Fatalf("packet %d has seq %d, want %d (out of order)", i, seq, prev+1)
		}
		prev = seq
	}

	got, err := ReassembleStream(b, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stream) {
		t.Fatal("segment/reassemble corrupted the stream")
	}
}

// TestReassemblyReplayRejected replays a whole stream: the second pass
// must fail with ErrReplay because every packet of the first pass was
// marked seen.
func TestReassemblyReplayRejected(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	stream := make([]byte, 128<<10)
	pkts, err := SegmentStream(a, stream, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReassembleStream(b, pkts); err != nil {
		t.Fatal(err)
	}
	if _, err := ReassembleStream(b, pkts); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed stream accepted: err=%v", err)
	}
	// A single replayed packet inside an otherwise-fresh stream must
	// also be rejected.
	more, err := SegmentStream(a, stream[:64<<10], 1500)
	if err != nil {
		t.Fatal(err)
	}
	more[len(more)/2] = pkts[0]
	if _, err := ReassembleStream(b, more); !errors.Is(err, ErrReplay) {
		t.Fatalf("stream with one replayed packet accepted: err=%v", err)
	}
}

// TestReassemblyAuthFailure corrupts one packet in a stream: reassembly
// must fail, and the sender's retry — the same bytes resealed under fresh
// sequence numbers, as IPsecTransport does — must be accepted.
func TestReassemblyAuthFailure(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	stream := make([]byte, 128<<10)
	pkts, err := SegmentStream(a, stream, 1500)
	if err != nil {
		t.Fatal(err)
	}
	evil := append([]byte(nil), pkts[3]...)
	evil[len(evil)-1] ^= 0xFF
	pkts[3] = evil
	if _, err := ReassembleStream(b, pkts); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered stream accepted: err=%v", err)
	}
	retry, err := SegmentStream(a, stream, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReassembleStream(b, retry); err != nil {
		t.Fatalf("resealed stream rejected after failed batch: %v", err)
	}
}

// TestSealOpenAppendReuse drives the append APIs with a reused buffer.
func TestSealOpenAppendReuse(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	buf := make([]byte, 0, 4096)
	out := make([]byte, 0, 4096)
	for i := 0; i < 50; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 100+i)
		pkt, err := a.Out.SealAppend(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := b.In.OpenAppend(out[:0], pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pl, msg) {
			t.Fatalf("iteration %d: payload mismatch", i)
		}
	}
}

// TestConcurrentSeal hammers one SA from many goroutines; under -race
// this proves the scratch-nonce path is properly serialized and every
// packet still decrypts with a unique sequence number.
func TestConcurrentSeal(t *testing.T) {
	a, b := newTunnel(t, SuiteHWAES)
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	pkts := make([][][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p, err := a.Out.Seal([]byte("concurrent"))
				if err == nil {
					pkts[g] = append(pkts[g], p)
				}
			}
		}(g)
	}
	wg.Wait()
	var all [][]byte
	seen := make(map[uint64]bool)
	for _, gp := range pkts {
		for _, p := range gp {
			seq := binary.BigEndian.Uint64(p[4:12])
			if seen[seq] {
				t.Fatalf("sequence %d issued twice", seq)
			}
			seen[seq] = true
			all = append(all, p)
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d unique packets, want %d", len(seen), goroutines*perG)
	}
	// Open in sequence order (the receiver's replay window is only 64
	// wide, so arbitrary ordering would be legitimately rejected).
	sort.Slice(all, func(i, j int) bool {
		return binary.BigEndian.Uint64(all[i][4:12]) < binary.BigEndian.Uint64(all[j][4:12])
	})
	for _, p := range all {
		if _, err := b.In.Open(p); err != nil {
			t.Fatalf("seq %d failed to open: %v", binary.BigEndian.Uint64(p[4:12]), err)
		}
	}
}

// sealedStream seals a deterministic 64 KiB stream on a fresh tunnel
// and returns the receiving endpoint, the stream and its packets.
func sealedStream(t testing.TB, mtu int) (*Endpoint, []byte, [][]byte) {
	t.Helper()
	a, b := newTunnel(t, SuiteHWAES)
	stream := make([]byte, 64<<10)
	mrand.New(mrand.NewSource(7)).Read(stream)
	pkts, err := SegmentStream(a, stream, mtu)
	if err != nil {
		t.Fatal(err)
	}
	return b, stream, pkts
}

// TestReassembleStreamTampering edits one sealed stream on the wire in
// each way a provider-side peer can: every edit must be refused whole,
// with no bytes returned.
func TestReassembleStreamTampering(t *testing.T) {
	for _, r := range []struct {
		name string
		edit func(pkts [][]byte) [][]byte
		want error
	}{
		{"swapped", func(p [][]byte) [][]byte { p[1], p[2] = p[2], p[1]; return p }, ErrReplay},
		{"dropped", func(p [][]byte) [][]byte { return slices.Delete(p, 2, 3) }, ErrReplay},
		{"duplicated", func(p [][]byte) [][]byte { return slices.Insert(p, 2, p[1]) }, ErrReplay},
		{"truncated", func(p [][]byte) [][]byte { p[2] = p[2][:len(p[2])-1]; return p }, ErrAuth},
		{"bit-flipped", func(p [][]byte) [][]byte {
			p[2] = slices.Clone(p[2])
			p[2][40] ^= 0x01
			return p
		}, ErrAuth},
	} {
		t.Run(r.name, func(t *testing.T) {
			b, _, pkts := sealedStream(t, 1500)
			got, err := ReassembleStream(b, r.edit(pkts))
			if !errors.Is(err, r.want) || got != nil {
				t.Fatalf("got %d bytes, err = %v; want none and %v", len(got), err, r.want)
			}
		})
	}
}

// FuzzReassembleStream lets the fuzzer drop, swap, duplicate, truncate
// and bit-flip the packets of one sealed stream before a fresh receiver
// reassembles them. It must never panic, and whatever it accepts must be
// a contiguous, packet-aligned run of the sealed bytes.
func FuzzReassembleStream(f *testing.F) {
	const mtu = 1500
	payloadPer := mtu - HeaderOverhead - TagOverhead - 40
	_, stream, sealed := sealedStream(f, mtu)
	f.Add([]byte{})
	f.Add([]byte{0, 0})          // drop the first packet
	f.Add([]byte{0, 46})         // drop the last packet
	f.Add([]byte{1, 3})          // swap two
	f.Add([]byte{2, 5})          // duplicate one
	f.Add([]byte{3, 7, 3, 0})    // truncate two
	f.Add([]byte{4, 9, 200, 17}) // flip a bit
	f.Fuzz(func(t *testing.T, ops []byte) {
		_, b := newTunnel(t, SuiteHWAES)
		pkts := slices.Clone(sealed)
		for i := 0; i+1 < len(ops) && len(pkts) > 0; i += 2 {
			k := int(ops[i+1]) % len(pkts)
			switch ops[i] % 5 {
			case 0:
				pkts = slices.Delete(pkts, k, k+1)
			case 1:
				j := (k + 1) % len(pkts)
				pkts[k], pkts[j] = pkts[j], pkts[k]
			case 2:
				pkts = slices.Insert(pkts, k, pkts[k])
			case 3:
				pkts[k] = pkts[k][:len(pkts[k])*int(ops[i+1])/256]
			case 4:
				if i+2 < len(ops) && len(pkts[k]) > 0 {
					pkts[k] = slices.Clone(pkts[k])
					pkts[k][int(ops[i+2])%len(pkts[k])] ^= 1 << (ops[i+1] % 8)
					i++
				}
			}
		}
		got, err := ReassembleStream(b, pkts)
		if err != nil || len(pkts) == 0 {
			return
		}
		for lo := 0; lo < len(stream); lo += payloadPer {
			hi := lo + len(got)
			if hi <= len(stream) && (hi%payloadPer == 0 || hi == len(stream)) && bytes.Equal(got, stream[lo:hi]) {
				return
			}
		}
		t.Fatalf("accepted %d bytes that are no packet-aligned run of the stream", len(got))
	})
}
