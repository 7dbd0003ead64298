package blockdev

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"bolted/internal/ipsec"
)

// This file implements the iSCSI-like network block device: a Target
// serving a Device over a request/response Transport, and a Client that
// presents the remote device locally with a sequential read-ahead
// window. The paper boots every server from such a device (TGT iSCSI in
// front of Ceph) and finds the read-ahead size (default 128 KiB, tuned
// 8 MiB) decisive for sequential throughput because Ceph serves 4 MiB
// objects (§7.2, Figure 3c).

// Transport moves an opaque request to the target and returns its
// response. Implementations interpose encryption or cost accounting.
type Transport interface {
	RoundTrip(req []byte) ([]byte, error)
}

// Wire protocol.
const (
	opRead  = 1
	opWrite = 2
	opSize  = 3

	respOK  = 0
	respErr = 1
)

// Target serves a Device over the wire protocol.
type Target struct {
	mu  sync.Mutex
	dev Device
}

// NewTarget creates a block target for dev.
func NewTarget(dev Device) *Target { return &Target{dev: dev} }

// Handle processes one request frame and returns the response frame.
func (t *Target) Handle(req []byte) ([]byte, error) {
	if len(req) < 13 {
		return nil, errors.New("blockdev: short request")
	}
	op := req[0]
	start := int64(binary.BigEndian.Uint64(req[1:9]))
	count := int64(binary.BigEndian.Uint32(req[9:13]))
	t.mu.Lock()
	defer t.mu.Unlock()
	switch op {
	case opSize:
		resp := make([]byte, 9)
		resp[0] = respOK
		binary.BigEndian.PutUint64(resp[1:], uint64(t.dev.NumSectors()))
		return resp, nil
	case opRead:
		// The frame comes from the tenant's side of the trust boundary:
		// hold it to the device before sizing a buffer by it.
		if start < 0 || count > t.dev.NumSectors()-start {
			return errResp(ErrOutOfRange), nil
		}
		buf := make([]byte, 1+count*SectorSize)
		if err := t.dev.ReadSectors(buf[1:], start); err != nil {
			return errResp(err), nil
		}
		buf[0] = respOK
		return buf, nil
	case opWrite:
		data := req[13:]
		if int64(len(data)) != count*SectorSize {
			return errResp(errors.New("payload length mismatch")), nil
		}
		if err := t.dev.WriteSectors(data, start); err != nil {
			return errResp(err), nil
		}
		return []byte{respOK}, nil
	default:
		return nil, fmt.Errorf("blockdev: unknown op %d", op)
	}
}

func errResp(err error) []byte {
	return append([]byte{respErr}, err.Error()...)
}

// Loopback is the plain (unencrypted) transport: a direct call into the
// target, modelling the provider's trusted storage network.
type Loopback struct{ Target *Target }

// RoundTrip implements Transport.
func (l Loopback) RoundTrip(req []byte) ([]byte, error) { return l.Target.Handle(req) }

// IPsecTransport wraps another transport in an ESP tunnel, performing
// the real per-packet seal/open work both directions, which is the extra
// CPU a tenant pays to not trust the provider's network between client
// and iSCSI server. Both tunnel endpoints live in-process, so the
// measured cost is the sum of client-side and server-side crypto —
// exactly the work the two hosts perform in aggregate.
type IPsecTransport struct {
	Inner  Transport
	Client *ipsec.Endpoint
	Server *ipsec.Endpoint
	MTU    int
}

// NewIPsecTransport builds an ESP-wrapped transport over inner with a
// fresh tunnel.
func NewIPsecTransport(inner Transport, suite ipsec.Suite, mtu int) (*IPsecTransport, error) {
	c, s, err := ipsec.NewPair(suite, ipsec.NewMasterKey())
	if err != nil {
		return nil, err
	}
	return &IPsecTransport{Inner: inner, Client: c, Server: s, MTU: mtu}, nil
}

// RoundTrip implements Transport: request is sealed client→server,
// opened, handled, and the response sealed server→client.
func (t *IPsecTransport) RoundTrip(req []byte) ([]byte, error) {
	pkts, err := ipsec.SegmentStream(t.Client, req, t.MTU)
	if err != nil {
		return nil, err
	}
	reqPlain, err := ipsec.ReassembleStream(t.Server, pkts)
	if err != nil {
		return nil, err
	}
	resp, err := t.Inner.RoundTrip(reqPlain)
	if err != nil {
		return nil, err
	}
	rpkts, err := ipsec.SegmentStream(t.Server, resp, t.MTU)
	if err != nil {
		return nil, err
	}
	return ipsec.ReassembleStream(t.Client, rpkts)
}

// ContextTransport bounds every round trip on a context: a cancelled
// provisioning batch stops issuing wire requests instead of finishing a
// multi-megabyte setup write nobody is waiting for.
type ContextTransport struct {
	Ctx   context.Context
	Inner Transport
}

// RoundTrip implements Transport.
func (t *ContextTransport) RoundTrip(req []byte) ([]byte, error) {
	if err := t.Ctx.Err(); err != nil {
		return nil, fmt.Errorf("blockdev: %w", err)
	}
	return t.Inner.RoundTrip(req)
}

// FaultTransport injects transport failures for resilience testing: it
// fails every Nth round trip (a dropped iSCSI session, a storage-net
// blip) while passing the rest through.
type FaultTransport struct {
	Inner     Transport
	FailEvery int // every Nth request errors (0 disables injection)

	mu sync.Mutex
	n  int
}

// RoundTrip implements Transport.
func (t *FaultTransport) RoundTrip(req []byte) ([]byte, error) {
	t.mu.Lock()
	t.n++
	fail := t.FailEvery > 0 && t.n%t.FailEvery == 0
	t.mu.Unlock()
	if fail {
		return nil, errors.New("blockdev: injected transport failure")
	}
	return t.Inner.RoundTrip(req)
}

// Client is the initiator-side block device. It implements Device.
//
// Reads go through an on-demand read-ahead window in the shape of Linux's
// ondemand_readahead: a miss that continues the previous read, runs off
// the end of the live window or starts at sector 0 is sequential and
// opens a window; any other miss is random and moves exactly the sectors
// asked for, leaving the window alone.
type Client struct {
	transport Transport
	sectors   int64

	mu        sync.Mutex
	readAhead int64 // largest window in sectors (0 = no read-ahead)
	raStart   int64 // first sector of the live window
	raData    []byte
	prevEnd   int64 // sector after the last one the previous read returned
	// Stats
	netReads  int64 // wire read requests issued
	netWrites int64
}

// DefaultReadAhead is the Linux default read-ahead (128 KiB).
const DefaultReadAhead = 128 << 10

// TunedReadAhead is the paper's tuned value (8 MiB), chosen because the
// Ceph backend serves 4 MiB objects.
const TunedReadAhead = 8 << 20

// NewClientContext is NewClient with the size-negotiation round trip
// (the "dial") bounded by ctx. The context does NOT outlive the call:
// the returned client serves the node for its whole occupancy,
// long after any provisioning batch context is done.
func NewClientContext(ctx context.Context, transport Transport, readAheadBytes int64) (*Client, error) {
	c, err := NewClient(&ContextTransport{Ctx: ctx, Inner: transport}, readAheadBytes)
	if err != nil {
		return nil, err
	}
	c.transport = transport
	return c, nil
}

// NewClient connects to a target through transport and negotiates the
// device size. readAheadBytes caps the read-ahead window and must be a
// multiple of SectorSize (0 disables read-ahead).
func NewClient(transport Transport, readAheadBytes int64) (*Client, error) {
	if readAheadBytes < 0 || readAheadBytes%SectorSize != 0 {
		return nil, fmt.Errorf("blockdev: read-ahead %d not a multiple of %d", readAheadBytes, SectorSize)
	}
	resp, err := transport.RoundTrip(request(opSize, 0, 0, 0))
	if err != nil {
		return nil, fmt.Errorf("blockdev: size negotiation: %w", err)
	}
	if len(resp) != 9 || resp[0] != respOK {
		return nil, errors.New("blockdev: bad size response")
	}
	return &Client{
		transport: transport,
		sectors:   int64(binary.BigEndian.Uint64(resp[1:])),
		readAhead: readAheadBytes / SectorSize,
	}, nil
}

// request builds a wire frame header with room for payload bytes.
func request(op byte, start, count, payload int64) []byte {
	req := make([]byte, 13+payload)
	req[0] = op
	binary.BigEndian.PutUint64(req[1:9], uint64(start))
	binary.BigEndian.PutUint32(req[9:13], uint32(count))
	return req
}

// NumSectors implements Device.
func (c *Client) NumSectors() int64 { return c.sectors }

// NetReads reports wire-level read round trips (test/diagnostic hook).
func (c *Client) NetReads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.netReads
}

// NetWrites reports wire-level write round trips.
func (c *Client) NetWrites() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.netWrites
}

// ReadSectors implements Device.
func (c *Client) ReadSectors(dst []byte, start int64) error {
	if len(dst) == 0 || len(dst)%SectorSize != 0 {
		return fmt.Errorf("blockdev: buffer length %d not a positive multiple of %d", len(dst), SectorSize)
	}
	return c.ReadVector([][]byte{dst}, start)
}

// ReadVector implements VectorDevice: the sector run is served from the
// live window where it covers it and scattered straight into the
// caller's buffers. A request misses at most once — a sequential fill
// covers the rest of it, a random fetch is the rest of it.
func (c *Client) ReadVector(bufs [][]byte, start int64) error {
	total, err := checkVectorRange(c, bufs, start)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := scatter{bufs: bufs}
	for cur, end := start, start+total/SectorSize; cur < end; {
		if off := (cur - c.raStart) * SectorSize; off >= 0 && off < int64(len(c.raData)) {
			n := min(int64(len(c.raData))-off, (end-cur)*SectorSize)
			out.put(c.raData[off : off+n])
			cur += n / SectorSize
			continue
		}
		n, sequential := c.planLocked(cur, end-cur, end-start)
		data, err := c.fetchLocked(cur, n)
		if err != nil {
			return err
		}
		if !sequential {
			out.put(data)
			break
		}
		c.raStart, c.raData = cur, data
	}
	c.prevEnd = start + total/SectorSize
	return nil
}

// scatter is a write cursor over a scatter list.
type scatter struct {
	bufs [][]byte
	off  int // bytes of bufs[0] already filled
}

// put copies src to the cursor and advances it.
func (s *scatter) put(src []byte) {
	for len(src) > 0 {
		n := copy(s.bufs[0][s.off:], src)
		src = src[n:]
		if s.off += n; s.off == len(s.bufs[0]) {
			s.bufs, s.off = s.bufs[1:], 0
		}
	}
}

// planLocked sizes the fetch for a miss at sector cur with want sectors
// of a req-sector request still to serve. Running off the end of the
// live window doubles it; a new sequential stream starts at 4x the
// request (at least DefaultReadAhead); both stop at the cap the caller
// gave NewClient. Any other miss fetches exactly want sectors and is not
// kept, so a stray read inside a scan costs the scan nothing.
func (c *Client) planLocked(cur, want, req int64) (n int64, sequential bool) {
	window := int64(len(c.raData)) / SectorSize
	switch {
	case c.readAhead == 0:
		return want, false
	case window > 0 && cur == c.raStart+window:
		n = 2 * window
	case cur == 0 || cur == c.prevEnd:
		n = max(4*req, DefaultReadAhead/SectorSize)
	default:
		return want, false
	}
	return min(max(min(n, c.readAhead), want), c.sectors-cur), true
}

// fetchLocked reads n sectors at cur over the wire.
func (c *Client) fetchLocked(cur, n int64) ([]byte, error) {
	resp, err := c.transport.RoundTrip(request(opRead, cur, n, 0))
	c.netReads++
	if err != nil {
		return nil, err
	}
	if len(resp) < 1 || resp[0] != respOK {
		return nil, fmt.Errorf("blockdev: remote read failed: %s", resp[min(1, len(resp)):])
	}
	if int64(len(resp)) != 1+n*SectorSize {
		return nil, fmt.Errorf("blockdev: read reply carries %d bytes, want %d", len(resp)-1, n*SectorSize)
	}
	return resp[1:], nil
}

// WriteSectors implements Device. Writes invalidate any overlapping
// read-ahead window.
func (c *Client) WriteSectors(src []byte, start int64) error {
	if len(src) == 0 || len(src)%SectorSize != 0 {
		return fmt.Errorf("blockdev: buffer length %d not a positive multiple of %d", len(src), SectorSize)
	}
	return c.WriteVector([][]byte{src}, start)
}

// WriteVector implements VectorDevice: the scatter-gather list is
// gathered directly into a single wire frame, so a multi-part payload
// (e.g. data plus padding) costs one copy and one round trip instead of
// a staging buffer plus a round trip per part.
func (c *Client) WriteVector(bufs [][]byte, start int64) error {
	total, err := checkVectorRange(c, bufs, start)
	if err != nil {
		return err
	}
	sectors := total / SectorSize
	c.mu.Lock()
	defer c.mu.Unlock()
	if start < c.raStart+int64(len(c.raData))/SectorSize && start+sectors > c.raStart {
		c.raData = nil
	}
	req := request(opWrite, start, sectors, total)
	off := 13
	for _, b := range bufs {
		off += copy(req[off:], b)
	}
	resp, err := c.transport.RoundTrip(req)
	c.netWrites++
	if err != nil {
		return err
	}
	if len(resp) < 1 || resp[0] != respOK {
		return fmt.Errorf("blockdev: remote write failed: %s", resp[min(1, len(resp)):])
	}
	return nil
}
