package netsim

import (
	"math"
	"time"
)

// LinkSpec describes the performance characteristics of a network path:
// bandwidth in bits per second, one-way latency, and MTU in bytes. The
// paper's cluster interconnect is 10 GbE with standard (1500) or jumbo
// (9000) frames.
type LinkSpec struct {
	BandwidthBps float64
	Latency      time.Duration
	MTU          int
}

// TenGbE returns the paper's 10 Gbit link with the given MTU.
func TenGbE(mtu int) LinkSpec {
	return LinkSpec{BandwidthBps: 10e9, Latency: 50 * time.Microsecond, MTU: mtu}
}

// TransferCost models moving a payload across the link for the
// discrete-event simulation. perPacketHdr is additional per-packet header
// overhead (e.g. ESP encapsulation), and perPacketCPU is per-packet
// processing cost (e.g. AEAD seal+open) charged serially with the wire
// time, which is how a single-core IPsec path behaves (§7.2: 60-80% of
// one core at 10 Gbit).
type TransferCost struct {
	PerPacketHdr int
	PerPacketCPU time.Duration
	// CPUBandwidthBps, when positive, caps throughput at the crypto
	// engine's byte rate, modelling the cipher as the bottleneck.
	CPUBandwidthBps float64
}

// TransferTime returns the simulated time to move n payload bytes over
// the link under the given cost model.
func (l LinkSpec) TransferTime(n int64, cost TransferCost) time.Duration {
	if n <= 0 {
		return l.Latency
	}
	payloadPerPkt := l.MTU - 40 - cost.PerPacketHdr // 40: IP+TCP headers
	if payloadPerPkt < 1 {
		payloadPerPkt = 1
	}
	pkts := (n + int64(payloadPerPkt) - 1) / int64(payloadPerPkt)
	wireBytes := n + pkts*int64(40+cost.PerPacketHdr+38) // 38: Ethernet frame+gap
	wire := time.Duration(float64(wireBytes*8) / l.BandwidthBps * float64(time.Second))
	cpu := time.Duration(pkts) * cost.PerPacketCPU
	if cost.CPUBandwidthBps > 0 {
		cipherTime := time.Duration(float64(n*8) / cost.CPUBandwidthBps * float64(time.Second))
		cpu += cipherTime
	}
	// Wire and CPU pipelines overlap imperfectly; the slower one
	// dominates and the other contributes a fill fraction.
	slow, fast := wire, cpu
	if cpu > wire {
		slow, fast = cpu, wire
	}
	return l.Latency + slow + fast/8
}

// Throughput returns the effective payload throughput in bits per second
// for a large transfer under the cost model.
func (l LinkSpec) Throughput(cost TransferCost) float64 {
	const probe = 1 << 30 // 1 GiB
	t := l.TransferTime(probe, cost)
	if t <= 0 {
		return math.Inf(1)
	}
	return float64(probe*8) / t.Seconds()
}
