// Package workload models the paper's evaluation workloads: the NAS
// Parallel Benchmarks (EP, CG, FT, MG class D), Spark TeraSort, and the
// Filebench-in-a-VM experiment of Figure 7, plus the kernel-compile
// stress test of Figure 6.
//
// The macro models are analytic: each application is characterized by
// its per-node compute time and its communication/storage demands
// (message count and size, remote-disk read/write volumes), taken from
// the benchmarks' published communication profiles. Runtime under a
// security configuration follows from how encryption changes the cost
// of those demands: IPsec adds per-packet processing latency (dominant
// for latency-bound small-message collectives like CG) and caps bulk
// throughput at the cipher rate; LUKS shaves disk write bandwidth. The
// degradation ORDERING is therefore structural — an app's sensitivity
// is its communication profile — even though the absolute constants are
// calibrated to the paper's testbed.
package workload

import "time"

// SecConfig is a Figure-7 security configuration.
type SecConfig struct {
	LUKS  bool
	IPsec bool
}

func (s SecConfig) String() string {
	switch {
	case s.LUKS && s.IPsec:
		return "LUKS+IPsec"
	case s.LUKS:
		return "LUKS"
	case s.IPsec:
		return "IPsec"
	default:
		return "none"
	}
}

// AllSecConfigs is Figure 7's x-axis per application.
var AllSecConfigs = []SecConfig{
	{},
	{LUKS: true},
	{IPsec: true},
	{LUKS: true, IPsec: true},
}

// Network path constants (10 GbE, jumbo frames, AES-NI IPsec — §7.1:
// "hardware accelerated encryption and jumbo frames for all subsequent
// experiments").
const (
	oneWayLatency = 50 * time.Microsecond
	wireBandwidth = 10e9 // bits/s
	// ipsecPerPacket is the effective per-packet processing delay a
	// latency-bound message chain observes under ESP (crypto + xfrm
	// path on the paper's 2.6 GHz Xeons).
	ipsecPerPacket = 150 * time.Microsecond
	// ipsecBulkBandwidth is the sustained ESP payload rate for
	// pipelined bulk transfers (Figure 3b's HW/jumbo plateau).
	ipsecBulkBandwidth = 4.5e9 // bits/s
	jumboMTU           = 9000
	// bulkThreshold separates the latency-bound small-message regime
	// (serial per-packet cost) from the pipelined bulk regime.
	bulkThreshold = 2 * jumboMTU
)

// Remote-disk bandwidths in bytes/s from the Figure 3a/3c stacks.
const (
	diskPlainRead  = 0.95e9
	diskPlainWrite = 0.90e9
	diskLUKSRead   = 0.95e9 // LUKS reads keep up (Fig 3a)
	diskLUKSWrite  = 0.78e9 // modest write degradation (~0.8 GB/s)
	diskIPsecRead  = 0.33e9 // iSCSI over IPsec collapses (Fig 3c)
	diskIPsecWrite = 0.33e9
	diskBothWrite  = 0.29e9
)

// App characterizes one macro-benchmark's per-node behaviour.
type App struct {
	Name string
	// Kind is the Figure 7 grouping: "MPI", "Spark", or "VM".
	Kind string
	// Compute is pure CPU time, unaffected by encryption.
	Compute time.Duration
	// Msgs and MsgBytes describe communication: Msgs messages of
	// MsgBytes each. Small messages pay per-message latency chains;
	// large ones are bandwidth-bound.
	Msgs     int64
	MsgBytes int64
	// DiskRead/DiskWrite are remote-volume volumes.
	DiskRead  int64
	DiskWrite int64
}

// The Figure-7 application suite. Communication profiles follow each
// benchmark's published character: EP nearly compute-pure, CG dominated
// by latency-bound small-message reductions, FT bulk all-to-all
// transposes, MG moderate neighbour exchange, TeraSort disk+shuffle
// heavy, Filebench-VM storage-bound.
var (
	AppEP = App{Name: "EP", Kind: "MPI", Compute: 90 * time.Second,
		Msgs: 120_000, MsgBytes: 8 << 10}
	AppCG = App{Name: "CG", Kind: "MPI", Compute: 30 * time.Second,
		Msgs: 1_200_000, MsgBytes: 4 << 10}
	AppFT = App{Name: "FT", Kind: "MPI", Compute: 40 * time.Second,
		Msgs: 2_000, MsgBytes: 32 << 20}
	AppMG = App{Name: "MG", Kind: "MPI", Compute: 55 * time.Second,
		Msgs: 100_000, MsgBytes: 8 << 10}
	AppTeraSort = App{Name: "TeraSort", Kind: "Spark", Compute: 120 * time.Second,
		Msgs: 1_000, MsgBytes: 8 << 20, DiskRead: 8 << 30, DiskWrite: 8 << 30}
	AppFilebenchVM = App{Name: "Filebench-VM", Kind: "VM", Compute: 60 * time.Second,
		DiskRead: 16 << 30, DiskWrite: 6 << 30}
)

// Figure7Apps is the full suite in presentation order.
var Figure7Apps = []App{AppEP, AppCG, AppFT, AppMG, AppTeraSort, AppFilebenchVM}

// msgTime returns the cost of one message under a configuration.
func msgTime(msgBytes int64, ipsec bool) time.Duration {
	if msgBytes <= 0 {
		return 0
	}
	if msgBytes <= bulkThreshold {
		// Latency-bound regime: dependent sends serialize the one-way
		// latency, per-packet processing and wire time.
		pkts := (msgBytes + jumboMTU - 1) / jumboMTU
		t := oneWayLatency + time.Duration(float64(msgBytes*8)/wireBandwidth*float64(time.Second))
		if ipsec {
			t += time.Duration(pkts) * ipsecPerPacket
		}
		return t
	}
	// Bulk regime: pipelined; the slower of wire and cipher dominates.
	bw := wireBandwidth
	if ipsec {
		bw = ipsecBulkBandwidth
	}
	return oneWayLatency + time.Duration(float64(msgBytes*8)/bw*float64(time.Second))
}

// diskTime charges remote-volume traffic.
func diskTime(read, write int64, sec SecConfig) time.Duration {
	var rbw, wbw float64
	switch {
	case sec.IPsec && sec.LUKS:
		rbw, wbw = diskIPsecRead, diskBothWrite
	case sec.IPsec:
		rbw, wbw = diskIPsecRead, diskIPsecWrite
	case sec.LUKS:
		rbw, wbw = diskLUKSRead, diskLUKSWrite
	default:
		rbw, wbw = diskPlainRead, diskPlainWrite
	}
	r := time.Duration(float64(read) / rbw * float64(time.Second))
	w := time.Duration(float64(write) / wbw * float64(time.Second))
	return r + w
}

// Runtime predicts the application's wall-clock time under a security
// configuration.
func (a App) Runtime(sec SecConfig) time.Duration {
	comm := time.Duration(a.Msgs) * msgTime(a.MsgBytes, sec.IPsec)
	return a.Compute + comm + diskTime(a.DiskRead, a.DiskWrite, sec)
}

// Degradation returns the fractional slowdown of sec relative to the
// unencrypted baseline (0.30 = 30% slower).
func (a App) Degradation(sec SecConfig) float64 {
	base := a.Runtime(SecConfig{})
	return float64(a.Runtime(sec)-base) / float64(base)
}
