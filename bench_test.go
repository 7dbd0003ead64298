// Benchmarks regenerating every figure of the paper's evaluation (§7).
// Each BenchmarkFigN corresponds to one figure; `go test -bench .`
// prints the measurements, and cmd/boltedsim renders the same data as
// tables. EXPERIMENTS.md records paper-vs-measured for each.
package bolted_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bolted/internal/blockdev"
	"bolted/internal/bmi"
	"bolted/internal/ceph"
	"bolted/internal/core"
	"bolted/internal/guard"
	"bolted/internal/ima"
	"bolted/internal/ipsec"
	"bolted/internal/keylime"
	"bolted/internal/luks"
	"bolted/internal/npb"
	"bolted/internal/obs"
	"bolted/internal/remote"
	"bolted/internal/store"
	"bolted/internal/tpm"
	"bolted/internal/workload"
)

// --- Figure 3a: LUKS overhead on a RAM disk (dd) ---

func fig3aDevice(b *testing.B, encrypted bool) blockdev.Device {
	b.Helper()
	disk, err := blockdev.NewRAMDisk(64 << 20)
	if err != nil {
		b.Fatal(err)
	}
	if !encrypted {
		return disk
	}
	vol, err := luks.FormatWithIterations(disk, []byte("bench"), 16)
	if err != nil {
		b.Fatal(err)
	}
	return vol
}

func BenchmarkFig3aLUKSRAMDisk(b *testing.B) {
	const block = 1 << 20 // dd bs=1M
	for _, enc := range []struct {
		name string
		on   bool
	}{{"plain", false}, {"luks", true}} {
		for _, op := range []string{"write", "read"} {
			b.Run(enc.name+"/"+op, func(b *testing.B) {
				dev := fig3aDevice(b, enc.on)
				buf := make([]byte, block)
				for i := range buf {
					buf[i] = byte(i)
				}
				sectors := int64(block / blockdev.SectorSize)
				span := dev.NumSectors() / sectors * sectors
				if op == "read" {
					for off := int64(0); off < span; off += sectors {
						if err := dev.WriteSectors(buf, off); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.SetBytes(block)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := (int64(i) * sectors) % span
					var err error
					if op == "write" {
						err = dev.WriteSectors(buf, off)
					} else {
						err = dev.ReadSectors(buf, off)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 3b: IPsec overhead (iperf-style stream) ---

func BenchmarkFig3bIPsec(b *testing.B) {
	const streamLen = 1 << 20
	stream := make([]byte, streamLen)
	for i := range stream {
		stream[i] = byte(i * 7)
	}
	run := func(b *testing.B, seal func([]byte) error) {
		b.SetBytes(streamLen)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := seal(stream); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("plaintext", func(b *testing.B) {
		sink := make([]byte, streamLen)
		run(b, func(s []byte) error {
			copy(sink, s)
			return nil
		})
	})
	for _, cfg := range []struct {
		name  string
		suite ipsec.Suite
		mtu   int
	}{
		{"hw-aes/mtu1500", ipsec.SuiteHWAES, 1500},
		{"hw-aes/mtu9000", ipsec.SuiteHWAES, 9000},
		{"sw-aes/mtu1500", ipsec.SuiteSWAES, 1500},
		{"sw-aes/mtu9000", ipsec.SuiteSWAES, 9000},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			tx, rx, err := ipsec.NewPair(cfg.suite, ipsec.NewMasterKey())
			if err != nil {
				b.Fatal(err)
			}
			run(b, func(s []byte) error {
				pkts, err := ipsec.SegmentStream(tx, s, cfg.mtu)
				if err != nil {
					return err
				}
				_, err = ipsec.ReassembleStream(rx, pkts)
				return err
			})
		})
	}
}

// --- Figure 3c: network-mounted storage (iSCSI + Ceph) ---

func fig3cStack(b *testing.B, withLUKS, withIPsec bool, readAhead int64) blockdev.Device {
	b.Helper()
	cluster, err := ceph.NewCluster(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	img, err := ceph.NewImageDevice(cluster, "bench", 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	var transport blockdev.Transport = blockdev.Loopback{Target: blockdev.NewTarget(img)}
	if withIPsec {
		tr, err := blockdev.NewIPsecTransport(transport, ipsec.SuiteHWAES, 9000)
		if err != nil {
			b.Fatal(err)
		}
		transport = tr
	}
	client, err := blockdev.NewClient(transport, readAhead)
	if err != nil {
		b.Fatal(err)
	}
	if !withLUKS {
		return client
	}
	vol, err := luks.FormatWithIterations(client, []byte("bench"), 16)
	if err != nil {
		b.Fatal(err)
	}
	return vol
}

func BenchmarkFig3cNetStorage(b *testing.B) {
	const block = 1 << 20
	for _, cfg := range []struct {
		name        string
		luks, ipsec bool
	}{
		{"plain", false, false},
		{"luks", true, false},
		{"ipsec", false, true},
		{"luks+ipsec", true, true},
	} {
		for _, op := range []string{"write", "read"} {
			b.Run(cfg.name+"/"+op, func(b *testing.B) {
				dev := fig3cStack(b, cfg.luks, cfg.ipsec, blockdev.TunedReadAhead)
				buf := make([]byte, block)
				sectors := int64(block / blockdev.SectorSize)
				span := dev.NumSectors() / sectors * sectors
				if op == "read" {
					for off := int64(0); off < span; off += sectors {
						if err := dev.WriteSectors(buf, off); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.SetBytes(block)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					off := (int64(i) * sectors) % span
					var err error
					if op == "write" {
						err = dev.WriteSectors(buf, off)
					} else {
						err = dev.ReadSectors(buf, off)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationReadAhead isolates the Figure-3c tuning note: the
// 8 MiB read-ahead (vs the 128 KiB default) collapses wire round trips
// for sequential reads against 4 MiB Ceph objects.
func BenchmarkAblationReadAhead(b *testing.B) {
	for _, ra := range []struct {
		name string
		val  int64
	}{{"default-128KiB", blockdev.DefaultReadAhead}, {"tuned-8MiB", blockdev.TunedReadAhead}} {
		b.Run(ra.name, func(b *testing.B) {
			dev := fig3cStack(b, false, false, ra.val)
			client := dev.(*blockdev.Client)
			buf := make([]byte, 64<<10)
			sectors := int64(len(buf) / blockdev.SectorSize)
			span := dev.NumSectors() / sectors * sectors
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (int64(i) * sectors) % span
				if err := dev.ReadSectors(buf, off); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(client.NetReads())/float64(b.N), "round-trips/op")
		})
	}
	// The other half of the note: the 8 MiB cap is for scans only. A
	// random 4 KiB read moves 4 KiB and one round trip whatever the cap.
	b.Run("rand4k", func(b *testing.B) {
		cluster, err := ceph.NewCluster(3, 2)
		if err != nil {
			b.Fatal(err)
		}
		img, err := ceph.NewImageDevice(cluster, "bench", 64<<20)
		if err != nil {
			b.Fatal(err)
		}
		wire := &countingTransport{inner: blockdev.Loopback{Target: blockdev.NewTarget(img)}}
		client, err := blockdev.NewClient(wire, blockdev.TunedReadAhead)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 4<<10)
		chunks := client.NumSectors() * blockdev.SectorSize / int64(len(buf))
		rng := rand.New(rand.NewSource(1))
		*wire = countingTransport{inner: wire.inner}
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.ReadSectors(buf, rng.Int63n(chunks)*int64(len(buf))/blockdev.SectorSize); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wire.bytes)/float64(b.N), "wire-bytes/op")
		b.ReportMetric(float64(wire.trips)/float64(b.N), "round-trips/op")
	})
}

// countingTransport counts round trips and the bytes of both frames.
type countingTransport struct {
	inner        blockdev.Transport
	trips, bytes int64
}

func (c *countingTransport) RoundTrip(req []byte) ([]byte, error) {
	resp, err := c.inner.RoundTrip(req)
	c.trips++
	c.bytes += int64(len(req) + len(resp))
	return resp, err
}

// --- Figure 4: provisioning time of one server ---

func BenchmarkFig4Provisioning(b *testing.B) {
	for _, cfg := range []struct {
		name string
		pc   core.ProvisionConfig
	}{
		{"foreman", core.ProvisionConfig{Foreman: true}},
		{"uefi/no-attestation", core.ProvisionConfig{Firmware: core.FirmwareUEFI, Security: core.SecNone}},
		{"uefi/attestation", core.ProvisionConfig{Firmware: core.FirmwareUEFI, Security: core.SecAttested}},
		{"uefi/full-attestation", core.ProvisionConfig{Firmware: core.FirmwareUEFI, Security: core.SecFull}},
		{"linuxboot/no-attestation", core.ProvisionConfig{Firmware: core.FirmwareLinuxBoot, Security: core.SecNone}},
		{"linuxboot/attestation", core.ProvisionConfig{Firmware: core.FirmwareLinuxBoot, Security: core.SecAttested}},
		{"linuxboot/full-attestation", core.ProvisionConfig{Firmware: core.FirmwareLinuxBoot, Security: core.SecFull}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var last *core.ProvisionResult
			for i := 0; i < b.N; i++ {
				last = core.SimulateProvisioning(cfg.pc)
			}
			b.ReportMetric(last.Makespan.Seconds(), "boot-sec")
		})
	}
}

// --- Figure 5: concurrent provisioning ---

func BenchmarkFig5Concurrency(b *testing.B) {
	for _, sec := range []core.SecurityLevel{core.SecNone, core.SecAttested} {
		for _, n := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/nodes-%d", sec, n), func(b *testing.B) {
				cfg := core.DefaultProvisionConfig()
				cfg.Firmware = core.FirmwareUEFI
				cfg.Security = sec
				cfg.Concurrency = n
				var last *core.ProvisionResult
				for i := 0; i < b.N; i++ {
					last = core.SimulateProvisioning(cfg)
				}
				b.ReportMetric(last.Makespan.Seconds(), "makespan-sec")
			})
		}
	}
}

// BenchmarkAblationAirlocks removes the prototype's single-airlock
// limitation (§7.3: "we intend to address it"). The airlock count
// flows through core.PoolPolicy via WithPool — the same configuration
// the real provisioner's attestation semaphore reads — so the model
// and the functional pipeline agree by construction.
func BenchmarkAblationAirlocks(b *testing.B) {
	for _, locks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("airlocks-%d", locks), func(b *testing.B) {
			pool := core.DefaultPoolPolicy()
			pool.Airlocks = locks
			cfg := core.DefaultProvisionConfig().WithPool(pool)
			cfg.Firmware = core.FirmwareUEFI
			cfg.Security = core.SecAttested
			cfg.Concurrency = 16
			var last *core.ProvisionResult
			for i := 0; i < b.N; i++ {
				last = core.SimulateProvisioning(cfg)
			}
			b.ReportMetric(last.Makespan.Seconds(), "makespan-sec")
		})
	}
}

// --- Figure 6: IMA overhead on a kernel compile ---

func BenchmarkFig6IMA(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		for _, withIMA := range []bool{false, true} {
			name := fmt.Sprintf("threads-%d/ima-%v", threads, withIMA)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					var col *ima.Collector
					if withIMA {
						tp, err := tpm.New()
						if err != nil {
							b.Fatal(err)
						}
						col = ima.NewCollector(tp, ima.StressPolicy)
					}
					spec := workload.CompileSpec{
						Files: 600, FileBytes: 8 << 10,
						Threads: threads, WorkFactor: 30, IMA: col,
					}
					b.StartTimer()
					workload.RunKernelCompile(spec)
				}
			})
		}
	}
}

// --- Figure 7: macro-benchmarks under security configurations ---

func BenchmarkFig7Macro(b *testing.B) {
	for _, app := range workload.Figure7Apps {
		for _, sec := range workload.AllSecConfigs {
			b.Run(app.Name+"/"+sec.String(), func(b *testing.B) {
				var rt time.Duration
				for i := 0; i < b.N; i++ {
					rt = app.Runtime(sec)
				}
				b.ReportMetric(rt.Seconds(), "runtime-sec")
				b.ReportMetric(app.Degradation(sec)*100, "degradation-%")
			})
		}
	}
}

// --- §7.4: continuous attestation detection and revocation latency ---

func newAttestedPair(b *testing.B) (*core.Enclave, *core.Node, *core.Node) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = 2
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
		KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
	}); err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEnclave(cloud, "charlie", core.ProfileCharlie)
	if err != nil {
		b.Fatal(err)
	}
	e.IMAWhitelist().AllowContent("/usr/bin/app", []byte("app"))
	n1, err := e.AcquireNode(context.Background(), "os")
	if err != nil {
		b.Fatal(err)
	}
	n2, err := e.AcquireNode(context.Background(), "os")
	if err != nil {
		b.Fatal(err)
	}
	return e, n1, n2
}

// BenchmarkContinuousAttestationDetect measures the verifier check that
// detects a policy violation (paper: under one second).
func BenchmarkContinuousAttestationDetect(b *testing.B) {
	e, n1, _ := newAttestedPair(b)
	n1.IMA.Measure("/usr/bin/app", []byte("app"), ima.HookExec, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Verifier().CheckIMA(n1.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContinuousAttestationRevoke measures detect → revoke →
// cryptographic ban end to end (paper: ~3 s including IPsec teardown on
// every peer; in-process fan-out is far faster, see EXPERIMENTS.md).
func BenchmarkContinuousAttestationRevoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, n1, n2 := newAttestedPair(b)
		n1.IMA.Measure("/usr/bin/app", []byte("app"), ima.HookExec, 0)
		b.StartTimer()

		n1.IMA.Measure("/tmp/evil", []byte("dropper"), ima.HookExec, 0)
		v, err := e.Verifier().CheckIMA(n1.Name)
		if err != nil || len(v) == 0 {
			b.Fatalf("violation not detected: %v %v", v, err)
		}
		if _, err := e.Send(n1.Name, n2.Name, []byte("x")); err == nil {
			b.Fatal("revoked node still connected")
		}
	}
}

// BenchmarkKeylimeQuote measures the attestation quote+verify round
// trip (the serialized airlock section's CPU component).
func BenchmarkKeylimeQuote(b *testing.B) {
	e, n1, _ := newAttestedPair(b)
	_ = e
	nonce := []byte("bench-nonce")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := n1.Machine.TPM().Quote(nonce, keylime.BootPCRSelection())
		if err != nil {
			b.Fatal(err)
		}
		if err := tpm.VerifyQuote(n1.Machine.TPM().AIKPublic(), q, nonce); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7FilebenchReal drives the real Filebench-style workload
// (mixed file ops on a real filesystem) over the four §7.5 stacks —
// the functional counterpart of the Figure-7 VM bars.
func BenchmarkFig7FilebenchReal(b *testing.B) {
	spec := workload.DefaultFilebenchSpec()
	spec.Files = 20
	spec.FileBytes = 16 << 10
	spec.Ops = 100

	stacks := []struct {
		name string
		mk   func(b *testing.B) blockdev.Device
	}{
		{"plain", func(b *testing.B) blockdev.Device {
			d, err := blockdev.NewRAMDisk(32 << 20)
			if err != nil {
				b.Fatal(err)
			}
			return d
		}},
		{"luks", func(b *testing.B) blockdev.Device {
			d, _ := blockdev.NewRAMDisk(32 << 20)
			v, err := luks.FormatWithIterations(d, []byte("k"), 16)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}},
		{"nbd", func(b *testing.B) blockdev.Device {
			d, _ := blockdev.NewRAMDisk(32 << 20)
			c, err := blockdev.NewClient(blockdev.Loopback{Target: blockdev.NewTarget(d)}, blockdev.DefaultReadAhead)
			if err != nil {
				b.Fatal(err)
			}
			return c
		}},
		{"nbd+ipsec+luks", func(b *testing.B) blockdev.Device {
			d, _ := blockdev.NewRAMDisk(32 << 20)
			tr, err := blockdev.NewIPsecTransport(blockdev.Loopback{Target: blockdev.NewTarget(d)}, ipsec.SuiteHWAES, 9000)
			if err != nil {
				b.Fatal(err)
			}
			c, err := blockdev.NewClient(tr, blockdev.DefaultReadAhead)
			if err != nil {
				b.Fatal(err)
			}
			v, err := luks.FormatWithIterations(c, []byte("k"), 16)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}},
	}
	for _, stack := range stacks {
		b.Run(stack.name, func(b *testing.B) {
			var last *workload.FilebenchResult
			for i := 0; i < b.N; i++ {
				res, err := workload.RunFilebench(stack.mk(b), spec)
				if err != nil || res.Errors > 0 {
					b.Fatalf("%v (%d errors)", err, res.Errors)
				}
				last = res
			}
			b.ReportMetric(last.OpsPerSecond(), "file-ops/sec")
		})
	}
}

// --- real NPB mini-kernels (Figure 7's workloads, actually executed) ---

// BenchmarkNPBKernels measures the real kernels in plain vs
// IPsec-sealed message-passing worlds. In-process communication mutes
// absolute slowdowns (see EXPERIMENTS.md); the kernels' message
// profiles are asserted by internal/npb tests.
func BenchmarkNPBKernels(b *testing.B) {
	kernels := []struct {
		name string
		run  func(w *npb.World) error
	}{
		{"EP", func(w *npb.World) error { _, err := npb.RunEP(w, 50_000); return err }},
		{"CG", func(w *npb.World) error { _, err := npb.RunCG(w, npb.DefaultCGConfig()); return err }},
		{"MG", func(w *npb.World) error { _, err := npb.RunMG(w, npb.DefaultMGConfig()); return err }},
		{"FT", func(w *npb.World) error { _, err := npb.RunFT(w, npb.DefaultFTConfig()); return err }},
	}
	for _, k := range kernels {
		for _, secure := range []bool{false, true} {
			name := fmt.Sprintf("%s/ipsec-%v", k.name, secure)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w, err := npb.NewWorld(4, secure)
					if err != nil {
						b.Fatal(err)
					}
					if err := k.run(w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAcquireNodesParallel compares the paper prototype's serial
// acquisition loop against the concurrent batch pipeline for the same
// node count — the perf baseline for future provisioning work. The
// batch path also shares one boot-info extraction per batch.
func BenchmarkAcquireNodesParallel(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		for _, mode := range []string{"serial", "batch"} {
			b.Run(fmt.Sprintf("%s/nodes-%d", mode, n), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.Nodes = n
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cloud, err := core.NewCloud(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
						KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
					}); err != nil {
						b.Fatal(err)
					}
					e, err := core.NewEnclave(cloud, "t", core.ProfileBob)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if mode == "serial" {
						for j := 0; j < n; j++ {
							if _, err := e.AcquireNode(context.Background(), "os"); err != nil {
								b.Fatal(err)
							}
						}
					} else {
						res, err := e.AcquireNodes(context.Background(), "os", n)
						if err != nil {
							b.Fatal(err)
						}
						if len(res.Nodes) != n {
							b.Fatalf("allocated %d of %d", len(res.Nodes), n)
						}
					}
				}
				b.ReportMetric(float64(n), "nodes/batch")
			})
		}
	}
}

// BenchmarkEnclaveAcquire measures the full functional lifecycle
// (allocate → airlock → attest → provision → kexec) in process.
func BenchmarkEnclaveAcquire(b *testing.B) {
	for _, profile := range []core.Profile{core.ProfileAlice, core.ProfileBob, core.ProfileCharlie} {
		b.Run(profile.Name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Nodes = 1
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cloud, err := core.NewCloud(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
					KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
				})
				e, err := core.NewEnclave(cloud, "t", profile)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.AcquireNode(context.Background(), "os"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAcquireNodesTransport compares the full concurrent batch
// pipeline in process against the identical pipeline driven entirely
// over boltedd's wire API (HIL + BMI + registrar + node plane over
// HTTP) — the overhead a tenant pays for trusting nothing but the
// service plane's network interface. CI emits this comparison as
// BENCH_provisioning.json.
func BenchmarkAcquireNodesTransport(b *testing.B) {
	const batch = 4
	seed := func(b *testing.B) *core.Cloud {
		cfg := core.DefaultConfig()
		cfg.Nodes = batch
		cloud, err := core.NewCloud(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
			KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
		}); err != nil {
			b.Fatal(err)
		}
		return cloud
	}
	run := func(b *testing.B, cloud *core.Cloud) {
		e, err := core.NewEnclave(cloud, "t", core.ProfileBob)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.AcquireNodes(context.Background(), "os", batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Nodes) != batch {
			b.Fatalf("allocated %d of %d", len(res.Nodes), batch)
		}
	}

	b.Run("in-process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cloud := seed(b)
			b.StartTimer()
			run(b, cloud)
		}
		b.ReportMetric(batch, "nodes/batch")
	})
	b.Run("http", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			serverCloud := seed(b)
			handler, err := remote.NewHandler(serverCloud)
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(handler)
			cloud, err := remote.Dial(srv.URL)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run(b, cloud)
			b.StopTimer()
			srv.Close()
			b.StartTimer()
		}
		b.ReportMetric(batch, "nodes/batch")
	})
	// The /v1 control plane runs the same batch server-side as an async
	// Operation: the tenant's only wire traffic is submit + wait. The
	// submit-ns metric is what a tenant blocks for before the Operation
	// id comes back — the async win over the blocking paths above.
	b.Run("v1-async", func(b *testing.B) {
		var submit time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			serverCloud := seed(b)
			handler, err := remote.NewHandler(serverCloud)
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(handler)
			cli := remote.NewV1Client(srv.URL)
			if _, err := cli.CreateEnclave(context.Background(), "t", "bob"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			t0 := time.Now()
			op, err := cli.Acquire(context.Background(), "t", "os", batch)
			if err != nil {
				b.Fatal(err)
			}
			submit += time.Since(t0)
			final, err := cli.WaitOperation(context.Background(), op.ID)
			if err != nil {
				b.Fatal(err)
			}
			if final.Result == nil || len(final.Result.Nodes) != batch {
				b.Fatalf("operation %s = %+v", op.ID, final)
			}
			b.StopTimer()
			srv.Close()
			b.StartTimer()
		}
		b.ReportMetric(batch, "nodes/batch")
		b.ReportMetric(float64(submit.Nanoseconds())/float64(b.N), "submit-ns")
	})
}

// BenchmarkAcquireNodesWarm is the warm-pool acceptance benchmark,
// emitted by CI as BENCH_pool.json. The model sub-benchmarks run the
// calibrated timing model for an 8-node attested batch on stock UEFI
// firmware — the deployment where every cold acquisition pays the full
// POST → PXE → iPXE → Heads → attest chain the warm pool amortizes —
// across airlock counts (airlocks=1 is the §7.3 prototype). The
// functional sub-benchmarks run the real pipeline (in-process cloud)
// cold and against a pre-warmed pool. Expectations: warm ≥ 2× faster
// than cold at every airlock count, and cold/warm makespans both
// shrink as airlocks grow.
func BenchmarkAcquireNodesWarm(b *testing.B) {
	const batch = 8
	for _, mode := range []string{"cold", "warm"} {
		for _, locks := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("model/%s/airlocks-%d", mode, locks), func(b *testing.B) {
				pool := core.DefaultPoolPolicy()
				pool.Airlocks = locks
				if mode == "warm" {
					pool.Target = batch
				}
				cfg := core.DefaultProvisionConfig().WithPool(pool)
				cfg.Firmware = core.FirmwareUEFI
				cfg.Security = core.SecAttested
				cfg.Concurrency = batch
				var last *core.ProvisionResult
				for i := 0; i < b.N; i++ {
					last = core.SimulateProvisioning(cfg)
				}
				b.ReportMetric(last.Makespan.Seconds(), "makespan-sec")
				b.ReportMetric(last.PerNode[0].Seconds(), "node0-sec")
			})
		}
	}

	seed := func(b *testing.B, warmTarget int) *core.Enclave {
		b.Helper()
		cfg := core.DefaultConfig()
		cfg.Nodes = batch
		cloud, err := core.NewCloud(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
			KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
		}); err != nil {
			b.Fatal(err)
		}
		e, err := core.NewEnclave(cloud, "t", core.ProfileBob)
		if err != nil {
			b.Fatal(err)
		}
		if warmTarget > 0 {
			pol := core.DefaultPoolPolicy()
			pol.Target = warmTarget
			pol.MaxRefill = warmTarget
			if err := e.ConfigurePool(pol); err != nil {
				b.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				st, _ := e.PoolStats()
				if st.Warm >= warmTarget {
					break
				}
				if time.Now().After(deadline) {
					b.Fatalf("pool never warmed: %+v", st)
				}
				time.Sleep(time.Millisecond)
			}
		}
		return e
	}
	for _, mode := range []string{"cold", "warm"} {
		b.Run("functional/"+mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				target := 0
				if mode == "warm" {
					target = batch
				}
				e := seed(b, target)
				b.StartTimer()
				res, err := e.AcquireNodes(context.Background(), "os", batch)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Nodes) != batch {
					b.Fatalf("allocated %d of %d", len(res.Nodes), batch)
				}
				b.StopTimer()
				if mode == "warm" {
					if p := res.Timings.ByPhase(core.PhaseWarmRequote); p.Nodes != batch {
						b.Fatalf("warm batch took the cold path: %+v", res.Timings.Phases)
					}
				}
				e.ClosePool()
				b.StartTimer()
			}
			b.ReportMetric(batch, "nodes/batch")
		})
	}
}

// BenchmarkGuardQuarantine measures the runtime attestation guard's
// incident-response latencies across enclave sizes: detect-quarantine
// is the span from IMA violation injection to the EvQuarantined
// journal record (guard round cadence 2 ms, so the measured figure is
// dominated by check+quote+teardown, not by waiting for the tick);
// rekey is one enclave-wide PSK rotation — the O(members^2) pairwise
// SA rebuild every incident pays. CI emits these as BENCH_guard.json
// next to BENCH_provisioning.json.
func BenchmarkGuardQuarantine(b *testing.B) {
	build := func(b *testing.B, nodes int) (*core.Cloud, *core.Manager, *core.Enclave, *core.BatchResult) {
		cfg := core.DefaultConfig()
		cfg.Nodes = nodes
		cloud, err := core.NewCloud(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
			KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
		}); err != nil {
			b.Fatal(err)
		}
		mgr := core.NewManager(cloud)
		e, err := mgr.CreateEnclave("t", core.ProfileCharlie)
		if err != nil {
			b.Fatal(err)
		}
		e.IMAWhitelist().AllowContent("/usr/bin/app", []byte("app-v1"))
		op, err := mgr.StartAcquire("t", "os", nodes)
		if err != nil {
			b.Fatal(err)
		}
		res, err := op.Wait(context.Background())
		if err != nil || len(res.Nodes) != nodes {
			b.Fatalf("allocated %d of %d: %v", len(res.Nodes), nodes, err)
		}
		return cloud, mgr, e, res
	}

	for _, nodes := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("detect-quarantine/nodes-%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, mgr, e, res := build(b, nodes)
				if _, err := guard.Enable(mgr, "t", guard.Policy{
					Interval:       2 * time.Millisecond,
					CoalesceWindow: time.Millisecond,
				}); err != nil {
					b.Fatal(err)
				}
				quarantined := make(chan struct{})
				unwatch := e.Journal().Watch(func(ev core.Event) {
					if ev.Kind == core.EvQuarantined {
						close(quarantined)
					}
				})
				victim := res.Nodes[0]
				b.StartTimer()
				victim.IMA.Measure("/tmp/evil", []byte("evil"), ima.HookExec, 0)
				<-quarantined
				b.StopTimer()
				unwatch()
				mgr.DetachGuard("t")
			}
			b.ReportMetric(float64(nodes), "nodes/enclave")
		})

		b.Run(fmt.Sprintf("rekey/nodes-%d", nodes), func(b *testing.B) {
			_, mgr, e, _ := build(b, nodes)
			defer mgr.DetachGuard("t")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.RotateNetKey(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nodes), "nodes/enclave")
		})
	}
}

// --- Durable control plane: WAL overhead and recovery time (ISSUE 8) ---

// durableBenchManager builds a manager over a fresh cloud with one
// seeded image and an enclave ready to acquire: dir=="" runs on the
// in-memory store, otherwise on the fsync'd WAL at dir.
func durableBenchManager(b *testing.B, nodes int, dir string) (*core.Manager, *core.Enclave) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
		KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
	}); err != nil {
		b.Fatal(err)
	}
	var mgr *core.Manager
	if dir == "" {
		mgr = core.NewManager(cloud)
	} else {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		mgr = core.NewManagerWithStore(cloud, st)
	}
	e, err := mgr.CreateEnclave("bench", core.ProfileBob)
	if err != nil {
		b.Fatal(err)
	}
	return mgr, e
}

// BenchmarkStoreAcquire measures the durable-before-ack tax: the same
// end-to-end batch acquisition (submit -> attest -> done) against the
// in-memory store and the fsync'd WAL. Every control-plane mutation in
// the WAL arm commits to disk before it is acknowledged, so the delta
// between the arms is the full durability overhead. CI gates the WAL
// arm at <= 1.5x the memory arm.
func BenchmarkStoreAcquire(b *testing.B) {
	const batch = 4
	for _, arm := range []string{"memory", "wal"} {
		b.Run(arm, func(b *testing.B) {
			dir := ""
			if arm == "wal" {
				dir = b.TempDir()
			}
			mgr, e := durableBenchManager(b, batch, dir)
			if dir != "" {
				defer mgr.Close()
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op, err := mgr.StartAcquire("bench", "os", batch)
				if err != nil {
					b.Fatal(err)
				}
				res, err := op.Wait(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Nodes) != batch {
					b.Fatalf("acquired %d nodes, want %d", len(res.Nodes), batch)
				}
				b.StopTimer()
				for _, n := range res.Nodes {
					if err := e.ReleaseNode(n.Name, ""); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRecovery measures restart-to-serving time: store.Open +
// snapshot/WAL replay + fresh-quote re-adoption of every recorded
// member and warm standby, on two axes: the recorded control plane
// grows (nodes), and the log behind it grows (history: acquire/release
// cycles per enclave before the crash — the last case replays more than
// 20 000 records, so its MB/s is the replay rate). The seed WAL is
// written once per scale and never cleanly closed — each iteration
// recovers from a crash-faithful copy of it.
func BenchmarkRecovery(b *testing.B) {
	for _, sc := range []struct{ enclaves, members, warm, history int }{
		{1, 2, 2, 0},
		{2, 2, 2, 0},
		{4, 4, 0, 0},
		{2, 4, 0, 300},
	} {
		perEnclave := sc.members + sc.warm
		nodes := sc.enclaves * perEnclave
		name := fmt.Sprintf("enclaves-%d/nodes-%d", sc.enclaves, nodes)
		if sc.history > 0 {
			name += fmt.Sprintf("/history-%d", sc.history)
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			seedDir := b.TempDir()
			seedCfg := core.DefaultConfig()
			seedCfg.Nodes = nodes
			seedCloud, err := core.NewCloud(seedCfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := seedCloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
				KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
			}); err != nil {
				b.Fatal(err)
			}
			seedStore, err := store.Open(seedDir)
			if err != nil {
				b.Fatal(err)
			}
			seedMgr := core.NewManagerWithStore(seedCloud, seedStore)
			for i := 0; i < sc.enclaves; i++ {
				name := fmt.Sprintf("e%d", i)
				e, err := seedMgr.CreateEnclave(name, core.ProfileBob)
				if err != nil {
					b.Fatal(err)
				}
				for c := 0; c < sc.history; c++ {
					op, err := seedMgr.StartAcquire(name, "os", sc.members)
					if err != nil {
						b.Fatal(err)
					}
					res, err := op.Wait(ctx)
					if err != nil {
						b.Fatal(err)
					}
					for _, n := range res.Nodes {
						if err := e.ReleaseNode(n.Name, ""); err != nil {
							b.Fatal(err)
						}
					}
				}
				op, err := seedMgr.StartAcquire(name, "os", sc.members)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := op.Wait(ctx); err != nil {
					b.Fatal(err)
				}
				if sc.warm > 0 {
					pol := core.DefaultPoolPolicy()
					pol.Target = sc.warm
					pol.MaxRefill = sc.warm
					// Through the Manager, not the Enclave: only the
					// manager-mediated mutation is persisted, and the pool
					// must survive the restart.
					if _, _, err := seedMgr.ConfigurePool(name, pol); err != nil {
						b.Fatal(err)
					}
					deadline := time.Now().Add(30 * time.Second)
					for {
						st, _ := e.PoolStats()
						if st.Warm >= sc.warm {
							break
						}
						if time.Now().After(deadline) {
							b.Fatalf("seed pool never warmed: %+v", st)
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
			// No Close: recovery replays the raw WAL like a real crash.
			if err := seedStore.Sync(); err != nil {
				b.Fatal(err)
			}
			_, seedRecs, err := seedStore.Load()
			if err != nil {
				b.Fatal(err)
			}
			records := len(seedRecs)
			wal, err := os.Stat(filepath.Join(seedDir, "wal.log"))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(wal.Size())

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				for _, name := range []string{"wal.log", "snapshot.json"} {
					bs, err := os.ReadFile(filepath.Join(seedDir, name))
					if os.IsNotExist(err) {
						continue
					}
					if err != nil {
						b.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, name), bs, 0o600); err != nil {
						b.Fatal(err)
					}
				}
				cfg := core.DefaultConfig()
				cfg.Nodes = nodes
				cloud, err := core.NewCloud(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
					KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
				}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st, err := store.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				mgr := core.NewManagerWithStore(cloud, st)
				rep, err := mgr.Recover(ctx)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := len(rep.Readopted); got != nodes {
					b.Fatalf("re-adopted %d nodes, want %d (rejected %v, released %v)",
						got, nodes, rep.Rejected, rep.Released)
				}
				if err := mgr.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(records), "records/op")
		})
	}
}

// --- Observability overhead: the instrumented hot path ---

// BenchmarkObsOverhead runs the BenchmarkAcquireNodesWarm functional
// warm path twice — once on an uninstrumented cloud (nil registry: every
// instrument no-ops) and once with a live metrics registry attached, the
// way boltedd -metrics-addr runs — so the cost of the observability
// plane on the provisioning hot path is a single ratio. CI emits the
// pair as BENCH_obs.json and gates metrics-on at <= 5% over metrics-off.
// The luks/ipsec package-global instruments stay detached here: they are
// process-wide, so attaching them would bleed into the metrics-off runs
// interleaved in the same process.
func BenchmarkObsOverhead(b *testing.B) {
	const batch = 8
	seed := func(b *testing.B, instrument bool) *core.Enclave {
		b.Helper()
		cfg := core.DefaultConfig()
		cfg.Nodes = batch
		cloud, err := core.NewCloud(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if instrument {
			cloud.SetMetrics(obs.NewRegistry())
		}
		if _, err := cloud.BMI.CreateOSImage("os", bmi.OSImageSpec{
			KernelID: "k", Kernel: []byte("kernel"), Initrd: []byte("initrd"),
		}); err != nil {
			b.Fatal(err)
		}
		e, err := core.NewEnclave(cloud, "t", core.ProfileBob)
		if err != nil {
			b.Fatal(err)
		}
		pol := core.DefaultPoolPolicy()
		pol.Target = batch
		pol.MaxRefill = batch
		if err := e.ConfigurePool(pol); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, _ := e.PoolStats()
			if st.Warm >= batch {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("pool never warmed: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
		return e
	}
	for _, mode := range []string{"metrics-off", "metrics-on"} {
		b.Run("warm-acquire/"+mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := seed(b, mode == "metrics-on")
				b.StartTimer()
				res, err := e.AcquireNodes(context.Background(), "os", batch)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Nodes) != batch {
					b.Fatalf("allocated %d of %d", len(res.Nodes), batch)
				}
				b.StopTimer()
				e.ClosePool()
				b.StartTimer()
			}
			b.ReportMetric(batch, "nodes/batch")
		})
	}
}
