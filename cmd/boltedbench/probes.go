package main

import (
	"context"
	"crypto/aes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"bolted/internal/blockdev"
	"bolted/internal/ceph"
	"bolted/internal/core"
	"bolted/internal/ipsec"
	"bolted/internal/luks"
	"bolted/internal/store"
	"bolted/internal/tpm"
	"bolted/internal/xts"
)

// The probes call single layers through their public functions and
// time them directly. They calibrate the layer rows a workload's
// end-to-end numbers should follow.

// timeMedian runs fn n times and returns the median in milliseconds.
func timeMedian(n int, fn func() error) (float64, error) {
	return timeMedianSetup(n, func() (func() error, error) { return fn, nil })
}

// fsyncProbe times a 4 KiB write + fsync in dir. It measures the box,
// not the code: a shift here explains a shift in every store row.
func fsyncProbe(dir string, out map[string]float64) error {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	ms, err := timeMedian(200, func() error {
		if _, err := f.Write(buf); err != nil {
			return err
		}
		return f.Sync()
	})
	if err != nil {
		return err
	}
	out["store.fsync_probe_us"] = 1000 * ms
	return nil
}

// tpmProbes time the crypto floor under keylime: one quote over the
// boot PCRs and its verification.
func tpmProbes(out map[string]float64) error {
	t, err := tpm.New()
	if err != nil {
		return err
	}
	nonce := []byte("boltedbench-nonce")
	sel := []int{0, 4, 8}
	var q *tpm.Quote
	ms, err := timeMedian(200, func() (err error) {
		q, err = t.Quote(nonce, sel)
		return err
	})
	if err != nil {
		return err
	}
	out["tpm.quote_us"] = 1000 * ms
	ms, err = timeMedian(200, func() error { return tpm.VerifyQuote(t.AIKPublic(), q, nonce) })
	if err != nil {
		return err
	}
	out["tpm.verify_quote_us"] = 1000 * ms
	return nil
}

// journalProbes time Journal.Record on a Manager over store.Memory
// with 0, 1 and 16 watchers attached: the callbacks run under the
// journal mutex, so every stream slows every writer.
func journalProbes(out map[string]float64) error {
	for _, watchers := range []int{0, 1, 16} {
		cloud, err := core.NewCloud(core.DefaultConfig())
		if err != nil {
			return err
		}
		mgr := core.NewManagerWithStore(cloud, store.NewMemory())
		enc, err := mgr.CreateEnclave("probe", core.ProfileCharlie)
		if err != nil {
			return err
		}
		j := enc.Journal()
		seen := 0
		for i := 0; i < watchers; i++ {
			j.Watch(func(core.Event) { seen++ }) // the journal dies with this iteration; nothing to unsubscribe from
		}
		const records = 5000
		begin := time.Now()
		for i := 0; i < records; i++ {
			j.Record(core.EvBooted, "node00", "probe")
		}
		out[fmt.Sprintf("core.journal_record_us.w%d", watchers)] = float64(time.Since(begin).Microseconds()) / records
		if seen != watchers*records {
			return fmt.Errorf("journal probe: %d watcher calls, want %d", seen, watchers*records)
		}
	}
	return nil
}

// acquireProbe times one 4-node batch in process under a profile,
// cold or with the warm pool pre-filled, on a fresh cloud each time.
func acquireProbe(ctx context.Context, profile core.Profile, warm bool) (float64, error) {
	const batch = 4
	return timeMedianSetup(9, func() (func() error, error) {
		cfg := core.DefaultConfig()
		cfg.Nodes = batch
		cloud, err := core.NewCloud(cfg)
		if err != nil {
			return nil, err
		}
		if err := seedImage(cloud); err != nil {
			return nil, err
		}
		enc, err := core.NewEnclave(cloud, "probe", profile)
		if err != nil {
			return nil, err
		}
		if warm {
			pol := core.DefaultPoolPolicy()
			pol.Target, pol.MaxRefill = batch, batch
			if err := enc.ConfigurePool(pol); err != nil {
				return nil, err
			}
			deadline := time.Now().Add(acquireTimeout)
			for {
				if st, _ := enc.PoolStats(); st.Warm >= batch {
					break
				}
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("warm pool never filled")
				}
				time.Sleep(time.Millisecond)
			}
		}
		return func() error {
			res, err := enc.AcquireNodes(ctx, imageName, batch)
			if err != nil {
				return err
			}
			if len(res.Nodes) != batch {
				return fmt.Errorf("probe acquired %d of %d nodes: %v", len(res.Nodes), batch, res.Failed)
			}
			if warm {
				enc.ClosePool()
			}
			return nil
		}, nil
	})
}

// timeMedianSetup is timeMedian with untimed per-iteration set-up.
func timeMedianSetup(n int, setup func() (func() error, error)) (float64, error) {
	var s samples
	for i := 0; i < n; i++ {
		fn, err := setup()
		if err != nil {
			return 0, err
		}
		begin := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		s.add(time.Since(begin))
	}
	return percentile(sorted(s), 50), nil
}

// controlPlaneProbes are the direct timings behind churn-cold: the
// security ladder of the paper's Figure 4 (alice is the control that
// must not move when attestation or crypto code changes), the warm
// path, the crypto floor, the LUKS format every charlie node pays, and
// the journal and fsync calibrations.
func controlPlaneProbes(ctx context.Context, e *env, out map[string]float64) error {
	for _, p := range []core.Profile{core.ProfileAlice, core.ProfileBob, core.ProfileCharlie} {
		ms, err := acquireProbe(ctx, p, false)
		if err != nil {
			return fmt.Errorf("cold acquire probe (%s): %w", p.Name, err)
		}
		out["core.cold_acquire_ms."+p.Name] = ms
	}
	ms, err := acquireProbe(ctx, core.ProfileCharlie, true)
	if err != nil {
		return fmt.Errorf("warm acquire probe: %w", err)
	}
	out["core.warm_acquire_ms.charlie"] = ms

	if out["luks.format_ms"], err = formatProbe(); err != nil {
		return err
	}
	if err := tpmProbes(out); err != nil {
		return err
	}
	if err := journalProbes(out); err != nil {
		return err
	}
	return fsyncProbe(e.scratch, out)
}

// formatProbe times luks.FormatWithIterations with the iteration
// count core uses, on a RAM disk the size of a node's data volume.
func formatProbe() (float64, error) {
	key := make([]byte, 32)
	return timeMedianSetup(20, func() (func() error, error) {
		ram, err := blockdev.NewRAMDisk(core.DataVolumeSize)
		if err != nil {
			return nil, err
		}
		return func() error {
			_, err := luks.FormatWithIterations(ram, key, luksIter)
			return err
		}, nil
	})
}

// mbps times fn over a device's whole 1 MiB blocks and returns MiB/s.
func mbps(blocks int64, fn func(block int64) error) (float64, error) {
	begin := time.Now()
	for b := int64(0); b < blocks; b++ {
		if err := fn(b); err != nil {
			return 0, err
		}
	}
	return float64(blocks) / time.Since(begin).Seconds(), nil
}

// deviceMBps is the median sequential 1 MiB write and read throughput
// of a device over a few whole-device passes.
func deviceMBps(dev blockdev.Device, buf []byte) (write, read float64, err error) {
	blocks := dev.NumSectors() * blockdev.SectorSize / diskBlock
	var ws, rs []float64
	for pass := 0; pass < 3; pass++ {
		w, err := mbps(blocks, func(b int64) error { return dev.WriteSectors(buf, b*sectorsPerBlock) })
		if err != nil {
			return 0, 0, err
		}
		r, err := mbps(blocks, func(b int64) error { return dev.ReadSectors(buf, b*sectorsPerBlock) })
		if err != nil {
			return 0, 0, err
		}
		ws, rs = append(ws, w), append(rs, r)
	}
	return median(ws), median(rs), nil
}

// dataPlaneProbes price each layer of Charlie's disk stack: the stack
// without crypto, with IPsec, with IPsec and LUKS; then the crypto
// primitives on their own.
func dataPlaneProbes(rng *rand.Rand, out map[string]float64) error {
	buf := make([]byte, diskBlock)
	rng.Read(buf)
	key := make([]byte, 64)
	rng.Read(key)

	var plainW, ipsecW, fullW float64
	for _, cfg := range []struct {
		ipsec, luks bool
		w           *float64
	}{{false, false, &plainW}, {true, false, &ipsecW}, {true, true, &fullW}} {
		s, err := newDiskStack("probe", key[:32], cfg.ipsec, cfg.luks)
		if err != nil {
			return err
		}
		w, r, err := deviceMBps(s.dev, buf)
		if err != nil {
			return err
		}
		*cfg.w = w
		if !cfg.ipsec {
			out["blockdev.plain_write_MBps"], out["blockdev.plain_read_MBps"] = w, r
			// Round trips a sequential MiB costs with read-ahead: one
			// more whole-device read pass, counted at the client.
			before := s.nbd.NetReads()
			blocks := s.dev.NumSectors() * blockdev.SectorSize / diskBlock
			if _, err := mbps(blocks, func(b int64) error { return s.dev.ReadSectors(buf, b*sectorsPerBlock) }); err != nil {
				return err
			}
			out["blockdev.round_trips_per_MiB"] = float64(s.nbd.NetReads()-before) / float64(blocks)
		}
	}
	out["ipsec.stack_cost_pct"] = 100 * (plainW - ipsecW) / plainW
	out["luks.stack_cost_pct"] = 100 * (ipsecW - fullW) / ipsecW

	cluster, err := ceph.NewCluster(cephOSDs, cephReplicas)
	if err != nil {
		return err
	}
	img, err := ceph.NewImageDevice(cluster, "probe", diskSize)
	if err != nil {
		return err
	}
	if out["ceph.image_write_MBps"], _, err = deviceMBps(img, buf); err != nil {
		return err
	}

	tx, rx, err := ipsec.NewPair(ipsec.SuiteHWAES, ipsec.NewMasterKey())
	if err != nil {
		return err
	}
	var pkts [][]byte
	const streams = 64
	if out["ipsec.seal_MBps"], err = mbps(streams, func(int64) (err error) {
		pkts, err = ipsec.SegmentStream(tx, buf, ipsecMTU)
		return err
	}); err != nil {
		return err
	}
	// Opening needs fresh packets each time: the replay window rejects
	// a sequence number seen before. Seal untimed, open timed.
	var opened time.Duration
	for i := 0; i < streams; i++ {
		if pkts, err = ipsec.SegmentStream(tx, buf, ipsecMTU); err != nil {
			return err
		}
		begin := time.Now()
		if _, err := ipsec.ReassembleStream(rx, pkts); err != nil {
			return err
		}
		opened += time.Since(begin)
	}
	out["ipsec.open_MBps"] = streams / opened.Seconds()

	ram, err := blockdev.NewRAMDisk(diskSize)
	if err != nil {
		return err
	}
	vol, err := luks.FormatWithIterations(ram, key[:32], luksIter)
	if err != nil {
		return err
	}
	if out["luks.format_ms"], err = formatProbe(); err != nil {
		return err
	}
	if out["luks.write_MBps"], out["luks.read_MBps"], err = deviceMBps(vol, buf); err != nil {
		return err
	}

	c, err := xts.NewCipher(aes.NewCipher, key)
	if err != nil {
		return err
	}
	dst := make([]byte, diskBlock)
	if out["xts.encrypt_MBps"], err = mbps(streams, func(i int64) error {
		return c.EncryptSectors(dst, buf, diskChunk, uint64(i)*chunksPerBlock)
	}); err != nil {
		return err
	}
	if out["xts.decrypt_MBps"], err = mbps(streams, func(i int64) error {
		return c.DecryptSectors(buf, dst, diskChunk, uint64(i)*chunksPerBlock)
	}); err != nil {
		return err
	}
	return nil
}
