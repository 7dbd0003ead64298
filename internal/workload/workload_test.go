package workload

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"bolted/internal/blockdev"
	"bolted/internal/ima"
	"bolted/internal/ipsec"
	"bolted/internal/luks"
	"bolted/internal/tpm"
)

func TestFigure7Shapes(t *testing.T) {
	ipsec := SecConfig{IPsec: true}
	both := SecConfig{LUKS: true, IPsec: true}
	luks := SecConfig{LUKS: true}

	// Paper §7.5: EP ~18% under IPsec; CG ~200%; TeraSort ~30% under
	// LUKS+IPsec; Filebench-VM ~50% under IPsec.
	if d := AppEP.Degradation(ipsec); d < 0.10 || d > 0.30 {
		t.Errorf("EP IPsec = %.0f%%, want ~18%%", d*100)
	}
	if d := AppCG.Degradation(ipsec); d < 1.5 || d > 2.5 {
		t.Errorf("CG IPsec = %.0f%%, want ~200%%", d*100)
	}
	if d := AppTeraSort.Degradation(both); d < 0.20 || d > 0.45 {
		t.Errorf("TeraSort LUKS+IPsec = %.0f%%, want ~30%%", d*100)
	}
	if d := AppFilebenchVM.Degradation(ipsec); d < 0.35 || d > 0.70 {
		t.Errorf("Filebench-VM IPsec = %.0f%%, want ~50%%", d*100)
	}
	// Orderings: CG (communication-bound) suffers the most of the MPI
	// suite; EP the least.
	for _, a := range []App{AppFT, AppMG} {
		if AppCG.Degradation(ipsec) <= a.Degradation(ipsec) {
			t.Errorf("CG should degrade more than %s under IPsec", a.Name)
		}
		if AppEP.Degradation(ipsec) >= a.Degradation(ipsec) {
			t.Errorf("EP should degrade less than %s under IPsec", a.Name)
		}
	}
	// LUKS alone is cheap for every app (no app is write-bound enough
	// to suffer): the "value for customers that trust the provider" is
	// avoiding IPsec, not LUKS.
	for _, a := range Figure7Apps {
		if d := a.Degradation(luks); d > 0.10 {
			t.Errorf("%s LUKS = %.0f%%, want < 10%%", a.Name, d*100)
		}
		// Security never speeds things up.
		for _, sec := range AllSecConfigs {
			if a.Degradation(sec) < 0 {
				t.Errorf("%s %v: negative degradation", a.Name, sec)
			}
		}
		// LUKS+IPsec is at least as slow as IPsec alone.
		if a.Degradation(both) < a.Degradation(ipsec)-1e-9 {
			t.Errorf("%s: LUKS+IPsec faster than IPsec", a.Name)
		}
	}
}

func TestMsgTimeRegimes(t *testing.T) {
	// Small messages pay per-packet cost under IPsec.
	smallPlain := msgTime(4<<10, false)
	smallIPsec := msgTime(4<<10, true)
	if ratio := float64(smallIPsec) / float64(smallPlain); ratio < 2.5 {
		t.Errorf("small-message IPsec ratio = %.1f, want > 2.5 (latency-bound)", ratio)
	}
	// Bulk messages degrade by roughly the bandwidth ratio.
	bulkPlain := msgTime(32<<20, false)
	bulkIPsec := msgTime(32<<20, true)
	ratio := float64(bulkIPsec) / float64(bulkPlain)
	if ratio < 1.8 || ratio > 2.6 {
		t.Errorf("bulk IPsec ratio = %.1f, want ~10/4.5", ratio)
	}
	if msgTime(0, true) != 0 {
		t.Error("zero-byte message has nonzero cost")
	}
}

func TestKernelCompileRealWork(t *testing.T) {
	spec := CompileSpec{Files: 200, FileBytes: 4 << 10, Threads: 4, WorkFactor: 10}
	res := RunKernelCompile(spec)
	if res.Files != 200 || res.Wall <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Measured != 0 {
		t.Fatal("measurements taken without IMA")
	}
}

func TestKernelCompileIMAMeasuresEveryFile(t *testing.T) {
	tp, err := tpm.New()
	if err != nil {
		t.Fatal(err)
	}
	col := ima.NewCollector(tp, ima.StressPolicy)
	spec := CompileSpec{Files: 300, FileBytes: 4 << 10, Threads: 8, WorkFactor: 10, IMA: col}
	res := RunKernelCompile(spec)
	if res.Measured != 300 {
		t.Fatalf("measured %d files, want 300", res.Measured)
	}
	if col.Len() != 300 {
		t.Fatalf("collector has %d entries", col.Len())
	}
	// The measurement list is anchored: replay matches PCR 10.
	want, _ := tp.PCRValue(ima.PCR)
	if ima.ReplayAggregate(col.List()) != want {
		t.Fatal("IMA aggregate does not match PCR10 after parallel build")
	}
}

// alternatingMedians runs a and b once each untimed, then n times each,
// alternating, and returns the median wall time of each side: a GC pause
// or a scheduler stall then moves one sample, not the comparison.
func alternatingMedians(n int, a, b func() time.Duration) (time.Duration, time.Duration) {
	a()
	b()
	as, bs := make([]time.Duration, n), make([]time.Duration, n)
	for i := range n {
		as[i], bs[i] = a(), b()
	}
	slices.Sort(as)
	slices.Sort(bs)
	return as[n/2], bs[n/2]
}

func TestKernelCompileScalesWithThreads(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("thread-scaling needs at least 2 CPUs")
	}
	spec1 := CompileSpec{Files: 400, FileBytes: 8 << 10, Threads: 1, WorkFactor: 20}
	spec8 := spec1
	spec8.Threads = 8
	t1, t8 := alternatingMedians(7,
		func() time.Duration { return RunKernelCompile(spec1).Wall },
		func() time.Duration { return RunKernelCompile(spec8).Wall })
	if float64(t1)/float64(t8) < 1.5 {
		t.Errorf("8 threads (%v) not meaningfully faster than 1 (%v)", t8, t1)
	}
}

func TestFilebenchRuns(t *testing.T) {
	disk, err := blockdev.NewRAMDisk(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultFilebenchSpec()
	res, err := RunFilebench(disk, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d operation errors", res.Errors)
	}
	if res.BytesRead == 0 || res.BytesWrit == 0 {
		t.Fatalf("no I/O performed: %+v", res)
	}
	if res.OpsPerSecond() <= 0 {
		t.Fatal("nonpositive throughput")
	}
}

func TestFilebenchOverEncryptedStacks(t *testing.T) {
	// The Figure-7 VM experiment's real data path: the same workload
	// over plain, LUKS, and NBD+IPsec+LUKS stacks all complete
	// error-free; the encrypted stacks are not faster than plain.
	spec := DefaultFilebenchSpec()
	spec.Ops = 80
	spec.Files = 20
	spec.FileBytes = 16 << 10

	mkPlain := func() blockdev.Device {
		d, _ := blockdev.NewRAMDisk(32 << 20)
		return d
	}
	mkLUKS := func() blockdev.Device {
		d, _ := blockdev.NewRAMDisk(32 << 20)
		v, err := luks.FormatWithIterations(d, []byte("k"), 16)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	mkFull := func() blockdev.Device {
		d, _ := blockdev.NewRAMDisk(32 << 20)
		tr, err := blockdev.NewIPsecTransport(blockdev.Loopback{Target: blockdev.NewTarget(d)}, ipsec.SuiteHWAES, 9000)
		if err != nil {
			t.Fatal(err)
		}
		// Small random file I/O wants the small read-ahead (the 8 MiB
		// window is a sequential-read optimization, Fig 3c).
		client, err := blockdev.NewClient(tr, blockdev.DefaultReadAhead)
		if err != nil {
			t.Fatal(err)
		}
		v, err := luks.FormatWithIterations(client, []byte("k"), 16)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var plainWall time.Duration
	for _, stack := range []struct {
		name string
		mk   func() blockdev.Device
	}{{"plain", mkPlain}, {"luks", mkLUKS}, {"nbd+ipsec+luks", mkFull}} {
		res, err := RunFilebench(stack.mk(), spec)
		if err != nil {
			t.Fatalf("%s: %v", stack.name, err)
		}
		if res.Errors != 0 {
			t.Fatalf("%s: %d errors", stack.name, res.Errors)
		}
		if stack.name == "plain" {
			plainWall = res.Wall
		} else if res.Wall < plainWall/4 {
			t.Errorf("%s (%v) implausibly faster than plain (%v)", stack.name, res.Wall, plainWall)
		}
	}
}

func TestFilebenchValidation(t *testing.T) {
	disk, _ := blockdev.NewRAMDisk(1 << 20)
	spec := DefaultFilebenchSpec()
	spec.ReadPct = 99 // mix no longer sums to 100
	if _, err := RunFilebench(disk, spec); err == nil {
		t.Fatal("bad mix accepted")
	}
}

// The Figure-6 claim: IMA overhead on a compile is small even under the
// stress policy.
func TestIMAOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	spec := CompileSpec{Files: 600, FileBytes: 8 << 10, Threads: 4, WorkFactor: 30}
	base, withIMA := alternatingMedians(7,
		func() time.Duration { return RunKernelCompile(spec).Wall },
		func() time.Duration {
			// A fresh TPM and log per run: each run measures every file anew.
			tp, _ := tpm.New()
			measured := spec
			measured.IMA = ima.NewCollector(tp, ima.StressPolicy)
			return RunKernelCompile(measured).Wall
		})

	overhead := float64(withIMA-base) / float64(base)
	if overhead > 0.25 {
		t.Errorf("IMA overhead = %.0f%%, want small (paper: negligible)", overhead*100)
	}
}
