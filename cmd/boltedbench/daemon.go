package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bolted/internal/remote"
)

// imageName is the OS image boltedd seeds at start-up.
const imageName = "fedora28"

// env is what one run of the harness owns: the boltedd binary it
// measures and a scratch directory under the working directory. Every
// child process and data directory is registered here, so one cleanup
// call on any exit path kills, reaps and removes all of them.
type env struct {
	boltedd string // path to the built daemon binary
	outDir  string // where trace files are written
	scratch string // per-run directory for data dirs; removed on cleanup

	mu      sync.Mutex
	daemons map[*daemon]struct{}
	seq     int
}

func newEnv(boltedd, outDir string) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	return &env{boltedd: boltedd, outDir: outDir, scratch: scratch, daemons: make(map[*daemon]struct{})}, nil
}

// cleanup kills and reaps every daemon still running and removes the
// scratch directory.
func (e *env) cleanup() {
	e.mu.Lock()
	var live []*daemon
	for d := range e.daemons {
		live = append(live, d)
	}
	e.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	_ = os.RemoveAll(e.scratch) // best effort: nothing depends on it afterwards
}

// dataDir returns a fresh, not yet existing directory path.
func (e *env) dataDir(label string) string {
	e.mu.Lock()
	e.seq++
	n := e.seq
	e.mu.Unlock()
	return filepath.Join(e.scratch, fmt.Sprintf("%s-%03d", label, n))
}

// freePort picks an unused loopback port just below the kernel's
// ephemeral range. A kernel-chosen port (":0") comes from that range,
// and so does the source port of every connection the harness dials
// while the daemon is still starting — one of which took the daemon's
// port once in ~3000 starts. Below the range only another listener can
// collide, and the probe here sees those.
func freePort() (int, error) {
	lo := 32768
	if raw, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(raw)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil && v > 12000 {
				lo = v
			}
		}
	}
	var lastErr error
	for try := 0; try < 64; try++ {
		port := lo - 1 - rand.Intn(10000)
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			lastErr = err
			continue
		}
		if err := l.Close(); err != nil {
			return 0, err
		}
		return port, nil
	}
	return 0, fmt.Errorf("no free port below %d: %w", lo, lastErr)
}

// daemon is one running boltedd.
type daemon struct {
	env        *env
	cmd        *exec.Cmd
	dir        string
	base       string // http://127.0.0.1:port
	metricsURL string
	started    time.Time // just before exec
	waitErr    chan error
}

// start launches boltedd the way an operator does: durable store,
// observability listener, resilience on (its default), on loopback.
func (e *env) start(dataDir string, nodes int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	mport, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	maddr := fmt.Sprintf("127.0.0.1:%d", mport)
	cmd := exec.Command(e.boltedd, "-addr", addr, "-nodes", strconv.Itoa(nodes),
		"-data-dir", dataDir, "-metrics-addr", maddr)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	d := &daemon{env: e, cmd: cmd, dir: dataDir, base: "http://" + addr,
		metricsURL: "http://" + maddr + "/metrics", waitErr: make(chan error, 1)}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start boltedd: %w", err)
	}
	go func() { d.waitErr <- cmd.Wait() }()
	e.mu.Lock()
	e.daemons[d] = struct{}{}
	e.mu.Unlock()
	return d, nil
}

// kill sends SIGKILL — the crash the store is built for — waits for the
// process to be reaped and forgets it. Safe to call twice.
func (d *daemon) kill() {
	d.env.mu.Lock()
	_, live := d.env.daemons[d]
	delete(d.env.daemons, d)
	d.env.mu.Unlock()
	if !live {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-d.waitErr
}

// pollEvery is how often a starting daemon is polled: coarse enough to
// leave the CPU to the daemon, fine against the ~200 ms it waits for.
const pollEvery = time.Millisecond

// awaitListening polls /v1/health until the daemon answers (recovery
// runs before the listener opens) and returns when it did.
func (d *daemon) awaitListening(ctx context.Context, c *remote.V1Client) (time.Time, error) {
	for {
		select {
		case err := <-d.waitErr:
			d.waitErr <- err
			return time.Time{}, fmt.Errorf("boltedd exited during start: %v", err)
		default:
		}
		if _, err := c.Health(ctx); err == nil {
			return time.Now(), nil
		}
		if err := ctx.Err(); err != nil {
			return time.Time{}, fmt.Errorf("boltedd never listened on %s: %w", d.base, err)
		}
		time.Sleep(pollEvery)
	}
}

// procStat is what /proc knows about the daemon's resource use.
type procStat struct {
	cpuSeconds float64 // utime + stime
	rssPeakMB  float64 // VmHWM
}

func (d *daemon) procStat() (procStat, error) {
	pid := d.cmd.Process.Pid
	var ps procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks.
	s := string(raw)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return ps, fmt.Errorf("proc: short stat line")
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("proc: bad cpu fields")
	}
	const clockTick = 100 // USER_HZ on Linux
	ps.cpuSeconds = (ut + st) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				ps.rssPeakMB = kb / 1024
			}
		}
	}
	return ps, nil
}

// walSize is the size of the daemon's write-ahead log.
func walSize(dir string) int64 {
	info, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		return 0
	}
	return info.Size()
}

// copyDir copies a flat data directory byte for byte.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			return fmt.Errorf("copy %s: unexpected directory %s", src, ent.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
