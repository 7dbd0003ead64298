package main

// The golden CLI suite: every boltedctl command run as a real process
// against an in-process boltedd, its stdout and exit code recorded in
// human and -json form and held to testdata/<scene>.golden. Run with
// -update to rewrite the goldens after a deliberate output change.
//
// The suite only drives the binary, so it runs unchanged against any
// revision of main.go: the command list it checks for coverage is read
// from `boltedctl -h`, and the README check asks the binary itself
// whether each documented command line parses.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolted"
	"bolted/internal/core"
	"bolted/internal/firmware"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestMain re-executes the test binary as boltedctl: a process started
// through a link named boltedctl runs main() instead of the tests.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "boltedctl" {
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// binary links the test binary into a fresh directory as boltedctl.
func binary(t *testing.T) string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "boltedctl")
	if err := os.Symlink(self, bin); err != nil {
		t.Fatal(err)
	}
	return bin
}

// run executes one boltedctl invocation and returns its stdout, stderr
// and exit code.
func run(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	// A race-enabled binary otherwise sleeps a second on every clean exit.
	cmd.Env = append(os.Environ(), "GORACE="+strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit) && exit.ExitCode() >= 0:
		return stdout.String(), stderr.String(), exit.ExitCode()
	default:
		t.Fatalf("boltedctl %s: %v\nstderr: %s", strings.Join(args, " "), err, stderr.String())
		return "", "", 0
	}
}

// world is one in-process boltedd: a fresh cloud, its control plane and
// the HTTP server the CLI talks to, with two faults the rows can arm
// through the backend call seam.
type world struct {
	t     *testing.T
	cloud *bolted.Cloud
	mgr   *bolted.Manager
	srv   *httptest.Server
	files map[string]string // {placeholder} -> path, for row arguments

	failDriver atomic.Bool          // every node-driver call fails, transiently
	holding    atomic.Pointer[held] // calls of one backend method park until released
	parked     atomic.Int32         // calls parked since the last hold
}

// held is an armed hold: calls of method park until ch closes.
type held struct {
	method string
	ch     chan struct{}
}

// flakyError is a transient backend fault: the resilience layer retries
// it and counts it against the backend's breaker.
type flakyError struct{}

func (flakyError) Error() string   { return "injected: node driver unreachable" }
func (flakyError) Transient() bool { return true }

func newWorld(t *testing.T) *world {
	t.Helper()
	cfg := bolted.DefaultConfig()
	cfg.Nodes = 6
	cloud, err := bolted.NewCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, cloud: cloud, files: map[string]string{}}
	// Installed before resilience, so the breakers sit outside the faults
	// and see them.
	cloud.Intercept(func(ctx context.Context, call core.Call, next func(context.Context) error) error {
		if call.Backend == core.BackendDriver {
			if w.failDriver.Load() {
				return flakyError{}
			}
		}
		if h := w.holding.Load(); h != nil && call.Method == h.method {
			w.parked.Add(1)
			<-h.ch
		}
		return next(ctx)
	})
	if err := cloud.EnableResilience(core.ResiliencePolicy{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.BMI.CreateOSImage("fedora28", bolted.OSImageSpec{
		KernelID: "fedora28-4.17.9",
		Kernel:   []byte("vmlinuz-4.17.9-200.fc28"),
		Initrd:   []byte("initramfs-4.17.9-200.fc28"),
		Cmdline:  "root=iscsi ima_policy=tcb",
	}); err != nil {
		t.Fatal(err)
	}
	w.mgr = bolted.NewManager(cloud)
	h, err := bolted.NewServerHandlerWithManager(cloud, w.mgr)
	if err != nil {
		t.Fatal(err)
	}
	// Live feeds (incident stream, enclave events -follow) end after a
	// short grace, so a row that follows one still terminates; what it
	// prints is the history, which is all there is by then.
	w.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query(); q.Get("watch") == "1" || q.Get("follow") == "1" {
			ctx, cancel := context.WithTimeout(r.Context(), 300*time.Millisecond)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		w.release()
		w.srv.Close()
	})
	return w
}

// hold returns a before-step that parks every call of a backend method
// from then on, letting go of whatever the previous hold parked; release
// lets them go.
func hold(method string) func(*world) {
	return func(w *world) {
		w.parked.Store(0)
		if h := w.holding.Swap(&held{method: method, ch: make(chan struct{})}); h != nil {
			close(h.ch)
		}
	}
}

func (w *world) release() {
	if h := w.holding.Swap(nil); h != nil {
		close(h.ch)
	}
}

// settle releases any hold and waits until every operation is terminal.
func (w *world) settle() {
	w.release()
	w.opsSettled()
}

// parkedAt waits until n calls are parked on the armed hold.
func (w *world) parkedAt(n int32) {
	w.until(fmt.Sprintf("%d calls to park", n), func() bool { return w.parked.Load() == n })
}

// until polls cond for up to 20 s.
func (w *world) until(what string, cond func() bool) {
	w.t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			w.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// opsSettled waits until every operation is terminal.
func (w *world) opsSettled() {
	w.until("operations to finish", func() bool {
		for _, op := range w.mgr.ListOperations() {
			if !op.Phase().Terminal() {
				return false
			}
		}
		return true
	})
}

// poolSettled waits until an enclave's pool holds its target with no
// refill in flight.
func (w *world) poolSettled(enclave string) {
	w.opsSettled()
	w.until("warm pool of "+enclave+" to settle", func() bool {
		e, err := w.mgr.Enclave(enclave)
		if err != nil {
			return false
		}
		st, ok := e.PoolStats()
		return ok && st.Warm == st.Policy.Target && st.Refilling == 0
	})
}

func (w *world) enclave(name string) *bolted.Enclave {
	w.t.Helper()
	e, err := w.mgr.Enclave(name)
	if err != nil {
		w.t.Fatal(err)
	}
	return e
}

func (w *world) incident(id string) *bolted.Incident {
	w.t.Helper()
	for _, inc := range w.mgr.ListIncidents("") {
		if inc.ID == id {
			return inc
		}
	}
	w.t.Fatalf("no incident %s", id)
	return nil
}

// row is one boltedctl invocation of a scene: global flags, then the
// command with its arguments ({name} expands to a world file).
type row struct {
	flags, cmd string
	before     func(w *world) // brings the world into the state the row expects
	set        bool           // human lines are map-ordered: compare them as a set
	vary       string         // a regexp for what this row races with: masked as <varies>
}

// scene is a sequence of rows run against one world. Each scene runs
// twice, once in human form and once with -json, on fresh worlds.
type scene struct {
	name string
	rows []row
}

var scenes = []scene{
	{"service-plane", []row{
		{cmd: "node list-free"},
		{cmd: "project create lab"},
		{cmd: "project create lab"},
		{cmd: "node allocate lab"},
		{cmd: "node allocate lab node03"},
		{cmd: "node metadata node00", set: true},
		{cmd: "net create lab data"},
		{cmd: "net connect lab node00 data"},
		{cmd: "net detach lab node00 data"},
		{cmd: "net delete lab data"},
		{cmd: "net delete lab data"},
		{cmd: "power on lab node00"},
		{cmd: "power cycle lab node00"},
		{cmd: "power off lab node00"},
		{cmd: "node free lab node03"},
		{cmd: "node free lab node03"},
		{cmd: "node list-free"},
		{cmd: "image list"},
		{cmd: "image create blank 4096"},
		{cmd: "image create bad lots"},
		{cmd: "image clone fedora28 golden"},
		{cmd: "image snapshot golden golden-snap"},
		{cmd: "image delete golden-snap"},
		{cmd: "image bootinfo fedora28"},
		{cmd: "image list"},
		{cmd: "firmware verify node00 heads-v1.0 {heads}"},
		{cmd: "firmware verify node00 heads-v1.0 {tampered}"},
	}},
	{"usage", []row{
		{cmd: ""},
		{cmd: "node"},
		{cmd: "node allocate"},
		{cmd: "node allocate lab node00 extra"},
		{cmd: "node launch lab"},
		{cmd: "power reboot lab node00"},
		{cmd: "health now"},
		{cmd: "enclave guard lab frobnicate"},
		{cmd: "resilience get lab extra"},
		{cmd: "incident list lab extra"},
		{flags: "-no-such-flag", cmd: "node list-free"},
	}},
	{"enclave", []row{
		{cmd: "enclave list"},
		{flags: "-profile bob", cmd: "enclave create lab"},
		{flags: "-profile bob", cmd: "enclave create lab"},
		{flags: "-profile mallory", cmd: "enclave create other"},
		{cmd: "enclave list"},
		{flags: "-project lab", cmd: "enclave acquire fedora28 1"},
		{cmd: "enclave get lab", set: true},
		{cmd: "op list"},
		{cmd: "op get op-0001"},
		{cmd: "op events op-0001"},
		{cmd: "op trace op-0001"},
		{cmd: "op wait op-0001"},
		{cmd: "op get op-9999"},
		// An async submission answers while its batch is parked before it
		// reserves a node: pending or running, but no progress yet.
		{flags: "-project lab -async", cmd: "enclave acquire fedora28 1", before: hold("AllocateAnyNode"), vary: submitted},
		{flags: "-project lab -idem k1 -async", cmd: "enclave acquire fedora28 1", before: func(w *world) {
			w.settle()
			hold("AllocateAnyNode")(w)
		}, vary: submitted},
		{flags: "-project lab -idem k1 -async", cmd: "enclave acquire fedora28 1", before: (*world).settle},
		{flags: "-profile charlie -project lab", cmd: "enclave acquire fedora28 1"},
		{flags: "-project lab", cmd: "enclave acquire fedora28 many"},
		{cmd: "enclave events lab"},
		{flags: "-project lab -save saved", cmd: "enclave release node00"},
		{flags: "-project lab", cmd: "enclave release node00"},
		{cmd: "image list"},
		{cmd: "enclave delete lab"},
		{cmd: "enclave get lab"},
		{cmd: "enclave delete lab"},
	}},
	{"partial-and-cancel", []row{
		{flags: "-project lab", cmd: "enclave acquire fedora28 2", set: true, before: func(w *world) {
			m, err := w.cloud.Machine("node01")
			if err != nil {
				w.t.Fatal(err)
			}
			m.ReflashFirmware(firmware.NewLinuxBoot(firmware.BuildLinuxBoot("heads-v1.0", []byte("implanted heads")), "m620"))
		}},
		{cmd: "op wait op-0001", set: true},
		{flags: "-project lab", cmd: "enclave reclaim node01"},
		{flags: "-project lab", cmd: "enclave reclaim node01"},
		{flags: "-project lab -async", cmd: "enclave acquire fedora28 2", before: hold("AllocateAnyNode"), vary: submitted},
		{cmd: "op get op-0002", set: true, before: func(w *world) {
			w.parkedAt(1)
			hold("Boot")(w)
			w.parkedAt(2)
		}},
		{cmd: "op cancel op-0002", set: true},
		{cmd: "op wait op-0002", set: true, before: (*world).release},
		{cmd: "op list"},
	}},
	{"quota", []row{
		{flags: "-weight 4 -max-nodes 1 -inflight 2", cmd: "quota set lab"},
		{cmd: "quota get lab"},
		{flags: "-weight 2", cmd: "quota set lab"},
		{cmd: "quota list"},
		{flags: "-project lab", cmd: "enclave acquire fedora28 1"},
		{flags: "-project lab", cmd: "enclave acquire fedora28 1"},
		{cmd: "quota get lab"},
		{cmd: "sched stats"},
		{cmd: "quota delete lab"},
		{cmd: "quota get lab"},
		{cmd: "quota delete lab"},
	}},
	{"pool", []row{
		{flags: "-profile bob", cmd: "enclave create lab"},
		{cmd: "pool get lab"},
		{flags: "-airlocks 2 -refill 1", cmd: "pool set lab"},
		{flags: "-target 1", cmd: "pool set lab", before: hold("Boot"), vary: `refilling"?[:=] ?\d+`},
		{cmd: "pool get lab", before: func(w *world) { w.parkedAt(1) }},
		{cmd: "pool list", before: func(w *world) {
			w.release()
			w.poolSettled("lab")
		}},
		{flags: "-airlocks 3", cmd: "pool set lab"},
		// The refill that replaces the standby parks before its first
		// journal event, so it cannot show in the operation's progress.
		{flags: "-project lab", cmd: "enclave acquire fedora28 1", before: hold("AllocateAnyNode")},
		{cmd: "op wait op-0001"},
		{cmd: "pool get lab", before: func(w *world) {
			w.release()
			w.poolSettled("lab")
		}},
		{cmd: "pool drain lab"},
		{cmd: "pool delete lab"},
		{cmd: "pool get lab"},
		{flags: "-target -1", cmd: "pool set lab"},
	}},
	{"incidents", []row{
		{flags: "-profile bob", cmd: "enclave create lab"},
		{flags: "-project lab", cmd: "enclave acquire fedora28 1"},
		{cmd: "enclave revocations lab", before: func(w *world) {
			w.enclave("lab").Verifier().Revoke("node00", "ima: /tmp/.hidden/exfil.sh not in whitelist")
			w.until("the unhandled incident", func() bool {
				incs := w.mgr.ListIncidents("lab")
				return len(incs) == 1 && incs[0].State().Terminal()
			})
		}},
		{cmd: "incident list"},
		{cmd: "incident list lab"},
		{cmd: "incident list nobody"},
		{cmd: "incident get inc-0001"},
		{cmd: "incident wait inc-0001"},
		{cmd: "enclave get lab", set: true, before: func(w *world) {
			w.mgr.OpenIncident("lab", "node00", "operator drill")
		}},
		{cmd: "incident get inc-0002"},
		{cmd: "incident wait inc-0002", before: func(w *world) {
			w.incident("inc-0002").Close(bolted.IncidentResolved, "drill over")
		}},
		{cmd: "incident get inc-0404"},
		{cmd: "incident stream"},
		{cmd: "enclave guard lab"},
		{flags: "-interval 1h -heal-image fedora28", cmd: "enclave guard lab enable"},
		{flags: "-profile charlie", cmd: "enclave create sec"},
		{flags: "-interval 1h -max-quotes 2 -tolerance 3 -heal-image fedora28", cmd: "enclave guard sec enable"},
		{cmd: "enclave guard sec"},
		{flags: "-tolerance 5", cmd: "enclave guard sec enable"},
		{cmd: "enclave guard sec disable"},
		{cmd: "enclave guard sec"},
		{cmd: "enclave revocations nobody"},
		{cmd: "enclave events lab"},
		{flags: "-follow", cmd: "enclave events lab"},
	}},
	{"resilience", []row{
		{cmd: "resilience get"},
		{flags: "-max-attempts 6 -phase-deadline 2m", cmd: "resilience set"},
		{cmd: "resilience get"},
		{flags: "-retry-backoff 20ms", cmd: "resilience set"},
		{flags: "-profile bob", cmd: "enclave create lab"},
		{flags: "-breaker-threshold 3", cmd: "resilience set lab"},
		{cmd: "resilience get lab"},
		{cmd: "resilience get nobody"},
		{flags: "-max-attempts -1", cmd: "resilience set"},
		{cmd: "health"},
		{flags: "-max-attempts 1 -breaker-threshold 1 -breaker-cooldown 1h", cmd: "resilience set"},
		{flags: "-max-attempts 1 -backoff-cap 1s", cmd: "resilience set lab"},
		{flags: "-project lab", cmd: "enclave acquire fedora28 1", before: func(w *world) { w.failDriver.Store(true) }},
		{cmd: "health"},
		{flags: "-project lab", cmd: "enclave acquire fedora28 1"},
	}},
}

// submitted masks the phase of an operation answered at submission: its
// batch may or may not have started running by then.
const submitted = `"phase": "(pending|running)"`

// Masks: what varies from run to run — wall-clock stamps, measured
// durations, counters the guard's clock drives, random keys — is
// replaced before a comparison. A masked duration keeps at most one
// space after it: column padding there depends on the duration's length.
var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"\d{4}-\d\d-\d\dT[0-9:.]+(Z|[+-]\d\d:\d\d)"`), `"<time>"`},
	{regexp.MustCompile(`\b\d\d:\d\d:\d\d\.\d{3}\b`), `<clock>`},
	{regexp.MustCompile(`"(wall_ns|total_ns|max_ns|waited_ns|duration_ns|span|parent|rounds|checks)": ?\d+`), `"$1": <n>`},
	{regexp.MustCompile(`\b(rounds|checks)=\d+`), `$1=<n>`},
	{regexp.MustCompile(`(tpm_ek_pub"?[=:] ?"?)[0-9a-f]+`), `$1<key>`},
	{regexp.MustCompile(`\b(\d+(\.\d+)?(ns|µs|us|ms|s|m|h))+\b( ?) *`), `<dur>$4`},
}

func mask(out string, r row, json bool) string {
	if r.vary != "" {
		out = regexp.MustCompile(r.vary).ReplaceAllString(out, "<varies>")
	}
	for _, m := range masks {
		out = m.re.ReplaceAllString(out, m.with)
	}
	if r.set && !json {
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		sort.Strings(lines)
		out = strings.Join(lines, "\n") + "\n"
	}
	return out
}

// entry is one recorded invocation.
type entry struct {
	line string // "$ boltedctl ..." as it appears in the golden
	out  string
	code int
}

func (e entry) String() string {
	return fmt.Sprintf("%s\n%s[exit %d]\n", e.line, e.out, e.code)
}

// play runs a scene on a fresh world and records every row.
func play(t *testing.T, bin string, sc scene, json bool) []entry {
	w := newWorld(t)
	dir := t.TempDir()
	for name, body := range map[string]string{
		"heads":    "heads source tree v1.0 (reproducible)",
		"tampered": "heads source tree v1.0 (with a backdoor)",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		w.files["{"+name+"}"] = path
	}
	var out []entry
	for _, r := range sc.rows {
		if r.before != nil {
			r.before(w)
		}
		shown := strings.Fields(r.flags)
		if json {
			shown = append([]string{"-json"}, shown...)
		}
		shown = append(shown, strings.Fields(r.cmd)...)
		args := append([]string{"-server", w.srv.URL}, shown...)
		for i, a := range args {
			if p, ok := w.files[a]; ok {
				args[i] = p
			}
		}
		stdout, stderr, code := run(t, bin, args...)
		if testing.Verbose() && stderr != "" && code != exitUsage {
			t.Logf("boltedctl %s: stderr: %s", strings.Join(shown, " "), stderr)
		}
		out = append(out, entry{
			line: strings.TrimSpace("$ boltedctl " + strings.Join(shown, " ")),
			out:  mask(stdout, r, json),
			code: code,
		})
	}
	return out
}

// TestGoldenCLI runs every scene in both output forms and compares the
// transcript with its golden. Scenes run side by side, each on its own
// worlds.
func TestGoldenCLI(t *testing.T) {
	bin := binary(t)
	var (
		mu   sync.Mutex
		ran  int
		seen = map[int]bool{}
	)
	t.Run("scene", func(t *testing.T) {
		for _, sc := range scenes {
			t.Run(sc.name, func(t *testing.T) {
				t.Parallel()
				playScene(t, bin, sc, func(code int) {
					mu.Lock()
					defer mu.Unlock()
					seen[code] = true
				})
				mu.Lock()
				ran++
				mu.Unlock()
			})
		}
	})
	if ran < len(scenes) {
		return // some scenes filtered out or failed: the coverage below is partial
	}
	// Every script-facing exit code the README documents shows up.
	for code := exitOK; code <= exitDegraded; code++ {
		if !seen[code] {
			t.Errorf("no row exits %d", code)
		}
	}
}

// playScene plays a scene in both forms and holds the transcript to the
// scene's golden, reporting every exit code it saw.
func playScene(t *testing.T, bin string, sc scene, saw func(code int)) {
	human := play(t, bin, sc, false)
	js := play(t, bin, sc, true)
	var b strings.Builder
	for i := range human {
		if human[i].code != js[i].code {
			t.Errorf("%s: exit %d, but %d under -json", human[i].line, human[i].code, js[i].code)
		}
		saw(human[i].code)
		b.WriteString(human[i].String())
		b.WriteString("\n")
		b.WriteString(js[i].String())
		b.WriteString("\n")
	}
	path := filepath.Join("testdata", sc.name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s differs from the golden:\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff names the first golden entry that differs.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n\n"), strings.Split(got, "\n\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var we, ge string
		if i < len(w) {
			we = w[i]
		}
		if i < len(g) {
			ge = g[i]
		}
		if we != ge {
			return fmt.Sprintf("--- golden\n%s\n+++ got\n%s", we, ge)
		}
	}
	return "(whitespace only)"
}

// TestHelpCommandsCovered: every command `boltedctl -h` lists has a row
// in the golden suite. -h exits 0 and writes to stderr only.
func TestHelpCommandsCovered(t *testing.T) {
	stdout, stderr, code := run(t, binary(t), "-h")
	if code != exitOK || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	covered := map[string]bool{}
	for _, sc := range scenes {
		for _, r := range sc.rows {
			f := strings.Fields(r.cmd)
			for n := 1; n <= min(2, len(f)); n++ {
				covered[strings.Join(f[:n], " ")] = true
			}
		}
	}
	listed := 0
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		line := sc.Text()
		// A command line: two spaces, the command's name words, then its
		// argument synopsis and, two spaces further, its help.
		if !strings.HasPrefix(line, "  ") || len(line) < 3 || line[2] < 'a' || line[2] > 'z' {
			continue
		}
		synopsis, _, _ := strings.Cut(line[2:], "  ")
		var name []string
		for _, word := range strings.Fields(synopsis) {
			if strings.ContainsAny(word[:1], "<[(") {
				break
			}
			name = append(name, word)
		}
		listed++
		if !covered[strings.Join(name, " ")] {
			t.Errorf("-h lists %q, which no golden row runs", strings.Join(name, " "))
		}
	}
	if strings.Contains(stderr, "\ncommands:") && listed == 0 {
		t.Errorf("-h has a command table but lists no command:\n%s", stderr)
	}
}

// readmeSpan is an inline code span that starts with boltedctl.
var readmeSpan = regexp.MustCompile("`(boltedctl [^`]*)`")

// readmeCommands returns every boltedctl command line README.md shows:
// lines of its code blocks (continuations joined, comments and shell
// plumbing cut) and inline spans that spell a whole command.
func readmeCommands(t *testing.T) []string {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	add := func(line string) {
		line, _, _ = strings.Cut(line, "#")
		line, _, _ = strings.Cut(line, "||")
		line, _, _ = strings.Cut(line, "|")
		f := strings.Fields(line)
		i := slices.Index(f, "boltedctl")
		if j := slices.Index(f, "./cmd/boltedctl"); j >= 0 {
			i = j
		}
		if i >= 0 && i+1 < len(f) {
			out = append(out, strings.Join(f[i+1:], " "))
		}
	}
	inBlock, cont := false, ""
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inBlock = !inBlock
			continue
		}
		if inBlock {
			if strings.HasSuffix(line, `\`) {
				cont += strings.TrimSuffix(line, `\`) + " "
				continue
			}
			if line, cont = cont+line, ""; strings.HasPrefix(strings.TrimSpace(line), "boltedctl ") ||
				strings.Contains(line, "go run ./cmd/boltedctl ") {
				add(line)
			}
			continue
		}
		for _, span := range readmeSpan.FindAllStringSubmatch(line, -1) {
			if !strings.ContainsAny(span[1], "<.") {
				add(span[1])
			}
		}
	}
	return out
}

// TestReadmeCommandsParse: every boltedctl command line in README.md is
// a known command with the right arity and known flags — run against a
// server that refuses everything, it fails on the wire (exit 1), never
// as a usage error (exit 2).
func TestReadmeCommandsParse(t *testing.T) {
	refuse := httptest.NewServer(http.NotFoundHandler())
	defer refuse.Close()
	bin := binary(t)
	lines := readmeCommands(t)
	if len(lines) < 20 {
		t.Fatalf("found only %d boltedctl lines in README.md: %q", len(lines), lines)
	}
	for _, line := range lines {
		_, stderr, code := run(t, bin, append([]string{"-server", refuse.URL}, strings.Fields(line)...)...)
		if code == exitUsage {
			t.Errorf("README: boltedctl %s: usage error\n%s", line, firstLine(stderr))
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
