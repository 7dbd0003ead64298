// Command boltedctl is the tenant CLI for a running boltedd: it speaks
// the service-plane REST APIs to manage projects, nodes, networks,
// power and images — and drives the /v1 tenant control plane, where
// enclaves are named server-side resources and batch acquisitions run
// as asynchronous Operations that can be polled, streamed and
// cancelled.
//
// Usage:
//
//	boltedctl [flags] <command> [args]
//
// All flags precede the command (standard library flag parsing stops
// at the first positional argument). `boltedctl -h` prints every
// command with its arguments and help, then the flags; both come from
// the command table below, which is the only list of commands.
//
// Exit codes are script-friendly: 0 success, 1 transport or API error,
// 2 usage error, 3 batch finished but some nodes failed (inspect
// result.failed), 4 operation cancelled, 5 incident open or enclave
// degraded (enclave get with open incidents; incident get while the
// response is still running; incident wait ending degraded/unhandled),
// 6 acquire rejected by admission control (HTTP 429) after the
// client's transparent retries were exhausted, 7 cloud degraded (a
// backend circuit breaker is open: acquires fail fast, `health`
// reports which breaker).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"bolted"
	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/hil"
)

// Script-facing exit codes: partial batch failure is distinct from a
// transport error so automation can branch on BatchResult.Failed.
const (
	exitOK        = 0
	exitError     = 1 // transport or API error
	exitUsage     = 2
	exitPartial   = 3 // operation done, but some nodes were rejected
	exitCancelled = 4 // operation cancelled before completion
	exitIncident  = 5 // incident open, or incident ended degraded/unhandled
	exitQuota     = 6 // acquire rejected by admission control (429), retries exhausted
	exitDegraded  = 7 // cloud degraded: a backend circuit breaker is open
)

var (
	server      = flag.String("server", "http://127.0.0.1:8080", "boltedd service-plane base URL")
	jsonOut     = flag.Bool("json", false, "emit results as JSON")
	profileName = flag.String("profile", "bob", "enclave security profile: alice, bob or charlie")
	project     = flag.String("project", "boltedctl", "enclave name on the /v1 control plane")
	async       = flag.Bool("async", false, "enclave acquire: return the operation immediately instead of waiting")
	idemKey     = flag.String("idem", "", "enclave acquire: idempotency key; a retried submission with the same key resumes the original operation instead of starting a second batch")
	saveAs      = flag.String("save", "", "enclave release: preserve the node's volume as this image")
	follow      = flag.Bool("follow", false, "enclave events: keep streaming live events")

	// The policy flags are bound into the policy they set, so a `set`
	// command can overlay exactly the flags passed (see overlay).
	guardPolicy bolted.GuardPolicyInfo
	poolPolicy  bolted.PoolPolicyInfo
	quota       bolted.TenantQuotaInfo
	resilience  bolted.ResiliencePolicyInfo
)

func init() {
	flag.DurationVar(&guardPolicy.Interval, "interval", 0, "enclave guard enable: IMA check cadence (0 = server default)")
	flag.IntVar(&guardPolicy.MaxConcurrent, "max-quotes", 0, "enclave guard enable: max concurrent quotes per round (0 = server default)")
	flag.IntVar(&guardPolicy.FailureTolerance, "tolerance", 0, "enclave guard enable: consecutive failed rounds before revocation (0 = server default)")
	flag.StringVar(&guardPolicy.Image, "heal-image", "", "enclave guard enable: self-heal with replacements booted from this image")
	flag.IntVar(&poolPolicy.Target, "target", 0, "pool set: warm standby occupancy to maintain")
	flag.IntVar(&poolPolicy.Airlocks, "airlocks", 0, "pool set: parallel attestation airlocks (0 = server default)")
	flag.IntVar(&poolPolicy.MaxRefill, "refill", 0, "pool set: concurrent warm boots (0 = server default)")
	flag.IntVar(&quota.Weight, "weight", 0, "quota set: weighted-fair share of the airlocks (0 = default weight 1)")
	flag.IntVar(&quota.MaxNodes, "max-nodes", 0, "quota set: hard cap on the tenant's total nodes (0 = unlimited)")
	flag.IntVar(&quota.MaxInFlight, "inflight", 0, "quota set: hard cap on concurrent acquires in flight (0 = unlimited)")
	flag.IntVar(&resilience.MaxAttempts, "max-attempts", 0, "resilience set: per-backend-call attempt budget, 1 disables retries (0 = server default)")
	flag.DurationVar(&resilience.RetryBackoff, "retry-backoff", 0, "resilience set: base of the capped full-jitter retry backoff (0 = server default)")
	flag.DurationVar(&resilience.BackoffCap, "backoff-cap", 0, "resilience set: cap on exponential backoff growth (0 = server default)")
	flag.DurationVar(&resilience.PhaseDeadline, "phase-deadline", 0, "resilience set: per-lifecycle-phase deadline (0 = unbounded)")
	flag.IntVar(&resilience.BreakerThreshold, "breaker-threshold", 0, "resilience set: consecutive transient failures that trip a backend breaker (0 = server default)")
	flag.DurationVar(&resilience.BreakerCooldown, "breaker-cooldown", 0, "resilience set: how long a tripped breaker stays open before a half-open probe (0 = server default)")
}

// The clients every command shares, built once the flags are parsed.
var (
	ctx = context.Background()
	hc  *hil.Client
	bc  *bmi.Client
	v1  *bolted.Client
)

// command is one row of the command table; dispatch, the arity check
// and -h are all read from it.
type command struct {
	name     string // one or two words
	args     string // argument synopsis
	help     string
	min, max int // how many arguments follow the name
	// run does the command's work. It returns the value -json prints
	// (nil: none — the human rendering then prints in both modes), the
	// value's human rendering (nil: nothing), and the exit code.
	run func(a []string) (any, func(), int, error)
}

var commands = []command{
	{"project create", "<name>", "create a HIL project", 1, 1, func(a []string) (any, func(), int, error) {
		return done(hc.CreateProject(a[0]))
	}},
	{"node list-free", "", "nodes in the provider's free pool", 0, 0, func(a []string) (any, func(), int, error) {
		return show(printLines)(hc.FreeNodes())
	}},
	{"node allocate", "<project> [node]", "reserve a node (any free one by default) and print its name", 1, 2, func(a []string) (any, func(), int, error) {
		node := optional(a, 1)
		var err error
		if node == "" {
			node, err = hc.AllocateAnyNode(ctx, a[0])
		} else {
			err = hc.AllocateNode(ctx, a[0], node)
		}
		return nil, func() { fmt.Println(node) }, exitOK, err
	}},
	{"node free", "<project> <node>", "return a node to the free pool", 2, 2, func(a []string) (any, func(), int, error) {
		return done(hc.FreeNode(ctx, a[0], a[1]))
	}},
	{"node metadata", "<node>", "provider-published node metadata", 1, 1, func(a []string) (any, func(), int, error) {
		return show(func(md map[string]string) {
			for k, v := range md {
				fmt.Printf("%s=%s\n", k, v)
			}
		})(hc.NodeMetadata(a[0]))
	}},
	{"net create", "<project> <network>", "create a tenant network", 2, 2, func(a []string) (any, func(), int, error) {
		return done(hc.CreateNetwork(ctx, a[0], a[1]))
	}},
	{"net delete", "<project> <network>", "delete a tenant network", 2, 2, func(a []string) (any, func(), int, error) {
		return done(hc.DeleteNetwork(ctx, a[0], a[1]))
	}},
	{"net connect", "<project> <node> <network>", "attach a node to a network", 3, 3, func(a []string) (any, func(), int, error) {
		return done(hc.ConnectNode(ctx, a[0], a[1], a[2]))
	}},
	{"net detach", "<project> <node> <network>", "detach a node from a network", 3, 3, func(a []string) (any, func(), int, error) {
		return done(hc.DetachNode(ctx, a[0], a[1], a[2]))
	}},
	{"power", "<on|off|cycle> <project> <node>", "switch a node's power", 3, 3, func(a []string) (any, func(), int, error) {
		if !slices.Contains([]string{"on", "off", "cycle"}, a[0]) {
			return nil, nil, exitUsage, nil
		}
		return done(hc.Power(ctx, a[1], a[2], a[0]))
	}},
	{"image list", "", "BMI images", 0, 0, func(a []string) (any, func(), int, error) {
		return show(printLines)(bc.ListImages())
	}},
	{"image create", "<name> <size-bytes>", "create an empty image", 2, 2, func(a []string) (any, func(), int, error) {
		size, err := strconv.ParseInt(a[1], 10, 64)
		if err == nil {
			_, err = bc.CreateImage(ctx, a[0], size)
		}
		return done(err)
	}},
	{"image clone", "<src> <dst>", "copy-on-write clone of an image", 2, 2, func(a []string) (any, func(), int, error) {
		_, err := bc.CloneImage(ctx, a[0], a[1])
		return done(err)
	}},
	{"image snapshot", "<src> <snap>", "snapshot an image", 2, 2, func(a []string) (any, func(), int, error) {
		_, err := bc.SnapshotImage(ctx, a[0], a[1])
		return done(err)
	}},
	{"image delete", "<name>", "delete an image", 1, 1, func(a []string) (any, func(), int, error) {
		return done(bc.DeleteImage(ctx, a[0]))
	}},
	{"image bootinfo", "<name>", "kernel, initrd and command line extracted from an image", 1, 1, func(a []string) (any, func(), int, error) {
		bi, err := bc.ExtractBootInfo(ctx, a[0])
		if err != nil {
			return done(err)
		}
		return map[string]any{
				"kernel_id": bi.KernelID, "cmdline": bi.Cmdline,
				"kernel_bytes": len(bi.Kernel), "initrd_bytes": len(bi.Initrd),
			}, func() {
				fmt.Printf("kernel-id: %s\ncmdline:   %s\nkernel:    %d bytes\ninitrd:    %d bytes\n",
					bi.KernelID, bi.Cmdline, len(bi.Kernel), len(bi.Initrd))
			}, exitOK, nil
	}},
	{"firmware verify", "<node> <source-id> <source-file>", "rebuild LinuxBoot from source and compare it against the provider-published platform PCR for the node", 3, 3, func(a []string) (any, func(), int, error) {
		md, err := hc.NodeMetadata(a[0])
		if err != nil {
			return done(err)
		}
		source, err := os.ReadFile(a[2])
		if err == nil {
			err = core.VerifyPublishedFirmware(md, a[1], source)
		}
		return nil, func() {
			fmt.Printf("node %s: published firmware measurement matches your build of %s\n", a[0], a[1])
		}, exitOK, err
	}},
	{"enclave create", "<name>", "create a server-side enclave (-profile)", 1, 1, func(a []string) (any, func(), int, error) {
		return show(func(info *bolted.EnclaveInfo) {
			fmt.Printf("enclave %s created (profile %s)\n", info.Name, info.Profile)
		})(v1.CreateEnclave(ctx, a[0], *profileName))
	}},
	{"enclave list", "", "enclaves on the control plane", 0, 0, func(a []string) (any, func(), int, error) {
		return show(func(encls []*bolted.EnclaveInfo) {
			for _, e := range encls {
				fmt.Printf("%s\tprofile=%s\tnodes=%d\n", e.Name, e.Profile, len(e.Nodes))
			}
		})(v1.ListEnclaves(ctx))
	}},
	{"enclave get", "<name>", "an enclave's nodes and open incidents; exit 5 while an incident is open", 1, 1, func(a []string) (any, func(), int, error) {
		return showExit(printEnclave, func(info *bolted.EnclaveInfo) int {
			return exitIf(len(info.Incidents) > 0, exitIncident)
		})(v1.GetEnclave(ctx, a[0]))
	}},
	{"enclave delete", "<name>", "release every node and delete the enclave", 1, 1, func(a []string) (any, func(), int, error) {
		return done(v1.DeleteEnclave(ctx, a[0]))
	}},
	{"enclave acquire", "<image> <n>", "start a batch acquisition Operation into the -project enclave and follow it to completion (-async returns at once; -idem KEY makes a retried submission resume the original operation)", 2, 2, acquire},
	{"enclave release", "<node>", "release a node of the -project enclave (-save IMAGE keeps its volume)", 1, 1, func(a []string) (any, func(), int, error) {
		return done(v1.ReleaseNode(ctx, *project, a[0], *saveAs))
	}},
	{"enclave reclaim", "<node>", "scrub a rejected-pool node of the -project enclave and return it to the provider's free pool after repair", 1, 1, func(a []string) (any, func(), int, error) {
		return nil, func() {
			fmt.Printf("node %s reclaimed: scrubbed and returned to the free pool\n", a[0])
		}, exitOK, v1.ReclaimNode(ctx, *project, a[0])
	}},
	{"enclave guard", "<name> [enable|disable]", "runtime attestation guard: the bare form shows its status; enable (re)sets the policy from -interval, -max-quotes, -tolerance and -heal-image", 1, 2, func(a []string) (any, func(), int, error) {
		switch optional(a, 1) {
		case "":
			return show(printGuard)(v1.GetGuard(ctx, a[0]))
		case "enable":
			guardPolicy.SelfHeal = guardPolicy.Image != ""
			return show(printGuard)(v1.EnableGuard(ctx, a[0], guardPolicy))
		case "disable":
			return done(v1.DisableGuard(ctx, a[0]))
		}
		return nil, nil, exitUsage, nil
	}},
	{"enclave events", "<name>", "the enclave's lifecycle journal (-follow streams live)", 1, 1, func(a []string) (any, func(), int, error) {
		return done(v1.EnclaveEvents(ctx, a[0], 0, *follow, printer(printEvent)))
	}},
	{"enclave revocations", "<name>", "the verifier's revocation feed for the enclave", 1, 1, func(a []string) (any, func(), int, error) {
		return show(func(revs []bolted.RevocationInfo) {
			for _, rv := range revs {
				fmt.Printf("%s revoked %s: %s\n", rv.At.Format("15:04:05.000"), rv.Node, rv.Reason)
			}
		})(v1.Revocations(ctx, a[0], 0))
	}},
	{"pool set", "<enclave>", "create or update a warm pool of pre-attested standbys (-target, -airlocks, -refill; only the flags passed change)", 1, 1, func(a []string) (any, func(), int, error) {
		var cur bolted.PoolPolicyInfo
		if p, err := v1.GetPool(ctx, a[0]); err == nil {
			cur = p.Policy
		}
		return show(printPool)(v1.ConfigurePool(ctx, a[0], overlay(&poolPolicy, cur)))
	}},
	{"pool get", "<enclave>", "a warm pool's policy, occupancy and hit counters", 1, 1, func(a []string) (any, func(), int, error) {
		return show(printPool)(v1.GetPool(ctx, a[0]))
	}},
	{"pool list", "", "every warm pool", 0, 0, func(a []string) (any, func(), int, error) {
		return show(func(pools []*bolted.PoolInfo) {
			for _, p := range pools {
				fmt.Printf("%s\ttarget=%d warm=%d hits=%d misses=%d\n",
					p.Enclave, p.Policy.Target, p.Warm, p.Hits, p.Misses)
			}
		})(v1.ListPools(ctx))
	}},
	{"pool drain", "<enclave>", "release every standby and idle the refiller", 1, 1, func(a []string) (any, func(), int, error) {
		return show(printPool)(v1.DrainPool(ctx, a[0]))
	}},
	{"pool delete", "<enclave>", "stop and remove a warm pool", 1, 1, func(a []string) (any, func(), int, error) {
		return done(v1.DeletePool(ctx, a[0]))
	}},
	{"quota set", "<tenant>", "set a tenant's weighted-fair share and admission caps (-weight, -max-nodes, -inflight; only the flags passed change)", 1, 1, func(a []string) (any, func(), int, error) {
		var cur bolted.TenantQuotaInfo
		if q, err := v1.GetQuota(ctx, a[0]); err == nil {
			cur = q.Quota
		}
		return show(printQuota)(v1.SetQuota(ctx, a[0], overlay(&quota, cur)))
	}},
	{"quota get", "<tenant>", "a tenant's quota and live usage", 1, 1, func(a []string) (any, func(), int, error) {
		return show(printQuota)(v1.GetQuota(ctx, a[0]))
	}},
	{"quota list", "", "every tenant quota", 0, 0, func(a []string) (any, func(), int, error) {
		return show(func(quotas []bolted.QuotaInfo) {
			for _, q := range quotas {
				fmt.Printf("%s\tweight=%d max-nodes=%d inflight=%d\tnodes=%d in-flight=%d\n",
					q.Tenant, q.Quota.Weight, q.Quota.MaxNodes, q.Quota.MaxInFlight, q.Nodes, q.InFlight)
			}
		})(v1.ListQuotas(ctx))
	}},
	{"quota delete", "<tenant>", "remove a tenant's quota", 1, 1, func(a []string) (any, func(), int, error) {
		return done(v1.DeleteQuota(ctx, a[0]))
	}},
	{"sched stats", "", "airlock scheduler: slots, queue, grants, preemptions, per-tenant shares", 0, 0, func(a []string) (any, func(), int, error) {
		return show(printSched)(v1.SchedStats(ctx))
	}},
	{"health", "", "per-backend circuit breaker states; exit 7 while degraded", 0, 0, func(a []string) (any, func(), int, error) {
		return showExit(printHealth, func(h *bolted.HealthInfo) int {
			return exitIf(h.Degraded, exitDegraded)
		})(v1.Health(ctx))
	}},
	{"resilience get", "[enclave]", "effective retry, breaker and deadline policy (cloud-wide without an enclave)", 0, 1, func(a []string) (any, func(), int, error) {
		return show(printResilience(optional(a, 0)))(v1.GetResilience(ctx, optional(a, 0)))
	}},
	{"resilience set", "[enclave]", "update the policy (-max-attempts, -retry-backoff, -backoff-cap, -phase-deadline, -breaker-threshold, -breaker-cooldown; only the flags passed change)", 0, 1, func(a []string) (any, func(), int, error) {
		enclave := optional(a, 0)
		var cur bolted.ResiliencePolicyInfo
		if p, err := v1.GetResilience(ctx, enclave); err == nil {
			cur = *p
		}
		return show(printResilience(enclave))(v1.SetResilience(ctx, enclave, overlay(&resilience, cur)))
	}},
	{"op list", "", "operations", 0, 0, func(a []string) (any, func(), int, error) {
		return show(func(ops []*bolted.OperationInfo) {
			for _, op := range ops {
				fmt.Printf("%s\t%s\t%s\timage=%s count=%d\n", op.ID, op.Phase, op.Enclave, op.Image, op.Count)
			}
		})(v1.ListOperations(ctx))
	}},
	{"op get", "<id>", "an operation's phase, progress or result", 1, 1, func(a []string) (any, func(), int, error) {
		return show(printOperation)(v1.GetOperation(ctx, a[0]))
	}},
	{"op wait", "<id>", "block until the operation is terminal; exit 3 partial, 4 cancelled", 1, 1, func(a []string) (any, func(), int, error) {
		return showExit(printOperation, operationExitCode)(v1.WaitOperation(ctx, a[0]))
	}},
	{"op cancel", "<id>", "cancel an operation at its next phase boundary", 1, 1, func(a []string) (any, func(), int, error) {
		return show(printOperation)(v1.CancelOperation(ctx, a[0]))
	}},
	{"op events", "<id>", "stream an operation's lifecycle events until it is terminal", 1, 1, func(a []string) (any, func(), int, error) {
		return done(v1.StreamEvents(ctx, a[0], 0, printer(printEvent)))
	}},
	{"op trace", "<id>", "per-node phase timeline from the server's span tracer (recent operations only)", 1, 1, func(a []string) (any, func(), int, error) {
		return show(printTrace)(v1.OperationTrace(ctx, a[0]))
	}},
	{"incident list", "[enclave]", "incidents, oldest first", 0, 1, func(a []string) (any, func(), int, error) {
		return show(func(incs []*bolted.IncidentInfo) {
			for _, inc := range incs {
				fmt.Printf("%s\t%-10s\t%s\t%s\t%s\n", inc.ID, inc.State, inc.Enclave, inc.Node, inc.Reason)
			}
		})(v1.ListIncidents(ctx, optional(a, 0)))
	}},
	{"incident get", "<id>", "an incident and its response steps; exit 5 while the response runs", 1, 1, func(a []string) (any, func(), int, error) {
		return showExit(printIncident, func(inc *bolted.IncidentInfo) int {
			return exitIf(!inc.Terminal(), exitIncident)
		})(v1.GetIncident(ctx, a[0]))
	}},
	{"incident wait", "<id>", "block until the incident is terminal; exit 5 unless resolved", 1, 1, func(a []string) (any, func(), int, error) {
		return showExit(printIncident, func(inc *bolted.IncidentInfo) int {
			return exitIf(inc.State != string(bolted.IncidentResolved), exitIncident)
		})(v1.WaitIncident(ctx, a[0]))
	}},
	{"incident stream", "", "follow every incident update live", 0, 0, func(a []string) (any, func(), int, error) {
		return done(v1.StreamIncidents(ctx, 0, printer(func(inc bolted.IncidentInfo) {
			step := ""
			if n := len(inc.Steps); n > 0 {
				s := inc.Steps[n-1]
				step = s.Name
				if s.Error != "" {
					step += " (" + s.Error + ")"
				}
			}
			fmt.Printf("%s\t%-10s\t%s\t%s\t%s\n", inc.ID, inc.State, inc.Enclave, inc.Node, step)
		})))
	}},
}

func main() {
	flag.Usage = usage
	flag.Parse()
	cmd, args := lookup(flag.Args())
	if cmd == nil || len(args) < cmd.min || len(args) > cmd.max {
		usage()
		os.Exit(exitUsage)
	}
	hc = hil.NewClient(*server)
	bc = bmi.NewClient(*server + "/bmi")
	v1 = bolted.NewClient(*server)
	v, human, code, err := cmd.run(args)
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "boltedctl:", err)
		os.Exit(exitCode(err))
	case code == exitUsage:
		usage()
	case *jsonOut && v != nil:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fmt.Fprintln(os.Stderr, "boltedctl:", err)
			os.Exit(exitError)
		}
	case human != nil:
		human()
	}
	os.Exit(code)
}

// lookup finds the command args name and returns it with its arguments.
func lookup(args []string) (*command, []string) {
	for i := range commands {
		name := strings.Fields(commands[i].name)
		if len(args) >= len(name) && slices.Equal(args[:len(name)], name) {
			return &commands[i], args[len(name):]
		}
	}
	return nil, nil
}

// usage prints the command table, the flags and the exit codes.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: boltedctl [flags] <command> [args]   (flags precede the command)\ncommands:")
	width := 0
	for _, c := range commands {
		width = max(width, len(c.name)+1+len(c.args))
	}
	for _, c := range commands {
		fmt.Fprintf(w, "  %-*s  %s\n", width, strings.TrimSpace(c.name+" "+c.args), c.help)
	}
	fmt.Fprintln(w, "flags:")
	flag.PrintDefaults()
	fmt.Fprintln(w, `exit codes: 0 ok, 1 transport/API error, 2 usage,
            3 partial batch failure, 4 operation cancelled,
            5 incident open / degraded, 6 over quota (429),
            7 cloud degraded (breaker open)`)
}

// done is the result of a command that prints nothing.
func done(err error) (any, func(), int, error) { return nil, nil, exitOK, err }

// show is the result of a command that prints what it fetched:
// show(human)(fetch()) pairs the value with its human rendering.
func show[T any](human func(T)) func(T, error) (any, func(), int, error) {
	return showExit(human, func(T) int { return exitOK })
}

// showExit is show for a command whose exit code depends on what it
// fetched.
func showExit[T any](human func(T), exit func(T) int) func(T, error) (any, func(), int, error) {
	return func(v T, err error) (any, func(), int, error) {
		if err != nil {
			return done(err)
		}
		return v, func() { human(v) }, exit(v), nil
	}
}

func exitIf(cond bool, code int) int {
	if cond {
		return code
	}
	return exitOK
}

// printer is the one NDJSON feed printer: each item goes out as it
// arrives, a compact JSON line under -json, else its human line.
func printer[T any](human func(T)) func(T) error {
	enc := json.NewEncoder(os.Stdout)
	return func(v T) error {
		if *jsonOut {
			return enc.Encode(v)
		}
		human(v)
		return nil
	}
}

// overlay returns cur with the flags the caller passed applied on top.
// A PUT replaces the whole policy, and a zero field is meaningful
// (target 0 drains a pool, max-nodes 0 is unlimited, a zero phase
// deadline is unbounded), so re-running `pool set -airlocks 8` must
// change the airlocks and nothing else. The policy flags are bound into
// *bound: resetting it to cur and setting every passed flag again
// overlays exactly those (flags bound elsewhere are set to the value
// they already hold).
func overlay[P any](bound *P, cur P) P {
	passed := map[flag.Value]string{}
	flag.Visit(func(f *flag.Flag) { passed[f.Value] = f.Value.String() })
	*bound = cur
	for v, s := range passed {
		_ = v.Set(s) // it parsed once already
	}
	return *bound
}

// exitCode maps a failed command onto the script-facing exit codes.
func exitCode(err error) int {
	switch {
	case errors.Is(err, core.ErrOverQuota):
		// The client already retried with backoff; the quota is still
		// exhausted, so give scripts a code they can branch on.
		return exitQuota
	case errors.Is(err, core.ErrDegraded):
		// A backend breaker is open and the server failed the call
		// fast; `boltedctl health` shows which backend.
		return exitDegraded
	}
	return exitError
}

func optional(a []string, i int) string {
	if i < len(a) {
		return a[i]
	}
	return ""
}

// acquire drives a batch acquisition through the /v1 control plane:
// create-or-reuse the -project enclave, start the Operation, and either
// return it at once (-async) or narrate its lifecycle journal until it
// is terminal.
func acquire(a []string) (any, func(), int, error) {
	image := a[0]
	n, err := strconv.Atoi(a[1])
	if err != nil {
		return done(err)
	}
	if _, err := v1.CreateEnclave(ctx, *project, *profileName); err != nil {
		if !errors.Is(err, core.ErrExists) {
			return done(err)
		}
		// Reusing an existing enclave is fine — silently provisioning
		// under a different security posture than the one asked for is
		// not.
		info, err := v1.GetEnclave(ctx, *project)
		if err != nil {
			return done(err)
		}
		if info.Profile != *profileName {
			return done(fmt.Errorf("enclave %q already exists with profile %s (asked for %s); pick another -project or delete it first",
				*project, info.Profile, *profileName))
		}
	}
	op, replayed, err := v1.AcquireIdem(ctx, *project, image, n, *idemKey)
	if err != nil {
		return done(err)
	}
	if replayed && !*jsonOut {
		fmt.Printf("idempotency key %q already committed; resuming operation %s\n", *idemKey, op.ID)
	}
	if *async {
		return op, func() {
			fmt.Printf("operation %s started: %d x %s into enclave %s\n", op.ID, n, image, *project)
			fmt.Printf("follow with: boltedctl op wait %s | op events %s | op cancel %s\n", op.ID, op.ID, op.ID)
		}, exitOK, nil
	}
	if !*jsonOut {
		if err := v1.StreamEvents(ctx, op.ID, 0, printer(printEvent)); err != nil {
			return done(err)
		}
	}
	return showExit(printOperation, operationExitCode)(v1.WaitOperation(ctx, op.ID))
}

// operationExitCode maps a terminal operation onto the script-facing
// exit codes: cancelled and failed-outright are distinct from a batch
// that finished with some nodes rejected.
func operationExitCode(op *bolted.OperationInfo) int {
	switch {
	case op.Phase == string(bolted.OpCancelled):
		return exitCancelled
	case op.Error != "" || op.Result == nil:
		return exitError
	case len(op.Result.Failed) > 0:
		return exitPartial
	default:
		return exitOK
	}
}

func printLines(lines []string) {
	for _, l := range lines {
		fmt.Println(l)
	}
}

// printEvent is the human rendering of one lifecycle journal event,
// shared by `op events`, `enclave events` and the blocking acquire's
// narration.
func printEvent(ev bolted.EventInfo) {
	fmt.Printf("%s %-12s %s %s\n", ev.At.Format("15:04:05.000"), ev.Kind, ev.Node, ev.Detail)
}

// printEnclave is the human rendering of an enclave resource.
func printEnclave(info *bolted.EnclaveInfo) {
	fmt.Printf("enclave %s (profile %s)\n", info.Name, info.Profile)
	for n, st := range info.Nodes {
		fmt.Printf("  %s\t%s\n", n, st)
	}
	for _, id := range info.Incidents {
		fmt.Printf("  open incident %s\n", id)
	}
}

func printOperation(op *bolted.OperationInfo) {
	fmt.Printf("operation %s: %s (enclave %s, %d x %s)\n", op.ID, op.Phase, op.Enclave, op.Count, op.Image)
	if op.Error != "" {
		fmt.Printf("error: %s\n", op.Error)
	}
	if op.Result == nil {
		for n, st := range op.Progress {
			fmt.Printf("  %s\t%s\n", n, st)
		}
		return
	}
	for _, n := range op.Result.Nodes {
		fmt.Printf("allocated %s\n", n)
	}
	for _, f := range op.Result.Failed {
		fmt.Printf("rejected  %s (%s: %s)\n", f.Node, f.Phase, f.Error)
	}
	for _, f := range op.Result.Aborted {
		fmt.Printf("aborted   %s (%s: %s)\n", f.Node, f.Phase, f.Error)
	}
	fmt.Printf("batch: %d allocated, %d rejected, %d aborted in %v\n",
		len(op.Result.Nodes), len(op.Result.Failed), len(op.Result.Aborted), op.Result.Wall)
}

// printTrace is the human rendering of an operation's span tree: the
// operation root, then each node's phase timeline with offsets from the
// operation start — the per-node view of where the pipeline spent its
// time.
func printTrace(spans []bolted.SpanData) {
	if len(spans) == 0 {
		fmt.Println("no spans recorded")
		return
	}
	root := spans[0]
	for _, sp := range spans {
		if sp.Parent == 0 {
			root = sp
			break
		}
	}
	dur := func(sp bolted.SpanData) string {
		if sp.End.IsZero() {
			return "in flight"
		}
		return time.Duration(sp.DurationNS).Round(time.Microsecond).String()
	}
	fmt.Printf("trace %s: %s (%s)\n", root.Trace, root.Name, dur(root))
	// Group phase spans under their node, keeping each node's phases in
	// recorded (start) order and nodes in first-appearance order.
	byNode := make(map[string][]bolted.SpanData)
	var nodes []string
	for _, sp := range spans {
		if sp.Span == root.Span || sp.Node == "" {
			continue
		}
		if _, ok := byNode[sp.Node]; !ok {
			nodes = append(nodes, sp.Node)
		}
		byNode[sp.Node] = append(byNode[sp.Node], sp)
	}
	for _, node := range nodes {
		fmt.Printf("  %s\n", node)
		for _, sp := range byNode[node] {
			line := fmt.Sprintf("    +%-10v %-22s %s",
				sp.Start.Sub(root.Start).Round(time.Microsecond), sp.Name, dur(sp))
			if sp.Error != "" {
				line += "  error: " + sp.Error
			}
			fmt.Println(line)
		}
	}
}

// printGuard is the human rendering of a guard resource.
func printGuard(g *bolted.GuardInfo) {
	heal := "off"
	if g.Policy.SelfHeal {
		heal = "on (image " + g.Policy.Image + ")"
	}
	fmt.Printf("guard on enclave %s: interval=%v max-quotes=%d tolerance=%d self-heal=%s\n",
		g.Enclave, g.Policy.Interval, g.Policy.MaxConcurrent, g.Policy.FailureTolerance, heal)
	fmt.Printf("rounds=%d checks=%d revocations=%d\n", g.Rounds, g.Checks, g.Revocations)
	for _, id := range g.Incidents {
		fmt.Printf("  incident %s\n", id)
	}
}

// printPool is the human rendering of a warm-pool resource.
func printPool(p *bolted.PoolInfo) {
	fmt.Printf("pool on enclave %s: target=%d airlocks=%d max-refill=%d\n",
		p.Enclave, p.Policy.Target, p.Policy.Airlocks, p.Policy.MaxRefill)
	fmt.Printf("warm=%d refilling=%d hits=%d misses=%d drained=%d rejected=%d\n",
		p.Warm, p.Refilling, p.Hits, p.Misses, p.Drained, p.Rejected)
	for _, n := range p.WarmNodes {
		fmt.Printf("  standby %s\n", n)
	}
}

// printSched is the human rendering of the airlock scheduler snapshot.
func printSched(st *bolted.SchedInfo) {
	fmt.Printf("airlock slots %d/%d in use, %d queued, %d grants, %d preemptions\n",
		st.InUse, st.Slots, st.Queued, st.Grants, st.Preemptions)
	tenants := make([]string, 0, len(st.Tenants))
	for tenant := range st.Tenants {
		tenants = append(tenants, tenant)
	}
	sort.Strings(tenants)
	for _, tenant := range tenants {
		ts := st.Tenants[tenant]
		fmt.Printf("  %s\tweight=%g grants=%d queued=%d holding=%d waited=%s\n",
			tenant, ts.Weight, ts.Grants, ts.Queued, ts.Holding, ts.Waited)
	}
}

// printHealth is the human rendering of the degraded-mode snapshot.
func printHealth(h *bolted.HealthInfo) {
	if h.Degraded {
		fmt.Println("cloud DEGRADED: acquires fail fast, warm refill held, guard rounds paused")
	} else {
		fmt.Println("cloud healthy")
	}
	backends := make([]string, 0, len(h.Backends))
	for b := range h.Backends {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	for _, b := range backends {
		bh := h.Backends[b]
		line := fmt.Sprintf("  %-10s %s", b, bh.State)
		if bh.Failures > 0 {
			line += fmt.Sprintf("  consecutive-failures=%d", bh.Failures)
		}
		if bh.Trips > 0 {
			line += fmt.Sprintf("  trips=%d", bh.Trips)
		}
		fmt.Println(line)
	}
}

// printResilience returns the human rendering of a resilience policy
// scoped to an enclave (cloud-wide for "").
func printResilience(enclave string) func(*bolted.ResiliencePolicyInfo) {
	return func(p *bolted.ResiliencePolicyInfo) {
		scope := "cloud-wide"
		if enclave != "" {
			scope = "enclave " + enclave
		}
		deadline := "unbounded"
		if p.PhaseDeadline > 0 {
			deadline = p.PhaseDeadline.String()
		}
		fmt.Printf("resilience (%s): max-attempts=%d retry-backoff=%v backoff-cap=%v phase-deadline=%s\n",
			scope, p.MaxAttempts, p.RetryBackoff, p.BackoffCap, deadline)
		fmt.Printf("breaker: threshold=%d cooldown=%v\n", p.BreakerThreshold, p.BreakerCooldown)
	}
}

// printQuota is the human rendering of a tenant quota with its usage.
func printQuota(q *bolted.QuotaInfo) {
	fmt.Printf("quota %s: weight=%d", q.Tenant, q.Quota.Weight)
	if q.Quota.MaxNodes > 0 {
		fmt.Printf(" max-nodes=%d", q.Quota.MaxNodes)
	}
	if q.Quota.MaxInFlight > 0 {
		fmt.Printf(" inflight=%d", q.Quota.MaxInFlight)
	}
	fmt.Printf(" (using %d nodes, %d acquires in flight)\n", q.Nodes, q.InFlight)
}

// printIncident is the human rendering of an incident resource.
func printIncident(inc *bolted.IncidentInfo) {
	fmt.Printf("incident %s: %s (enclave %s, node %s)\nreason: %s\n",
		inc.ID, inc.State, inc.Enclave, inc.Node, inc.Reason)
	for _, s := range inc.Steps {
		if s.Error != "" {
			fmt.Printf("  %s %-16s FAILED: %s\n", s.At.Format("15:04:05.000"), s.Name, s.Error)
			continue
		}
		fmt.Printf("  %s %-16s %s\n", s.At.Format("15:04:05.000"), s.Name, s.Detail)
	}
}
