package main

import "fmt"

// metricSpec names one metric: its unit, which direction is better
// and, for a per-layer metric, the end-to-end metric and workload it
// is expected to move.
type metricSpec struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Moves  string
}

// bound is the share of the baseline's median by which an end-to-end
// metric may worsen before a change counts as a regression. It is
// sized to the box: ten runs of one commit on the 2-CPU reference
// sandbox usually spread 2-11 % between quartiles, but a minute-long
// slow spell of the host pushed one series to 23 % (bench/README.md),
// and a bound that identical code can break is worse than a loose one.
// Every metric gets the largest bound the driver allows.
const bound = 0.25

var setupS = metricSpec{Name: "setup_s", Unit: "s"}

// endToEnd is the one table of tenant-visible metrics: what each
// workload measures, by name. Every workload also reports setup_s.
// `-sets` compares these rows, and the BENCHMARK.json slots are filled
// from these rows and nothing else (slotsOf).
//
// crash-recover gates its median only: one run sees about 60 restarts,
// which by the minBeyond rule supports p75, not p90.
var endToEnd = map[string][]metricSpec{
	wlChurnCold: {
		{Name: "acquire_ready_p50_ms", Unit: "ms"},
		{Name: "acquire_ready_p90_ms", Unit: "ms"},
		{Name: "nodes_per_s", Unit: "1/s", Higher: true},
	},
	wlPollFeed: {
		{Name: "poll_p50_ms", Unit: "ms"},
		{Name: "poll_p90_ms", Unit: "ms"},
		{Name: "feed_lag_p50_ms", Unit: "ms"},
		{Name: "feed_lag_p90_ms", Unit: "ms"},
		{Name: "acquire_ready_p50_ms", Unit: "ms"},
		{Name: "polls_per_s", Unit: "1/s", Higher: true},
	},
	wlCrashRecover: {
		{Name: "recover_ready_p50_ms", Unit: "ms"},
	},
	wlDiskCharlie: {
		// Sequential operations are 1 MiB each, so MiB/s is also
		// operations per second, the unit of the slot that carries it.
		{Name: "disk_write_MBps", Unit: "MiB/s", Higher: true},
		{Name: "disk_read_MBps", Unit: "MiB/s", Higher: true},
		{Name: "disk_rand4k_iops", Unit: "1/s", Higher: true},
	},
}

// rowsOf is setup_s and then the workload's own rows.
func rowsOf(workload string) []metricSpec {
	return append([]metricSpec{setupS}, endToEnd[workload]...)
}

// slots is BENCHMARK.json's end_to_end list. The driver wants every
// end-to-end metric from every workload, never zero, and the table
// above is sparse — a disk has no acquire latency — so the file names
// positions: set-up time, five latencies and three rates, as many of
// each as the workload with the most of them has.
var slots = func() []metricSpec {
	out := []metricSpec{setupS}
	for i := 1; i <= 5; i++ {
		out = append(out, metricSpec{Name: fmt.Sprintf("lat%d_ms", i), Unit: "ms"})
	}
	for i := 1; i <= 3; i++ {
		out = append(out, metricSpec{Name: fmt.Sprintf("rate%d_per_s", i), Unit: "1/s", Higher: true})
	}
	return out
}()

// slotFill says which row of endToEnd fills a slot on a workload.
type slotFill struct {
	Slot   metricSpec
	Source string // the row's name
	Recip  bool   // carried as 1000/value: a rate as ms per operation, a latency as operations per second
	Repeat bool   // the row already fills an earlier slot; this one gates nothing new
}

// slotsOf fills every slot for a workload. Its latency rows take the
// latency slots in table order and its rate rows the rate slots. A
// slot left over repeats the workload's first row of that kind; a
// workload with no row of that kind (crash-recover has no rate, the
// disk no latency) repeats its first row as a reciprocal.
func slotsOf(workload string) []slotFill {
	byKind := map[bool][]metricSpec{}
	for _, m := range endToEnd[workload] {
		byKind[m.Higher] = append(byKind[m.Higher], m)
	}
	next := map[bool]int{}
	var out []slotFill
	for _, s := range slots {
		if s.Name == setupS.Name {
			out = append(out, slotFill{Slot: s, Source: s.Name})
			continue
		}
		rows, i := byKind[s.Higher], next[s.Higher]
		next[s.Higher]++
		switch {
		case i < len(rows):
			out = append(out, slotFill{Slot: s, Source: rows[i].Name})
		case len(rows) > 0:
			out = append(out, slotFill{Slot: s, Source: rows[0].Name, Repeat: true})
		default:
			out = append(out, slotFill{Slot: s, Source: byKind[!s.Higher][0].Name, Recip: true, Repeat: i > 0})
		}
	}
	return out
}

// value reads the slot out of a workload's measurements.
func (f slotFill) value(r *result) float64 {
	v := r.E2E[f.Source]
	if f.Recip && v != 0 {
		return 1000 / v
	}
	return v
}

func (f slotFill) String() string {
	s := f.Source
	if f.Recip {
		s = "1000 / " + s
	}
	if f.Repeat {
		s += ", repeated"
	}
	return s
}

// What the per-layer rows are expected to move (bench/README.md has the
// same map as a table). "none on X" is a prediction to be checked.
const (
	mvChurn    = "acquire_ready_p50_ms on churn-cold"
	mvChurnTwo = "acquire_ready_p50_ms, nodes_per_s on churn-cold"
	mvPolls    = "poll_p50_ms, polls_per_s on poll-feed; none on disk-charlie"
	mvTails    = "informational tail"
	mvServer   = "acquire_ready_p50_ms on churn-cold; poll_p50_ms on poll-feed"
	mvSched    = "acquire_ready_p90_ms on churn-cold"
	mvCoreSelf = "acquire_ready_p50_ms on churn-cold; recover_ready_p50_ms on crash-recover"
	mvJournal  = "feed_lag_p50_ms, acquire_ready_p50_ms on poll-feed; none on churn-cold at .w0"
	mvLadder   = "security ladder; .charlie tracks acquire_ready_p50_ms on churn-cold, .alice must not move with attestation or crypto code"
	mvRecover  = "recover_ready_p50_ms on crash-recover"
	mvCost     = "resource cost, not gated"
	mvStore    = "acquire_ready_p50_ms, nodes_per_s on churn-cold; feed_lag_p50_ms on poll-feed; none on disk-charlie"
	mvBox      = "calibration of the box: explains a shift in every store.* row"
	mvQuote    = "acquire_ready_p50_ms on churn-cold; recover_ready_p50_ms on crash-recover; none on connection B of poll-feed"
	mvBackend  = "acquire_ready_p50_ms on churn-cold; calls_per_cycle must stay exactly equal across ROADMAP item 2"
	mvBlockdev = "disk_read_MBps, disk_rand4k_iops on disk-charlie"
	mvIPsec    = "disk_write_MBps (seal), disk_read_MBps (open) on disk-charlie"
	mvLUKS     = "disk_write_MBps, disk_read_MBps, disk_rand4k_iops on disk-charlie"
	mvFormat   = "core.phase_provision_ms, so acquire_ready_p50_ms on churn-cold"
	mvTrace    = "the trace's own quality"
)

// perLayer are the single-layer metrics of the traced run. They are
// not gated. A workload that does not exercise a layer reports 0.
var perLayer = []metricSpec{
	{Name: "remote.submit_p50_ms", Unit: "ms", Moves: mvChurnTwo},
	{Name: "remote.release_p50_ms", Unit: "ms", Moves: mvChurnTwo},
	{Name: "remote.wait_overhead_p50_ms", Unit: "ms", Moves: mvChurnTwo},
	{Name: "remote.health_rtt_p50_us", Unit: "us", Moves: mvPolls},
	{Name: "remote.poll_enclave_p50_us", Unit: "us", Moves: mvPolls},
	{Name: "remote.poll_oplist_p50_us", Unit: "us", Moves: mvPolls},
	{Name: "remote.poll_op_p50_us", Unit: "us", Moves: mvPolls},
	{Name: "remote.poll_events_tail_p50_us", Unit: "us", Moves: mvPolls},
	{Name: "remote.bytes_per_poll", Unit: "B", Moves: mvPolls},
	{Name: "remote.acquire_ready_p99_ms", Unit: "ms", Moves: mvTails},
	{Name: "remote.poll_p99_ms", Unit: "ms", Moves: mvTails},
	{Name: "remote.server_self_ms_per_cycle", Unit: "ms", Moves: mvServer},
	{Name: "remote.allocs_per_cycle_added", Unit: "count", Moves: mvServer},
	{Name: "core.op_server_p50_ms", Unit: "ms", Moves: mvChurn},
	{Name: "core.phase_airlock_ms", Unit: "ms", Moves: mvChurn},
	{Name: "core.phase_boot_ms", Unit: "ms", Moves: mvChurn},
	{Name: "core.phase_attest_ms", Unit: "ms", Moves: mvChurn},
	{Name: "core.phase_provision_ms", Unit: "ms", Moves: mvChurn},
	{Name: "core.sched_wait_p50_ms", Unit: "ms", Moves: mvSched},
	{Name: "core.sched_grants_per_cycle", Unit: "count", Moves: mvSched},
	{Name: "core.self_ms_per_cycle", Unit: "ms", Moves: mvCoreSelf},
	{Name: "core.events_per_cycle", Unit: "count", Moves: mvCoreSelf},
	{Name: "core.journal_record_us.w0", Unit: "us", Moves: mvJournal},
	{Name: "core.journal_record_us.w1", Unit: "us", Moves: mvJournal},
	{Name: "core.journal_record_us.w16", Unit: "us", Moves: mvJournal},
	{Name: "core.cold_acquire_ms.alice", Unit: "ms", Moves: mvLadder},
	{Name: "core.cold_acquire_ms.bob", Unit: "ms", Moves: mvLadder},
	{Name: "core.cold_acquire_ms.charlie", Unit: "ms", Moves: mvLadder},
	{Name: "core.warm_acquire_ms.charlie", Unit: "ms", Moves: mvLadder},
	{Name: "core.recover_ms", Unit: "ms", Moves: mvRecover},
	{Name: "core.readopt_ms_per_node", Unit: "ms", Moves: mvRecover},
	{Name: "boltedd.rss_peak_mb", Unit: "MiB", Moves: mvCost},
	{Name: "boltedd.cpu_s_per_1k_cycles", Unit: "s", Moves: mvCost},
	{Name: "store.fsyncs_per_cycle", Unit: "count", Moves: mvStore},
	{Name: "store.group_commit_frames_mean", Unit: "count", Higher: true, Moves: mvStore},
	{Name: "store.fsync_p50_us", Unit: "us", Moves: mvStore},
	{Name: "store.wal_bytes_per_cycle", Unit: "B", Moves: mvStore},
	{Name: "store.busy_ms_per_cycle", Unit: "ms", Moves: mvStore},
	{Name: "store.appends_per_cycle", Unit: "count", Moves: mvStore},
	{Name: "store.syncs_per_cycle", Unit: "count", Moves: mvStore},
	{Name: "store.replay_ms", Unit: "ms", Moves: mvRecover},
	{Name: "store.replay_MBps", Unit: "MiB/s", Higher: true, Moves: mvRecover},
	{Name: "store.fsync_probe_us", Unit: "us", Moves: mvBox},
	{Name: "keylime.quote_us", Unit: "us", Moves: mvQuote},
	{Name: "keylime.quotes_per_cycle", Unit: "count", Moves: mvQuote},
	{Name: "keylime.registrar_ms_per_node", Unit: "ms", Moves: mvQuote},
	{Name: "tpm.quote_us", Unit: "us", Moves: mvQuote},
	{Name: "tpm.verify_quote_us", Unit: "us", Moves: mvQuote},
	{Name: "hil.calls_per_cycle", Unit: "count", Moves: mvBackend},
	{Name: "hil.busy_ms_per_cycle", Unit: "ms", Moves: mvBackend},
	{Name: "bmi.calls_per_cycle", Unit: "count", Moves: mvBackend},
	{Name: "bmi.busy_ms_per_cycle", Unit: "ms", Moves: mvBackend},
	{Name: "driver.boot_ms_per_node", Unit: "ms", Moves: mvBackend},
	{Name: "driver.kexec_ms_per_node", Unit: "ms", Moves: mvBackend},
	{Name: "blockdev.plain_write_MBps", Unit: "MiB/s", Higher: true, Moves: mvBlockdev},
	{Name: "blockdev.plain_read_MBps", Unit: "MiB/s", Higher: true, Moves: mvBlockdev},
	{Name: "blockdev.round_trips_per_MiB", Unit: "count", Moves: mvBlockdev},
	{Name: "ceph.image_write_MBps", Unit: "MiB/s", Higher: true, Moves: mvBlockdev},
	{Name: "ipsec.seal_MBps", Unit: "MiB/s", Higher: true, Moves: mvIPsec},
	{Name: "ipsec.open_MBps", Unit: "MiB/s", Higher: true, Moves: mvIPsec},
	{Name: "ipsec.stack_cost_pct", Unit: "%", Moves: mvIPsec},
	{Name: "luks.write_MBps", Unit: "MiB/s", Higher: true, Moves: mvLUKS},
	{Name: "luks.read_MBps", Unit: "MiB/s", Higher: true, Moves: mvLUKS},
	{Name: "luks.stack_cost_pct", Unit: "%", Moves: mvLUKS},
	{Name: "luks.format_ms", Unit: "ms", Moves: mvFormat},
	{Name: "xts.encrypt_MBps", Unit: "MiB/s", Higher: true, Moves: mvLUKS},
	{Name: "xts.decrypt_MBps", Unit: "MiB/s", Higher: true, Moves: mvLUKS},
	{Name: "trace.coverage_pct", Unit: "%", Higher: true, Moves: mvTrace},
	{Name: "trace.overhead_pct", Unit: "%", Moves: mvTrace},
}

func (m metricSpec) better() string {
	if m.Higher {
		return "higher"
	}
	return "lower"
}
