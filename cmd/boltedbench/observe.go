package main

import "fmt"

// liveObs is what the daemon's own surfaces say about one window:
// the /metrics delta, /proc resource use and WAL growth, next to the
// client-side tally.
type liveObs struct {
	t        *tally
	cycles   int
	metrics  scrape // after minus before
	cpuS     float64
	rssMB    float64
	walBytes int64
}

// observeDaemon runs fn between two scrapes of the daemon.
func observeDaemon(d *daemon, fn func() (*tally, int)) (*liveObs, error) {
	before, err := scrapeURL(d.metricsURL)
	if err != nil {
		return nil, err
	}
	psBefore, err := d.procStat()
	if err != nil {
		return nil, err
	}
	walBefore := walSize(d.dir)
	o := &liveObs{}
	o.t, o.cycles = fn()
	after, err := scrapeURL(d.metricsURL)
	if err != nil {
		return nil, err
	}
	psAfter, err := d.procStat()
	if err != nil {
		return nil, err
	}
	if o.cycles == 0 {
		return nil, fmt.Errorf("no cycle completed in the observed window")
	}
	o.metrics = after.delta(before)
	o.cpuS = psAfter.cpuSeconds - psBefore.cpuSeconds
	o.rssMB = psAfter.rssPeakMB
	o.walBytes = walSize(d.dir) - walBefore
	return o, nil
}

// fill writes the scheduler, store and process rows.
func (o *liveObs) fill(out map[string]float64) {
	n := float64(o.cycles)
	m := o.metrics
	out["core.sched_wait_p50_ms"] = 1e3 * histQuantile(m.buckets("bolted_sched_wait_seconds", `class="foreground"`), 0.5)
	out["core.sched_grants_per_cycle"] = m.sum("bolted_sched_grants_total") / n
	out["store.fsyncs_per_cycle"] = m.sum("bolted_wal_fsync_seconds_count") / n
	out["store.group_commit_frames_mean"] = m.histMean("bolted_wal_group_commit_frames")
	out["store.fsync_p50_us"] = 1e6 * histQuantile(m.buckets("bolted_wal_fsync_seconds"), 0.5)
	out["store.wal_bytes_per_cycle"] = float64(o.walBytes) / n
	out["boltedd.rss_peak_mb"] = o.rssMB
	out["boltedd.cpu_s_per_1k_cycles"] = 1000 * o.cpuS / n
}
