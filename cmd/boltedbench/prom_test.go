package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP bolted_sched_grants_total Grants.
# TYPE bolted_sched_grants_total counter
bolted_sched_grants_total{tenant="t0"} 4
bolted_sched_grants_total{tenant="t1"} 8
# TYPE bolted_wal_fsync_seconds histogram
bolted_wal_fsync_seconds_bucket{le="0.0001"} 0
bolted_wal_fsync_seconds_bucket{le="0.00025"} 10
bolted_wal_fsync_seconds_bucket{le="0.0005"} 30
bolted_wal_fsync_seconds_bucket{le="+Inf"} 40
bolted_wal_fsync_seconds_sum 0.016
bolted_wal_fsync_seconds_count 40
bolted_sched_wait_seconds_bucket{class="background",le="0.0001"} 7
bolted_sched_wait_seconds_bucket{class="background",le="+Inf"} 7
bolted_sched_wait_seconds_bucket{class="foreground",le="0.0001"} 1
bolted_sched_wait_seconds_bucket{class="foreground",le="+Inf"} 1
bolted_odd{detail="has spaces, and = signs"} 3
`

const scrapeAfter = `bolted_sched_grants_total{tenant="t0"} 104
bolted_sched_grants_total{tenant="t1"} 108
bolted_sched_grants_total{tenant="new"} 5
bolted_wal_fsync_seconds_bucket{le="0.0001"} 0
bolted_wal_fsync_seconds_bucket{le="0.00025"} 30
bolted_wal_fsync_seconds_bucket{le="0.0005"} 110
bolted_wal_fsync_seconds_bucket{le="+Inf"} 140
bolted_wal_fsync_seconds_sum 0.056
bolted_wal_fsync_seconds_count 140
bolted_sched_wait_seconds_bucket{class="background",le="0.0001"} 7
bolted_sched_wait_seconds_bucket{class="background",le="+Inf"} 7
bolted_sched_wait_seconds_bucket{class="foreground",le="0.0001"} 41
bolted_sched_wait_seconds_bucket{class="foreground",le="+Inf"} 41
bolted_odd{detail="has spaces, and = signs"} 3
`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPromCounterDelta(t *testing.T) {
	d := mustParse(t, scrapeAfter).delta(mustParse(t, scrapeBefore))
	if got := d.sum("bolted_sched_grants_total"); got != 100+100+5 {
		t.Errorf("grants delta = %g, want 205 (a series new in the second scrape counts from zero)", got)
	}
	if got := d.sum("bolted_sched_grants_total", `tenant="t1"`); got != 100 {
		t.Errorf("grants delta for t1 = %g, want 100", got)
	}
	if got := d.sum("bolted_odd"); got != 0 {
		t.Errorf("unchanged counter delta = %g, want 0", got)
	}
	if got := d.sum("bolted_sched_grants"); got != 0 {
		t.Errorf("a family name must match whole, got %g", got)
	}
}

func TestPromHistogramDelta(t *testing.T) {
	d := mustParse(t, scrapeAfter).delta(mustParse(t, scrapeBefore))
	// Window buckets (cumulative): <=0.1ms 0, <=0.25ms 20, <=0.5ms 80, +Inf 100.
	bs := d.buckets("bolted_wal_fsync_seconds")
	if len(bs) != 4 || bs[1].count != 20 || bs[2].count != 80 || !math.IsInf(bs[3].le, 1) || bs[3].count != 100 {
		t.Fatalf("buckets = %+v", bs)
	}
	// The median is the 50th of 100: 30 into the 60 observations of
	// (0.25ms, 0.5ms], so halfway through that bucket.
	if got, want := histQuantile(bs, 0.5), 0.000375; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %g, want %g", got, want)
	}
	// The 10th lies halfway through (0.1ms, 0.25ms].
	if got, want := histQuantile(bs, 0.1), 0.000175; math.Abs(got-want) > 1e-12 {
		t.Errorf("p10 = %g, want %g", got, want)
	}
	// A rank in the +Inf bucket reports the highest finite bound.
	if got := histQuantile(bs, 0.95); got != 0.0005 {
		t.Errorf("p95 = %g, want 0.0005", got)
	}
	if got, want := d.histMean("bolted_wal_fsync_seconds"), 0.0004; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %g, want %g", got, want)
	}
	// Label filters pick one class of a labelled histogram.
	fg := d.buckets("bolted_sched_wait_seconds", `class="foreground"`)
	if len(fg) != 2 || fg[1].count != 40 {
		t.Errorf("foreground buckets = %+v", fg)
	}
	if got := histQuantile(d.buckets("bolted_sched_wait_seconds", `class="background"`), 0.5); got != 0 {
		t.Errorf("quantile of a histogram with no new observations = %g, want 0", got)
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no buckets = %g, want 0", got)
	}
}

func TestPromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"no_value_here", "name{a=\"b\"} notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}
