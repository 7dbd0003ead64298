package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: sample line (name plus label set,
// verbatim) -> value.
type scrape map[string]float64

// parseProm reads Prometheus text exposition. Comment lines are
// skipped; a malformed sample line is an error, not silently dropped.
func parseProm(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func scrapeURL(url string) (scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// delta is after minus before per series; a series absent before
// counts from zero.
func (after scrape) delta(before scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// splitSeries separates "name{labels}" into name and the label text
// between the braces.
func splitSeries(key string) (name, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	return key[:i], strings.TrimSuffix(key[i+1:], "}")
}

// sum adds every series of a family whose label text contains each of
// the given fragments (e.g. `class="foreground"`).
func (s scrape) sum(family string, having ...string) float64 {
	var total float64
next:
	for k, v := range s {
		name, labels := splitSeries(k)
		if name != family {
			continue
		}
		for _, h := range having {
			if !strings.Contains(labels, h) {
				continue next
			}
		}
		total += v
	}
	return total
}

type bucket struct {
	le    float64
	count float64 // cumulative
}

// buckets collects a histogram's cumulative buckets across every label
// set that matches, ordered by upper bound.
func (s scrape) buckets(family string, having ...string) []bucket {
	acc := make(map[float64]float64)
next:
	for k, v := range s {
		name, labels := splitSeries(k)
		if name != family+"_bucket" {
			continue
		}
		for _, h := range having {
			if !strings.Contains(labels, h) {
				continue next
			}
		}
		le := math.Inf(1)
		for _, kv := range strings.Split(labels, ",") {
			if val, ok := strings.CutPrefix(kv, `le="`); ok {
				val = strings.TrimSuffix(val, `"`)
				if val != "+Inf" {
					f, err := strconv.ParseFloat(val, 64)
					if err != nil {
						continue next
					}
					le = f
				}
			}
		}
		acc[le] += v
	}
	out := make([]bucket, 0, len(acc))
	for le, c := range acc {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// histQuantile estimates quantile q (0..1) from cumulative buckets,
// interpolating linearly inside the bucket that holds the rank, as
// Prometheus' histogram_quantile does. A rank in the +Inf bucket
// reports the highest finite bound. No observations gives 0.
func histQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 {
		return 0
	}
	total := bs[len(bs)-1].count
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			if b.count == prevCount {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevCount)/(b.count-prevCount)
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe
}

// histMean is sum over count of a histogram family.
func (s scrape) histMean(family string, having ...string) float64 {
	n := s.sum(family+"_count", having...)
	if n == 0 {
		return 0
	}
	return s.sum(family+"_sum", having...) / n
}
