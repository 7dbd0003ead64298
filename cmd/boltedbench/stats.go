package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of latency observations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of ascending
// values by the nearest-rank rule: the smallest value with at least
// p percent of the samples at or below it. Empty input gives 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[nearestRank(p, len(asc))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples. The small slack keeps 99.9 % of 10000 at 9990, not at the
// 9991 its binary representation rounds up to.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// median is the middle value (mean of the middle two for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	asc := sorted(v)
	n := len(asc)
	if n%2 == 1 {
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

// tailPercentiles are the tails a timing may be reported at, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before that percentile is worth reporting.
const minBeyond = 10

// supportedTail picks the highest percentile of tailPercentiles that
// still has at least minBeyond samples beyond its nearest rank. With
// too few samples for any tail it returns 50.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && n-nearestRank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// timing is how every latency is printed: median, the highest
// supported tail and the sample count.
type timing struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_percentile"`
	TailMs float64 `json:"tail"`
}

func summarize(v []float64) timing {
	asc := sorted(v)
	p := supportedTail(len(asc))
	return timing{N: len(asc), P50: percentile(asc, 50), TailP: p, TailMs: percentile(asc, p)}
}

// quartiles returns Q1, Q2, Q3 by the exclusive method Python's
// statistics.quantiles(values, n=4) uses, so spreads computed here and
// by the driver agree.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := sorted(v)
	n := len(asc)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return asc[0], asc[0], asc[0]
	}
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based, linear interpolation, clamped
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return asc[j-1] + frac*(asc[j]-asc[j-1])
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worseBy reports by what share of base the value got worse, in the
// metric's direction; negative means it improved.
func worseBy(base, val float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - val) / math.Abs(base)
	}
	return (val - base) / math.Abs(base)
}
