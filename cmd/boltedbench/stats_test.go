package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	ten := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// The reported tail is the highest percentile with at least ten
// samples beyond its rank.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {15, 50}, {39, 50}, // p75 of 39 has rank 30, 9 beyond
		{40, 75}, {50, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize(seq(100))
	if s.N != 100 || s.P50 != 50 || s.TailP != 90 || s.TailMs != 90 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
}

// Quartiles must match Python's statistics.quantiles(v, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{30, 10, 20}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relSpread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %g, want 1", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, false); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100 -> 110 worse by %g, want 0.10", got)
	}
	if got := worseBy(100, 90, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worse by %g, want 0.10", got)
	}
	if got := worseBy(100, 90, false); got >= 0 {
		t.Errorf("latency 100 -> 90 is an improvement, got %g", got)
	}
}
