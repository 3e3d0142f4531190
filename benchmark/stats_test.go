package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := medianDur([]time.Duration{time.Second, 3 * time.Second}); got != 2 {
		t.Errorf("medianDur = %g, want 2", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 160)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if got := percentile(v, 50); got != 80 {
		t.Errorf("p50 of 1..160 = %g, want 80", got)
	}
	if got := percentile(v, 90); got != 144 {
		t.Errorf("p90 of 1..160 = %g, want 144", got)
	}
	if got := percentile(v, 100); got != 160 {
		t.Errorf("p100 of 1..160 = %g, want 160", got)
	}
}

// 160 samples leave 16 beyond p90, which is why the served workload
// reports p90; p95 would leave 8, fewer than the 10 a reported
// percentile needs.
func TestTenSamplesBeyondRule(t *testing.T) {
	if got := beyond(160, 90); got != 16 {
		t.Errorf("beyond(160, p90) = %d, want 16", got)
	}
	if got := beyond(160, 95); got >= minTailSamples {
		t.Errorf("beyond(160, p95) = %d: p95 should not qualify", got)
	}
	if got := beyond(99, 90); got >= minTailSamples {
		t.Errorf("beyond(99, p90) = %d: 99 samples cannot carry a p90", got)
	}
	if got := beyond(100, 90); got != minTailSamples {
		t.Errorf("beyond(100, p90) = %d, want %d", got, minTailSamples)
	}
}

// A failed operation enters as +Inf: it sits beyond every percentile
// and drags the tail with it.
func TestFailuresCountAsBeyondEveryPercentile(t *testing.T) {
	v := []float64{1, 1, 1, 1, 1, 1, 1, 1, math.Inf(1), math.Inf(1)}
	if got := percentile(v, 50); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := percentile(v, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %g, want +Inf with 2 of 10 failed", got)
	}
}

// Values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10.2, 9.8, 10.0, 10.4, 9.9, 10.1, 10.3, 9.7, 10.0, 10.6})
	if !near(q1, 9.875) || !near(q2, 10.05) || !near(q3, 10.325) {
		t.Errorf("quartiles = %g %g %g, want 9.875 10.05 10.325", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{2, 1})
	if !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %g .. %g, want 0.75 .. 2.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %g, want 0", got)
	}
}
