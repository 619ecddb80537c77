package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of no samples")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	// Two repeats report their mean, not the faster one.
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The quartiles match Python's statistics.quantiles(xs, n=4), the rule a
// set of runs is accepted by; the wanted values were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}, 2.75, 8.25},
		{[]float64{1.5, 2.5, 10, 4}, 1.75, 8.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "m", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "m", Better: "higher", Bound: &bound}
	set := func(xs ...float64) summary {
		return summary{Values: xs, Median: median(xs), Spread: spread(xs)}
	}
	base := set(100, 101, 102, 103, 104)
	for _, tc := range []struct {
		m    metricSpec
		next summary
		want string
	}{
		{lower, set(90, 91, 92, 93, 94), "better"},
		{lower, set(101, 102, 103, 104, 105), "unchanged"},
		{lower, set(120, 121, 122, 123, 124), "worse"},
		{higher, set(120, 121, 122, 123, 124), "better"},
		{higher, set(80, 81, 82, 83, 84), "worse"},
		// A wide set whose median moved less than the bound.
		{lower, set(60, 80, 105, 130, 150), "unresolved"},
	} {
		if got := verdict(tc.m, base, tc.next); got != tc.want {
			t.Errorf("%s %v: verdict %q, want %q", tc.m.Better, tc.next.Values, got, tc.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestErrorRate(t *testing.T) {
	if got := errorRate(3, 12); got != 0.25 {
		t.Errorf("errorRate(3, 12) = %v", got)
	}
	if got := errorRate(0, 0); got != 0 {
		t.Errorf("errorRate(0, 0) = %v", got)
	}
	o := &outcome{}
	for i := 0; i < maxFailureMessages+2; i++ {
		o.attempted++
		o.fail("op %d", i)
	}
	if o.failed != maxFailureMessages+2 || len(o.failures) != maxFailureMessages {
		t.Errorf("failed %d with %d messages", o.failed, len(o.failures))
	}
}

func TestCheckMetrics(t *testing.T) {
	declared := []metricSpec{{Name: "a"}, {Name: "b"}}
	if err := checkMetrics(declared, map[string]float64{"a": 1, "b": 0}); err != nil {
		t.Fatal(err)
	}
	err := checkMetrics(declared, map[string]float64{"a": math.NaN(), "c": 1})
	if err == nil {
		t.Fatal("bad metric set accepted")
	}
	for _, want := range []string{"missing b", "undeclared c", "a is NaN"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}
