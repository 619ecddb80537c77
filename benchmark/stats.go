package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least a q share of the samples at or
// below it. xs is not modified; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the middle sample, averaging the two middle ones of an even
// count (so that two repeats report their mean, not the faster one).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; an empty slice yields 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the rule of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method, linear
// interpolation between order statistics), the rule by which the spread
// of a set of runs is judged when the benchmark is accepted. A single
// value is its own quartiles; an empty slice yields 0, 0.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 when the median is 0.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// geomean is the geometric mean of positive values. Non-positive values
// yield 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// reportedPercentiles is the ladder the benchmark reports from.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest percentile of the ladder that
// has at least ten of n samples beyond it, or 0 when even the median
// has fewer (n < 20). Beyond that point a percentile is one or two
// samples and does not repeat from run to run.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportedPercentiles {
		// Nearest rank of p, in whole per-mille so the arithmetic is exact.
		permille := int(math.Round(p * 10))
		rank := (permille*n + 999) / 1000
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// errorRate is failed over attempted; 0 when nothing was attempted.
func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// distinct counts the different values in xs.
func distinct(xs []int) int {
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}
