package main

import (
	"math"
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie strictly beyond a reported
// tail percentile for the percentile to be reported at all: a p99 read from
// fewer than this many tail samples is one unlucky request, not a tail.
const minBeyondTail = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending sample: the smallest value with at least p% of the sample at or
// below it. +Inf entries (failed requests) sort last, so they count as
// beyond any finite limit. Empty input yields NaN.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts samples strictly greater than v in an ascending sample.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// tailSupported reports whether the p-th percentile of the sample has at
// least minBeyondTail samples strictly beyond it.
func tailSupported(sorted []float64, p float64) bool {
	return len(sorted) > 0 && beyond(sorted, percentile(sorted, p)) >= minBeyondTail
}

// quartiles returns the three cut points dividing xs into four equal groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle value (mean of the middle two for even counts), as
// Python's statistics.median computes it.
func median(xs []float64) float64 {
	d := sortedCopy(xs)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise figure a metric's bound must dominate.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict compares one metric between a parent's runs and a change's runs.
type verdict struct {
	ParentMedian float64
	ChangeMedian float64
	// Worsening is how much worse the change's median is than the parent's,
	// as a share of the parent's median, in the metric's better-direction
	// (negative means the change improved it).
	Worsening float64
	Regressed bool
}

// compare applies the acceptance rule: the change's median may be worse
// than the parent's median by at most bound, as a share of the parent's.
func compare(parent, change []float64, lowerIsBetter bool, bound float64) verdict {
	pm, cm := median(parent), median(change)
	w := (cm - pm) / pm
	if !lowerIsBetter {
		w = -w
	}
	return verdict{ParentMedian: pm, ChangeMedian: cm, Worsening: w, Regressed: w > bound}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
