package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestPercentileCountsFailuresBeyondAnyLimit(t *testing.T) {
	// 98 fast requests and 2 failures: the failures are the tail.
	xs := make([]float64, 0, 100)
	for i := 0; i < 98; i++ {
		xs = append(xs, 1)
	}
	xs = append(xs, math.Inf(1), math.Inf(1))
	xs = sortedCopy(xs)
	if got := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Fatalf("p99 = %v, want +Inf when 2%% of requests failed", got)
	}
	if got := percentile(xs, 98); got != 1 {
		t.Fatalf("p98 = %v, want 1", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	n := minSamplesForTail(99)
	if n != 1000 {
		t.Fatalf("minSamplesForTail(99) = %d, want 1000", n)
	}
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if tailSupported(mk(n-1), 99) {
		t.Errorf("%d distinct samples leave fewer than %d beyond p99", n-1, minBeyondTail)
	}
	if !tailSupported(mk(n), 99) {
		t.Errorf("%d distinct samples leave %d beyond p99", n, minBeyondTail)
	}
	if got := beyond(mk(n), percentile(mk(n), 99)); got != minBeyondTail {
		t.Errorf("beyond p99 of %d samples = %d, want %d", n, got, minBeyondTail)
	}
	// Ties at the percentile are not beyond it: a sample that is all one
	// value has no tail at all.
	flat := make([]float64, 5000)
	if tailSupported(flat, 99) {
		t.Error("a constant sample has nothing beyond its p99")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns (its default "exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 2.8, 3.3, 2.6, 3.2, 2.4}, 2.575, 2.85, 3.125},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := median(xs); got != 5.5 {
		t.Fatalf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of odd count = %v, want 2", got)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestCompareParentAndChange(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * f
		}
		return out
	}
	// Lower is better: 20% slower breaks a 0.1 bound, 5% slower does not,
	// and a speed-up is negative worsening.
	if v := compare(parent, scale(1.2), true, 0.1); !v.Regressed || !near(v.Worsening, 0.2) {
		t.Errorf("20%% slower: %+v", v)
	}
	if v := compare(parent, scale(1.05), true, 0.1); v.Regressed {
		t.Errorf("5%% slower within a 0.1 bound: %+v", v)
	}
	if v := compare(parent, scale(0.5), true, 0.1); v.Regressed || !near(v.Worsening, -0.5) {
		t.Errorf("2x faster: %+v", v)
	}
	// Higher is better: losing 20% of throughput regresses.
	if v := compare(parent, scale(0.8), false, 0.1); !v.Regressed || !near(v.Worsening, 0.2) {
		t.Errorf("20%% less throughput: %+v", v)
	}
	if v := compare(parent, scale(1.3), false, 0.1); v.Regressed {
		t.Errorf("30%% more throughput: %+v", v)
	}
	// Exactly at the bound is accepted.
	if v := compare([]float64{1}, []float64{1.25}, true, 0.25); v.Regressed {
		t.Errorf("worsening equal to the bound: %+v", v)
	}
}

func TestReadResultsSkipsFailedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	lines := `report line
{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}
{"correct": false, "attempted": 5, "failed": 1, "metrics": {"setup_s": {"value": 99, "unit": "s"}}}
{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 2.5, "unit": "s"}}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if xs := got["setup_s"]; len(xs) != 2 || xs[0] != 1.5 || xs[1] != 2.5 {
		t.Fatalf("setup_s = %v, want [1.5 2.5]: a run whose checks failed must not count", xs)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// minSamplesForTail is the smallest sample size n for which the nearest-rank
// p-th percentile leaves at least minBeyondTail ranks above it (ties aside).
func minSamplesForTail(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyondTail {
			return n
		}
	}
}
