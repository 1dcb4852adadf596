package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one slow request, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of the samples (sorted
// in place) and the number of samples beyond it.  ok is false when fewer
// than minBeyond samples lie above it, in which case the figure is refused.
func percentile(samples []float64, p float64) (v float64, n int, ok bool) {
	if len(samples) == 0 || p <= 0 || p >= 1 {
		return 0, 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	beyond := len(samples) - rank
	return samples[rank-1], beyond, beyond >= minBeyond
}

// tailPercentile returns the highest of the candidate percentiles (given
// in any order) that still has minBeyond samples above it.  ok is false
// when none does.
func tailPercentile(samples []float64, candidates ...float64) (p, v float64, ok bool) {
	sort.Sort(sort.Reverse(sort.Float64Slice(candidates)))
	for _, c := range candidates {
		if v, _, ok := percentile(samples, c); ok {
			return c, v, true
		}
	}
	return 0, 0, false
}

// mustPercentile is percentile for a metric whose name fixes p: a refused
// percentile is an error naming the metric and the sample count.
func mustPercentile(metric string, samples []float64, p float64) (float64, error) {
	v, _, ok := percentile(samples, p)
	if !ok {
		need := int(math.Ceil(minBeyond / (1 - p)))
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g (need >= %d)",
			metric, len(samples), minBeyond, 100*p, need)
	}
	return v, nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
