package main

import (
	"math"
	"slices"
	"strconv"
)

// tailPercentile picks the tail a sample of n latencies can support:
// the highest percentile, capped at p99, that still has at least ten
// samples beyond it. Below 20 samples nothing above the median
// qualifies.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// percentile reads the nearest-rank percentile p (0 < p <= 1) of an
// ascending sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of an ascending sample, averaging the two middle values of an
// even-sized one.
func median(sorted []int64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return (float64(sorted[n/2-1]) + float64(sorted[n/2])) / 2
}

func medianOf(xs []int64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return median(s)
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentileLabel renders a percentile to one decimal: p99, p86.7.
func percentileLabel(p float64) string {
	return "p" + strconv.FormatFloat(math.Round(p*1000)/10, 'f', -1, 64)
}
