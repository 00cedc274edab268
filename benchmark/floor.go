package main

import (
	"sort"

	"github.com/tcdnet/tcd/internal/stats"
)

// quietFloor is the benchmark's timing estimator: the mean of the
// fastest tenth of the samples (at least one). On a shared host the
// slow samples measure the neighbours, not the code; the fast tail is
// what the code costs when nothing else contends (README, noise study).
func quietFloor(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return stats.Mean(sorted(samples)[:max(len(samples)/10, 1)])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the two middle ones for even n).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sorted(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantile is the nearest-rank quantile p of the samples, or 0 when
// fewer than ten samples lie beyond it: a tail percentile is reported
// only where it is more than one or two slow requests.
func tailQuantile(samples []float64, p float64) float64 {
	if float64(len(samples))*(1-p) < 10-1e-9 {
		return 0
	}
	return stats.Percentile(samples, p)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the driver computes over ten runs,
// with the same quartile rule as Python's statistics.quantiles(n=4).
func iqrShare(samples []float64) float64 {
	n := len(samples)
	med := median(samples)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(samples)
	q := func(k int) float64 { // exclusive method: position k*(n+1)/4
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / med
}
