package main

import (
	"math"
	"sort"
)

// Latencies are kept as raw samples, never bucketed: every percentile the
// benchmark reports is an exact order statistic of what it measured.

// summary describes one sample of durations (or any values).
type summary struct {
	N     int     // samples, +Inf ones (requests that missed) included
	P50   float64 // median
	TailQ float64 // the tail percentile reported, as a fraction (0.99 …)
	Tail  float64 // value at TailQ
	Mean  float64 // mean of the finite samples
}

// tailLevels are the tail percentiles considered, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// quantile returns the nearest-rank q-quantile of sorted (ascending): the
// smallest sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailLevel returns the highest percentile in tailLevels that leaves at
// least ten of n samples strictly beyond its rank, or 0.5 when none does.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

// summarize sorts a copy of values and reports its median, its supported
// tail percentile and the mean of its finite values.
func summarize(values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: quantile(s, 0.5)}
	out.TailQ = tailLevel(len(s))
	out.Tail = quantile(s, out.TailQ)
	var sum float64
	var finite int
	for _, v := range s {
		if !math.IsInf(v, 0) {
			sum += v
			finite++
		}
	}
	if finite > 0 {
		out.Mean = sum / float64(finite)
	}
	return out
}

// median of values (NaN when empty).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean of values (NaN when empty).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// percentile is the nearest-rank q-quantile of unsorted values.
func percentile(values []float64, q float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, q)
}
