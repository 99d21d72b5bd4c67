// Package stats provides the metric post-processing used in the paper's
// evaluation: min-max reward normalization (r−rmin)/(rmax−rmin) and
// forward-backward (filtfilt) smoothing [20] for the online-learning reward
// curves (Figures 7, 9, 11), plus small running-statistics helpers.
package stats

import (
	"math"
	"sort"
)

// Normalize maps v affinely onto [0,1] using its own min and max, the
// paper's (r−rmin)/(rmax−rmin). A constant series maps to all zeros.
func Normalize(v []float64) []float64 {
	out := make([]float64, len(v))
	if len(v) == 0 {
		return out
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi == lo {
		return out
	}
	for i, x := range v {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// FiltFilt applies a first-order low-pass filter forward and then backward
// over v, giving zero-phase smoothing in the style of the forward-backward
// filtering algorithm of Gustafsson [20]. alpha ∈ (0,1] is the new-sample
// weight; smaller is smoother. The input is not modified.
func FiltFilt(v []float64, alpha float64) []float64 {
	n := len(v)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	// Forward pass.
	out[0] = v[0]
	for i := 1; i < n; i++ {
		out[i] = alpha*v[i] + (1-alpha)*out[i-1]
	}
	// Backward pass over the forward result.
	for i := n - 2; i >= 0; i-- {
		out[i] = alpha*out[i] + (1-alpha)*out[i+1]
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation (0 for fewer than 2 values).
func Std(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. Input is not modified.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Running tracks a streaming mean and extrema without storing samples.
type Running struct {
	N        int
	Sum      float64
	Min, Max float64
}

// Add folds in one observation.
func (r *Running) Add(x float64) {
	if r.N == 0 {
		r.Min, r.Max = x, x
	} else {
		r.Min = math.Min(r.Min, x)
		r.Max = math.Max(r.Max, x)
	}
	r.N++
	r.Sum += x
}

// Mean returns the running mean (0 before any Add).
func (r *Running) Mean() float64 {
	if r.N == 0 {
		return 0
	}
	return r.Sum / float64(r.N)
}
