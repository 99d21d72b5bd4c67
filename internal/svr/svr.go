// Package svr implements linear ε-insensitive Support Vector Regression
// trained by stochastic gradient descent — the learning machinery behind
// the model-based baseline scheduler of Li et al. [25], which the paper
// compares against ("a supervised learning method, Support Vector
// Regression", §1).
package svr

import (
	"fmt"
	"math"
	"math/rand"
)

// Scaler standardizes features to zero mean and unit variance, fitted on
// training data and applied at prediction time.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler computes per-feature mean and standard deviation.
func FitScaler(X [][]float64) *Scaler {
	if len(X) == 0 {
		return &Scaler{}
	}
	d := len(X[0])
	s := &Scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, x := range X {
		for j, v := range x {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(X))
	}
	for _, x := range X {
		for j, v := range x {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(X)))
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply returns the standardized copy of x.
func (s *Scaler) Apply(x []float64) []float64 {
	if len(s.Mean) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}

// SVR is a linear support vector regressor minimizing
//
//	C·Σ max(0, |y − w·x − b| − ε) + ½‖w‖²
//
// by SGD, with features standardized internally.
type SVR struct {
	W       []float64
	B       float64
	Epsilon float64 // ε-insensitive tube half-width
	C       float64 // loss weight
	LR      float64 // SGD learning rate
	Epochs  int

	scaler *Scaler
}

// NewSVR returns an SVR with the given tube width and sensible defaults.
func NewSVR(epsilon float64) *SVR {
	return &SVR{Epsilon: epsilon, C: 1.0, LR: 0.01, Epochs: 200}
}

// Fit trains on (X, y). It returns an error on empty or ragged input.
func (m *SVR) Fit(rng *rand.Rand, X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("svr: need equal-length non-empty X (%d) and y (%d)", len(X), len(y))
	}
	d := len(X[0])
	for i, x := range X {
		if len(x) != d {
			return fmt.Errorf("svr: ragged feature row %d (%d vs %d)", i, len(x), d)
		}
	}
	m.scaler = FitScaler(X)
	Xs := make([][]float64, len(X))
	for i, x := range X {
		Xs[i] = m.scaler.Apply(x)
	}
	m.W = make([]float64, d)
	m.B = 0
	n := len(Xs)
	lambda := 1.0 / (m.C * float64(n)) // regularization per-sample
	for epoch := 0; epoch < m.Epochs; epoch++ {
		for iter := 0; iter < n; iter++ {
			i := rng.Intn(n)
			x := Xs[i]
			pred := m.B
			for j, w := range m.W {
				pred += w * x[j]
			}
			resid := y[i] - pred
			// Subgradient of the ε-insensitive loss.
			var g float64
			switch {
			case resid > m.Epsilon:
				g = -1
			case resid < -m.Epsilon:
				g = 1
			}
			for j := range m.W {
				m.W[j] -= m.LR * (g*x[j] + lambda*m.W[j])
			}
			m.B -= m.LR * g
		}
	}
	return nil
}

// Predict returns the regression estimate for x.
func (m *SVR) Predict(x []float64) float64 {
	if m.W == nil {
		return 0
	}
	xs := m.scaler.Apply(x)
	pred := m.B
	for j, w := range m.W {
		pred += w * xs[j]
	}
	return pred
}
