package svr

import (
	"math"
	"math/rand"
	"testing"
)

func linearData(rng *rand.Rand, n int, noise float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64()}
		X[i] = x
		y[i] = 2*x[0] - 1.5*x[1] + 0.5*x[2] + 3 + rng.NormFloat64()*noise
	}
	return X, y
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	s := FitScaler(X)
	if math.Abs(s.Mean[0]-3) > 1e-12 || math.Abs(s.Mean[1]-30) > 1e-12 {
		t.Fatalf("means %v", s.Mean)
	}
	z := s.Apply([]float64{3, 30})
	if math.Abs(z[0]) > 1e-12 || math.Abs(z[1]) > 1e-12 {
		t.Fatalf("center not zero: %v", z)
	}
	// Constant feature gets Std=1 (no division blowup).
	s2 := FitScaler([][]float64{{7}, {7}})
	if s2.Std[0] != 1 {
		t.Fatalf("constant feature std %v", s2.Std[0])
	}
	// Empty scaler passes through.
	s3 := FitScaler(nil)
	out := s3.Apply([]float64{1, 2})
	if out[0] != 1 || out[1] != 2 {
		t.Fatal("empty scaler should pass through")
	}
}

func TestSVRFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := linearData(rng, 400, 0.1)
	m := NewSVR(0.05)
	if err := m.Fit(rng, X, y); err != nil {
		t.Fatal(err)
	}
	var mse float64
	Xt, yt := linearData(rng, 200, 0)
	for i := range Xt {
		d := m.Predict(Xt[i]) - yt[i]
		mse += d * d
	}
	mse /= float64(len(Xt))
	if mse > 0.5 {
		t.Fatalf("SVR mse %v too high", mse)
	}
}

func TestSVRRobustToOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := linearData(rng, 300, 0.05)
	// Inject gross outliers.
	for i := 0; i < 15; i++ {
		y[i] += 500
	}
	m := NewSVR(0.1)
	if err := m.Fit(rng, X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := linearData(rng, 100, 0)
	var mse float64
	for i := range Xt {
		d := m.Predict(Xt[i]) - yt[i]
		mse += d * d
	}
	mse /= float64(len(Xt))
	// The ε-insensitive (L1-like) loss caps each outlier's pull; the fit
	// should stay usable.
	if mse > 30 {
		t.Fatalf("SVR not robust: mse %v", mse)
	}
}

func TestSVRErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewSVR(0.1)
	if err := m.Fit(rng, nil, nil); err == nil {
		t.Fatal("empty input should fail")
	}
	if err := m.Fit(rng, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if err := m.Fit(rng, [][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged rows should fail")
	}
	if m.Predict([]float64{1}) != 0 {
		t.Fatal("untrained predict should be 0")
	}
}

func TestSVRCannotCaptureInteraction(t *testing.T) {
	// The paper's critique of the model-based approach: component-wise
	// linear prediction misses interactions. A linear SVR trained on
	// y = x0·x1 must have high residual error — this documents the
	// failure mode the reproduction relies on.
	rng := rand.New(rand.NewSource(5))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = X[i][0] * X[i][1] * 5
	}
	m := NewSVR(0.05)
	if err := m.Fit(rng, X, y); err != nil {
		t.Fatal(err)
	}
	var mse, variance float64
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		mse += d * d
		variance += y[i] * y[i]
	}
	if mse < variance/2 {
		t.Fatalf("linear SVR unexpectedly captured the interaction: mse=%v var=%v", mse/float64(n), variance/float64(n))
	}
}
