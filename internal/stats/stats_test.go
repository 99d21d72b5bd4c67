package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v want %v", out, want)
		}
	}
	if len(Normalize(nil)) != 0 {
		t.Fatal("empty input")
	}
	for _, v := range Normalize([]float64{3, 3, 3}) {
		if v != 0 {
			t.Fatal("constant series should normalize to zeros")
		}
	}
}

// Property: Normalize output is always within [0,1] and preserves order.
func TestNormalizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		for _, x := range raw {
			// Skip values where hi−lo itself overflows float64.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		out := Normalize(raw)
		for i, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			for j := i + 1; j < len(out); j++ {
				if (raw[i] < raw[j]) != (out[i] < out[j]) && raw[i] != raw[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFiltFiltSmoothsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = math.Sin(float64(i)/50) + rng.NormFloat64()*0.5
	}
	sm := FiltFilt(raw, 0.1)
	// Smoothed residual vs clean signal should be much smaller than raw's.
	var rawErr, smErr float64
	for i := range raw {
		clean := math.Sin(float64(i) / 50)
		rawErr += (raw[i] - clean) * (raw[i] - clean)
		smErr += (sm[i] - clean) * (sm[i] - clean)
	}
	if smErr > rawErr/3 {
		t.Fatalf("smoothing ineffective: raw %v smoothed %v", rawErr, smErr)
	}
}

func TestFiltFiltPreservesConstant(t *testing.T) {
	v := []float64{5, 5, 5, 5}
	out := FiltFilt(v, 0.3)
	for _, x := range out {
		if math.Abs(x-5) > 1e-9 {
			t.Fatalf("constant distorted: %v", out)
		}
	}
}

func TestFiltFiltEdgeCases(t *testing.T) {
	if len(FiltFilt(nil, 0.5)) != 0 {
		t.Fatal("nil input")
	}
	// Bad alpha degrades to passthrough.
	v := []float64{1, 2, 3}
	out := FiltFilt(v, -1)
	for i := range v {
		if out[i] != v[i] {
			t.Fatal("alpha<=0 should pass through")
		}
	}
	// Input not modified.
	FiltFilt(v, 0.1)
	if v[0] != 1 || v[2] != 3 {
		t.Fatal("input mutated")
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("empty/short cases")
	}
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("mean %v", Mean(v))
	}
	if math.Abs(Std(v)-2) > 1e-12 {
		t.Fatalf("std %v want 2", Std(v))
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{3, 1, 2, 4, 5}
	if Percentile(v, 0) != 1 || Percentile(v, 100) != 5 {
		t.Fatal("extremes wrong")
	}
	if Percentile(v, 50) != 3 {
		t.Fatalf("median %v", Percentile(v, 50))
	}
	if got := Percentile(v, 75); got != 4 {
		t.Fatalf("p75 %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Input unsorted and unmodified.
	if v[0] != 3 {
		t.Fatal("input mutated")
	}
}

func TestRunning(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Fatal("empty running mean")
	}
	for _, x := range []float64{1, 2, 3, 4} {
		r.Add(x)
	}
	if r.N != 4 || r.Mean() != 2.5 || r.Min != 1 || r.Max != 4 {
		t.Fatalf("running stats wrong: %+v mean=%v", r, r.Mean())
	}
}
