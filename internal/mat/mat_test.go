package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestFromSliceNoCopy(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	m.Set(0, 1, 42)
	if d[1] != 42 {
		t.Fatal("FromSlice should wrap, not copy")
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2)=%v want 6", m.At(1, 2))
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 3, []float64{1})
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 2)
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestMulVec(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	m.MulVec(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MulVec got %v want [-2 -2]", dst)
	}
}

func TestMulVecT(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, -1}
	dst := make([]float64, 3)
	m.MulVecT(dst, x)
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecT got %v want %v", dst, want)
		}
	}
}

// Property: MulVecT(x) agrees with explicitly transposing the matrix.
func TestMulVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m := NewMatrix(rows, cols)
		m.Randomize(rng, 1)
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, cols)
		m.MulVecT(got, x)
		// Explicit transpose.
		tr := NewMatrix(cols, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				tr.Set(j, i, m.At(i, j))
			}
		}
		want := make([]float64, cols)
		tr.MulVec(want, x)
		for j := range want {
			if !almostEqual(got[j], want[j], 1e-12) {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled([]float64{1, 2}, []float64{3, 4}, 0.5)
	want := []float64{1.5, 2, 3, 4}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("got %v want %v", m.Data, want)
		}
	}
}

func TestAxpyAndScale(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{1, 1, 1})
	a.Axpy(b, 2)
	a.Scale(0.5)
	want := []float64{1.5, 2, 2.5}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("got %v want %v", a.Data, want)
		}
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(16, 16)
	m.XavierInit(rng, 16, 16)
	limit := math.Sqrt(6.0 / 32.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %v outside Xavier limit %v", v, limit)
		}
	}
	for _, v := range m.Data {
		if v != 0 {
			return
		}
	}
	t.Fatal("Xavier init produced all zeros")
}

func TestDotAndNorm(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 { // the squared norm
		t.Fatalf("Dot=%v", Dot(a, a))
	}
}

func TestSqDist(t *testing.T) {
	if d := SqDist([]float64{1, 2}, []float64{4, 6}); d != 25 {
		t.Fatalf("SqDist=%v want 25", d)
	}
}

func TestArgmax(t *testing.T) {
	v := []float64{1, 5, 3, 5, -2}
	if Argmax(v) != 1 {
		t.Fatalf("Argmax=%d want 1 (first of ties)", Argmax(v))
	}
	if Argmax(nil) != -1 {
		t.Fatal("empty input should return -1")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	src := []float64{1, 2, 3, 1000} // large value exercises stability
	dst := make([]float64, 4)
	Softmax(dst, src)
	var sum float64
	for _, v := range dst {
		sum += v
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("softmax sums to %v", sum)
	}
	if Argmax(dst) != 3 {
		t.Fatal("softmax should preserve argmax")
	}
}

// Property-based: Dot is symmetric and linear in its first argument.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64, scale float64) bool {
		if len(raw) < 2 {
			return true
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw[:2*n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		if math.Abs(scale) > 1e6 {
			return true
		}
		// Symmetry.
		if !almostEqual(Dot(a, b), Dot(b, a), 1e-6*(1+math.Abs(Dot(a, b)))) {
			return false
		}
		// Linearity: Dot(scale*a, b) == scale*Dot(a, b).
		sa := make([]float64, n)
		copy(sa, a)
		ScaleVec(sa, scale)
		lhs, rhs := Dot(sa, b), scale*Dot(a, b)
		return almostEqual(lhs, rhs, 1e-6*(1+math.Abs(rhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: SqDist(a,b) == ‖a‖² + ‖b‖² − 2·Dot(a,b).
func TestSqDistIdentity(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, v := range raw[:2*n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e4 {
				return true
			}
		}
		lhs := SqDist(a, b)
		rhs := Dot(a, a) + Dot(b, b) - 2*Dot(a, b)
		return almostEqual(lhs, rhs, 1e-6*(1+math.Abs(rhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec64x64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(64, 64)
	m.Randomize(rng, 1)
	x := make([]float64, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

// TestReshape pins the grow-only workspace contract: growth reallocates
// zeroed storage, shrink-then-regrow within capacity reuses the backing
// array and preserves the retained prefix.
func TestReshape(t *testing.T) {
	var m Matrix
	m.Reshape(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("after grow: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("grown storage not zeroed at %d: %v", i, v)
		}
	}
	for i := range m.Data {
		m.Data[i] = float64(i + 1)
	}
	backing := &m.Data[0]
	m.Reshape(1, 3)
	if m.Rows != 1 || len(m.Data) != 3 || &m.Data[0] != backing {
		t.Fatal("shrink within capacity must reuse the backing array")
	}
	m.Reshape(2, 3)
	if &m.Data[0] != backing {
		t.Fatal("regrow within capacity must reuse the backing array")
	}
	for i, want := range []float64{1, 2, 3, 4, 5, 6} {
		if m.Data[i] != want {
			t.Fatalf("retained prefix clobbered at %d: %v", i, m.Data[i])
		}
	}
	m.Reshape(4, 3)
	if m.Rows != 4 || len(m.Data) != 12 {
		t.Fatalf("after realloc: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}
