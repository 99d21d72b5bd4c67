// Package mat provides the dense float64 vector and matrix kernels used by
// the neural-network and reinforcement-learning packages.
//
// The package is deliberately small: it implements exactly the operations a
// 2-layer feedforward network with backpropagation needs (GEMM, GEMV, outer
// products, element-wise maps, axpy) plus a handful of statistics helpers.
// Matrices are stored row-major in a single backing slice so that the hot
// loops are cache-friendly and allocation-free when the caller reuses
// destinations.
package mat

import (
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		shapePanic("NewMatrix", "negative dimensions %s", dims(rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Reshape resizes m to rows×cols in place: the backing array is reused
// (and its retained prefix preserved) when it has capacity, and grown —
// zeroed, prior contents discarded — otherwise. Grow-only workspaces use
// it to track fluctuating batch sizes off one high-water-mark allocation
// instead of reallocating whenever the batch size changes.
func (m *Matrix) Reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		shapePanic("Reshape", "negative dimensions %s", dims(rows, cols))
	}
	if cap(m.Data) < rows*cols {
		m.Data = make([]float64, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// FromSlice wraps data (row-major) as a rows×cols matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		shapePanic("FromSlice", "got %d values for %s", len(data), dims(rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		shapePanic("CopyFrom", "%s vs %s", dims(m.Rows, m.Cols), dims(src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills m with samples from U[-scale, scale] drawn from rng.
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// XavierInit fills m with the Glorot/Xavier uniform initialization for a
// layer with fanIn inputs and fanOut outputs.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.Randomize(rng, limit)
}

// MulVec computes dst = m · x (GEMV). dst must have length m.Rows and x
// length m.Cols. dst may not alias x.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		shapePanic("MulVec", "%s with %s %s", dims(m.Rows, m.Cols), vec("x", len(x)), vec("dst", len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = dot(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// dot is the unrolled inner-product kernel shared by the GEMV and GEMM
// routines. Four independent accumulators break the 4-cycle FP-add
// dependency chain of a naive loop (~3× on long rows); using one kernel
// everywhere keeps per-sample and batched passes bitwise identical.
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	b = b[:len(a)]
	for t := 0; t < n; t += 4 {
		s0 += a[t] * b[t]
		s1 += a[t+1] * b[t+1]
		s2 += a[t+2] * b[t+2]
		s3 += a[t+3] * b[t+3]
	}
	for t := n; t < len(a); t++ {
		s0 += a[t] * b[t]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot2 computes the inner products of a with b1 and with b2 in one pass,
// each with exactly dot's 4-lane accumulation order — bitwise identical
// to two dot calls — while loading a once instead of twice.
func dot2(a, b1, b2 []float64) (float64, float64) {
	var s0, s1, s2, s3 float64
	var t0, t1, t2, t3 float64
	n := len(a) &^ 3
	b1 = b1[:len(a)]
	b2 = b2[:len(a)]
	for t := 0; t < n; t += 4 {
		a0, a1, a2, a3 := a[t], a[t+1], a[t+2], a[t+3]
		s0 += a0 * b1[t]
		s1 += a1 * b1[t+1]
		s2 += a2 * b1[t+2]
		s3 += a3 * b1[t+3]
		t0 += a0 * b2[t]
		t1 += a1 * b2[t+1]
		t2 += a2 * b2[t+2]
		t3 += a3 * b2[t+3]
	}
	for t := n; t < len(a); t++ {
		s0 += a[t] * b1[t]
		t0 += a[t] * b2[t]
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

// axpy2 performs dst += f1·s1 followed by dst += f2·s2 in one pass. The
// two updates stay separate adds per element (the intermediate simply is
// not stored), so the result is bitwise identical to two consecutive axpy
// calls — but dst is loaded and stored once instead of twice, which
// matters because the rowwise GEMM form is store-bound.
func axpy2(dst, s1, s2 []float64, f1, f2 float64) {
	n := len(dst) &^ 3
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	for t := 0; t < n; t += 4 {
		v0 := dst[t] + f1*s1[t]
		v1 := dst[t+1] + f1*s1[t+1]
		v2 := dst[t+2] + f1*s1[t+2]
		v3 := dst[t+3] + f1*s1[t+3]
		dst[t] = v0 + f2*s2[t]
		dst[t+1] = v1 + f2*s2[t+1]
		dst[t+2] = v2 + f2*s2[t+2]
		dst[t+3] = v3 + f2*s2[t+3]
	}
	for t := n; t < len(dst); t++ {
		v := dst[t] + f1*s1[t]
		dst[t] = v + f2*s2[t]
	}
}

// axpy is the unrolled dst += f·src kernel shared by the GEMV and GEMM
// routines. Unrolling amortizes bounds checks and loop overhead; since every
// element is independent, results are bitwise identical to the naive loop.
func axpy(dst, src []float64, f float64) {
	n := len(dst) &^ 3
	src = src[:len(dst)]
	for t := 0; t < n; t += 4 {
		dst[t] += f * src[t]
		dst[t+1] += f * src[t+1]
		dst[t+2] += f * src[t+2]
		dst[t+3] += f * src[t+3]
	}
	for t := n; t < len(dst); t++ {
		dst[t] += f * src[t]
	}
}

// MulVecT computes dst = mᵀ · x. dst must have length m.Cols and x length
// m.Rows. Used for backpropagating deltas through a weight matrix.
func (m *Matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		shapePanic("MulVecT", "%s with %s %s", dimsT(m.Rows, m.Cols), vec("x", len(x)), vec("dst", len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		axpy(dst, m.Data[i*m.Cols:(i+1)*m.Cols], xi)
	}
}

// AddOuterScaled accumulates m += scale · a ⊗ b, where a has length m.Rows
// and b length m.Cols. Used for weight-gradient accumulation.
func (m *Matrix) AddOuterScaled(a, b []float64, scale float64) {
	if len(a) != m.Rows || len(b) != m.Cols {
		shapePanic("AddOuterScaled", "%s with %s %s", dims(m.Rows, m.Cols), vec("a", len(a)), vec("b", len(b)))
	}
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		axpy(m.Data[i*m.Cols:(i+1)*m.Cols], b, ai*scale)
	}
}

// Axpy computes m += scale · other element-wise.
func (m *Matrix) Axpy(other *Matrix, scale float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		shapePanic("Axpy", "%s vs %s", dims(m.Rows, m.Cols), dims(other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += scale * v
	}
}

// Scale multiplies every element of m by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Vector helpers ------------------------------------------------------------

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		shapePanic("Dot", "%s vs %s", vec("a", len(a)), vec("b", len(b)))
	}
	return dot(a, b)
}

// AxpyVec computes dst += scale · src element-wise.
func AxpyVec(dst, src []float64, scale float64) {
	if len(dst) != len(src) {
		shapePanic("AxpyVec", "%s vs %s", vec("dst", len(dst)), vec("src", len(src)))
	}
	axpy(dst, src, scale)
}

// ScaleVec multiplies every element of v by s in place.
func ScaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Argmax returns the index of the largest element of v (-1 for empty input).
// Ties resolve to the lowest index.
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i := 1; i < len(v); i++ {
		if v[i] > best {
			best, bi = v[i], i
		}
	}
	return bi
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		shapePanic("SqDist", "%s vs %s", vec("a", len(a)), vec("b", len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Softmax writes the softmax of src into dst (numerically stable).
func Softmax(dst, src []float64) {
	if len(dst) != len(src) {
		shapePanic("Softmax", "%s vs %s", vec("dst", len(dst)), vec("src", len(src)))
	}
	if len(src) == 0 {
		return
	}
	mx := src[0]
	for _, v := range src[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - mx)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}
