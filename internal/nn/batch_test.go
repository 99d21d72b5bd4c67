package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// TestForwardBatchMatchesPerSample: a batched forward over H rows must agree
// with H per-sample Forward calls to 1e-12 (the kernels share the same
// accumulation order, so they in fact agree bitwise).
func TestForwardBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := New([]int{13, 64, 32, 5}, Tanh, Identity, rng)
	const H = 9
	x := mat.NewMatrix(H, 13)
	x.Randomize(rng, 2)

	got := net.ForwardBatch(x)
	for h := 0; h < H; h++ {
		want := net.ForwardCopy(x.Row(h))
		for i, w := range want {
			if d := math.Abs(got.At(h, i) - w); d > 1e-12 {
				t.Fatalf("row %d out %d: batch=%g per-sample=%g (|Δ|=%g)", h, i, got.At(h, i), w, d)
			}
		}
	}
}

// TestBackwardBatchMatchesPerSample: gradients accumulated by one batched
// backward pass must agree with the sum of H per-sample backward passes, and
// so must the returned input gradients.
func TestBackwardBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{13, 64, 32, 5}
	net := New(sizes, Tanh, Identity, rng)
	ref := net.Clone()
	const H = 9

	x := mat.NewMatrix(H, 13)
	x.Randomize(rng, 2)
	dOut := mat.NewMatrix(H, 5)
	dOut.Randomize(rng, 1)
	scale := 1.0 / H

	// Reference: per-sample accumulation.
	ref.ZeroGrads()
	refDIn := mat.NewMatrix(H, 13)
	for h := 0; h < H; h++ {
		ref.Forward(x.Row(h))
		copy(refDIn.Row(h), ref.Backward(dOut.Row(h), scale))
	}

	net.ZeroGrads()
	net.ForwardBatch(x)
	dIn := net.BackwardBatch(dOut, scale)

	for h := 0; h < H; h++ {
		for i := 0; i < 13; i++ {
			if d := math.Abs(dIn.At(h, i) - refDIn.At(h, i)); d > 1e-12 {
				t.Fatalf("dIn[%d][%d]: batch=%g per-sample=%g", h, i, dIn.At(h, i), refDIn.At(h, i))
			}
		}
	}
	for li := range net.Layers {
		bl, rl := net.Layers[li], ref.Layers[li]
		for i, g := range bl.GradW.Data {
			if d := math.Abs(g - rl.GradW.Data[i]); d > 1e-12 {
				t.Fatalf("layer %d GradW[%d]: batch=%g per-sample=%g", li, i, g, rl.GradW.Data[i])
			}
		}
		for i, g := range bl.GradB {
			if d := math.Abs(g - rl.GradB[i]); d > 1e-12 {
				t.Fatalf("layer %d GradB[%d]: batch=%g per-sample=%g", li, i, g, rl.GradB[i])
			}
		}
	}
}

// TestBackwardBatchScaleZeroSkipsWeightGrads: the ∇â Q probe used by the
// actor update passes scale 0 and must leave gradient buffers untouched
// while still returning input gradients.
func TestBackwardBatchScaleZeroSkipsWeightGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := New([]int{6, 16, 2}, Tanh, Identity, rng)
	x := mat.NewMatrix(4, 6)
	x.Randomize(rng, 1)
	dOut := mat.NewMatrix(4, 2)
	dOut.Fill(1)

	net.ZeroGrads()
	net.ForwardBatch(x)
	dIn := net.BackwardBatch(dOut, 0)
	if dIn.Rows != 4 || dIn.Cols != 6 {
		t.Fatalf("dIn is %dx%d, want 4x6", dIn.Rows, dIn.Cols)
	}
	var nonzero bool
	for _, v := range dIn.Data {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("input gradient is identically zero")
	}
	for _, l := range net.Layers {
		for _, g := range l.GradW.Data {
			if g != 0 {
				t.Fatal("scale 0 accumulated weight gradients")
			}
		}
	}
}

// TestForwardBatchInterleavesWithForward: per-sample action-selection calls
// between ForwardBatch and BackwardBatch must not corrupt the batch caches.
func TestForwardBatchInterleavesWithForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := New([]int{6, 16, 2}, Tanh, Identity, rng)
	ref := net.Clone()
	x := mat.NewMatrix(4, 6)
	x.Randomize(rng, 1)
	dOut := mat.NewMatrix(4, 2)
	dOut.Randomize(rng, 1)
	probe := make([]float64, 6)
	for i := range probe {
		probe[i] = float64(i)
	}

	ref.ZeroGrads()
	ref.ForwardBatch(x)
	ref.BackwardBatch(dOut, 1)

	net.ZeroGrads()
	net.ForwardBatch(x)
	net.Forward(probe) // interleaved per-sample call
	net.BackwardBatch(dOut, 1)

	for li := range net.Layers {
		for i, g := range net.Layers[li].GradW.Data {
			if g != ref.Layers[li].GradW.Data[i] {
				t.Fatalf("layer %d GradW[%d] diverged after interleaved Forward", li, i)
			}
		}
	}
}

// TestForwardBatchVaryingSizes drives one network through shrinking and
// regrowing batch sizes — the serving batcher's access pattern — and checks
// every size still agrees with per-sample Forward and that sizes within the
// high-water mark do not reallocate the workspaces.
func TestForwardBatchVaryingSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := New([]int{11, 32, 16, 4}, Tanh, Identity, rng)

	check := func(h int) {
		t.Helper()
		x := mat.NewMatrix(h, 11)
		x.Randomize(rng, 2)
		got := net.ForwardBatch(x)
		if got.Rows != h {
			t.Fatalf("batch %d: got %d output rows", h, got.Rows)
		}
		for r := 0; r < h; r++ {
			want := net.ForwardCopy(x.Row(r))
			for i, w := range want {
				if d := math.Abs(got.At(r, i) - w); d > 1e-12 {
					t.Fatalf("batch %d row %d out %d: batch=%g per-sample=%g", h, r, i, got.At(r, i), w)
				}
			}
		}
	}
	for _, h := range []int{16, 3, 9, 1, 16, 7} {
		check(h)
	}

	// Once the high-water mark (16 rows) is allocated, smaller and equal
	// batches must reuse the same backing arrays.
	base := net.Layers[0].bIn.Data[:1]
	for _, h := range []int{5, 16, 2} {
		x := mat.NewMatrix(h, 11)
		x.Randomize(rng, 2)
		net.ForwardBatch(x)
		if &net.Layers[0].bIn.Data[0] != &base[0] {
			t.Fatalf("batch %d reallocated the workspace below the high-water mark", h)
		}
	}
}

// TestBatchKernelModeTiers pins the two-tier numerical contract of the
// batched passes at a scale that engages the blocked GEMM engine: in
// mat.KernelReference mode a batched forward/backward agrees *bitwise*
// with per-sample passes (shared accumulation order); in the default
// blocked mode it agrees to 1e-12 (the blocked engine reassociates each
// reduction). One-hot-dominated inputs exercise the sparse fast paths.
func TestBatchKernelModeTiers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    mat.KernelMode
		bitwise bool
	}{
		{"reference", mat.KernelReference, true},
		{"blocked", mat.KernelBlocked, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := mat.SetKernelMode(tc.mode)
			defer mat.SetKernelMode(prev)
			rng := rand.New(rand.NewSource(23))
			net := New([]int{122, 64, 32, 5}, Tanh, Identity, rng)
			ref := net.Clone()
			const H = 70
			x := mat.NewMatrix(H, 122)
			for r := 0; r < H; r++ {
				row := x.Row(r)
				for k := 0; k < 20; k++ {
					row[rng.Intn(120)] = 1
				}
				row[120] = rng.Float64()
				row[121] = rng.Float64()
			}
			dOut := mat.NewMatrix(H, 5)
			dOut.Randomize(rng, 1)

			ref.ZeroGrads()
			refDIn := mat.NewMatrix(H, 122)
			for h := 0; h < H; h++ {
				ref.Forward(x.Row(h))
				copy(refDIn.Row(h), ref.Backward(dOut.Row(h), 1.0/H))
			}

			net.ZeroGrads()
			out := net.ForwardBatch(x)
			dIn := net.BackwardBatch(dOut, 1.0/H)

			check := func(what string, got, want float64) {
				t.Helper()
				if tc.bitwise && got != want {
					t.Fatalf("%s: batch=%g per-sample=%g (must be bitwise identical in reference mode)", what, got, want)
				}
				if d := math.Abs(got - want); d > 1e-12 {
					t.Fatalf("%s: batch=%g per-sample=%g (|Δ|=%g)", what, got, want, d)
				}
			}
			for h := 0; h < H; h++ {
				want := ref.ForwardCopy(x.Row(h))
				for i, w := range want {
					check("out", out.At(h, i), w)
				}
				for i := 0; i < 122; i++ {
					check("dIn", dIn.At(h, i), refDIn.At(h, i))
				}
			}
			for li := range net.Layers {
				for i, g := range net.Layers[li].GradW.Data {
					check("GradW", g, ref.Layers[li].GradW.Data[i])
				}
			}
		})
	}
}

// TestBackwardBatchGradsMatchesBackwardBatch: the grads-only backward must
// accumulate exactly the gradients of the full backward — it only skips
// the first layer's (unused) input-gradient GEMM.
func TestBackwardBatchGradsMatchesBackwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	net := New([]int{13, 16, 4}, Tanh, Identity, rng)
	ref := net.Clone()
	x := mat.NewMatrix(6, 13)
	x.Randomize(rng, 1)
	dOut := mat.NewMatrix(6, 4)
	dOut.Randomize(rng, 1)

	ref.ZeroGrads()
	ref.ForwardBatch(x)
	ref.BackwardBatch(dOut, 0.5)
	net.ZeroGrads()
	net.ForwardBatch(x)
	net.BackwardBatchGrads(dOut, 0.5)

	for li := range net.Layers {
		for i, g := range net.Layers[li].GradW.Data {
			if g != ref.Layers[li].GradW.Data[i] {
				t.Fatalf("layer %d GradW[%d]: grads-only %g != full %g", li, i, g, ref.Layers[li].GradW.Data[i])
			}
		}
		for i, g := range net.Layers[li].GradB {
			if g != ref.Layers[li].GradB[i] {
				t.Fatalf("layer %d GradB[%d]: grads-only %g != full %g", li, i, g, ref.Layers[li].GradB[i])
			}
		}
	}
}

// TestPoolShardsBatchedPasses: with a pool installed and a batch big
// enough to shard, results must be bitwise identical to the unpooled run
// and the pool's shard counter must advance.
func TestPoolShardsBatchedPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := New([]int{242, 64, 32, 1}, Tanh, Identity, rng)
	ref := net.Clone()
	const H = 300
	x := mat.NewMatrix(H, 242)
	x.Randomize(rng, 1)
	dOut := mat.NewMatrix(H, 1)
	dOut.Randomize(rng, 1)

	ref.ZeroGrads()
	ref.ForwardBatch(x)
	ref.BackwardBatch(dOut, 1.0/H)

	pool := NewPool(parallel.NewSem(3))
	net.SetPool(pool)
	net.ZeroGrads()
	out := net.ForwardBatch(x)
	net.BackwardBatch(dOut, 1.0/H)

	if pool.Shards.Load() == 0 {
		t.Fatal("expected the pooled batched passes to dispatch GEMM shards")
	}
	refOut := ref.Layers[len(ref.Layers)-1].bOut
	for i := range out.Data {
		if out.Data[i] != refOut.Data[i] {
			t.Fatalf("output %d: pooled %g != unpooled %g (sharding must be bitwise invariant)", i, out.Data[i], refOut.Data[i])
		}
	}
	for li := range net.Layers {
		for i, g := range net.Layers[li].GradW.Data {
			if g != ref.Layers[li].GradW.Data[i] {
				t.Fatalf("layer %d GradW[%d]: pooled %g != unpooled %g", li, i, g, ref.Layers[li].GradW.Data[i])
			}
		}
	}
}

// TestForwardBatchInferMatchesForward: the inference-only path (transposed
// zero-skipping kernel, no backprop caches) must agree with the reference
// forward to floating-point reassociation tolerance, including on sparse
// one-hot-style inputs and across varying batch sizes.
func TestForwardBatchInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := New([]int{24, 32, 16, 6}, Tanh, Identity, rng)
	for _, h := range []int{8, 1, 5, 8} {
		x := mat.NewMatrix(h, 24)
		// One-hot-dominated rows: a few ones, a couple of dense entries.
		for r := 0; r < h; r++ {
			row := x.Row(r)
			for k := 0; k < 4; k++ {
				row[rng.Intn(20)] = 1
			}
			row[20+rng.Intn(4)] = rng.Float64()
		}
		got := net.ForwardBatchInfer(x)
		for r := 0; r < h; r++ {
			want := net.ForwardCopy(x.Row(r))
			for i, w := range want {
				if d := math.Abs(got.At(r, i) - w); d > 1e-9 {
					t.Fatalf("h=%d row %d out %d: infer=%g forward=%g (|Δ|=%g)", h, r, i, got.At(r, i), w, d)
				}
			}
		}
	}
}
