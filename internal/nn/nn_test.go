package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestActivationString(t *testing.T) {
	cases := map[Activation]string{Identity: "identity", Tanh: "tanh", ReLU: "relu", Sigmoid: "sigmoid"}
	for a, want := range cases {
		if a.String() != want {
			t.Fatalf("String()=%q want %q", a.String(), want)
		}
	}
}

func TestActivationDerivatives(t *testing.T) {
	// derivFromOutput must agree with a numerical derivative of apply.
	for _, act := range []Activation{Identity, Tanh, Sigmoid} {
		for _, z := range []float64{-2, -0.5, 0.1, 1.5} {
			y := act.apply(z)
			h := 1e-6
			num := (act.apply(z+h) - act.apply(z-h)) / (2 * h)
			got := act.derivFromOutput(y)
			if math.Abs(got-num) > 1e-5 {
				t.Fatalf("%v deriv at z=%v: got %v want %v", act, z, got, num)
			}
		}
	}
	// ReLU away from the kink.
	if ReLU.derivFromOutput(ReLU.apply(2)) != 1 || ReLU.derivFromOutput(ReLU.apply(-2)) != 0 {
		t.Fatal("ReLU derivative wrong")
	}
}

func TestNetworkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := New([]int{10, 64, 32, 5}, Tanh, Identity, rng)
	if n.InDim() != 10 || n.OutDim() != 5 {
		t.Fatalf("dims %d %d", n.InDim(), n.OutDim())
	}
	if len(n.Layers) != 3 {
		t.Fatalf("layers %d", len(n.Layers))
	}
	if n.Layers[0].Act != Tanh || n.Layers[2].Act != Identity {
		t.Fatal("activation placement wrong")
	}
	out := n.Forward(make([]float64, 10))
	if len(out) != 5 {
		t.Fatalf("|out|=%d", len(out))
	}
	// 10*64+64 + 64*32+32 + 32*5+5 = 704+2080+165 = 2949
	params := 0
	for _, l := range n.Layers {
		params += len(l.W.Data) + len(l.B)
	}
	if params != 2949 {
		t.Fatalf("%d parameters, want 2949", params)
	}
}

// TestGradCheck verifies backprop against finite differences — the single
// most load-bearing correctness test in the whole DRL stack.
func TestGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := New([]int{4, 6, 5, 3}, Tanh, Identity, rng)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	target := []float64{0.3, -0.2, 0.8}

	loss := func() float64 {
		out := net.Forward(x)
		var l float64
		for i, o := range out {
			d := o - target[i]
			l += 0.5 * d * d
		}
		return l
	}

	// Analytic gradients.
	out := net.Forward(x)
	dOut := make([]float64, len(out))
	for i := range out {
		dOut[i] = out[i] - target[i]
	}
	net.ZeroGrads()
	dIn := net.Backward(dOut, 1)

	const h = 1e-6
	// Check weight gradients on every layer (sampled entries).
	for li, l := range net.Layers {
		for _, idx := range []int{0, len(l.W.Data) / 2, len(l.W.Data) - 1} {
			orig := l.W.Data[idx]
			l.W.Data[idx] = orig + h
			lp := loss()
			l.W.Data[idx] = orig - h
			lm := loss()
			l.W.Data[idx] = orig
			num := (lp - lm) / (2 * h)
			got := l.GradW.Data[idx]
			if math.Abs(got-num) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: analytic %v numeric %v", li, idx, got, num)
			}
		}
		for _, idx := range []int{0, len(l.B) - 1} {
			orig := l.B[idx]
			l.B[idx] = orig + h
			lp := loss()
			l.B[idx] = orig - h
			lm := loss()
			l.B[idx] = orig
			num := (lp - lm) / (2 * h)
			got := l.GradB[idx]
			if math.Abs(got-num) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d B[%d]: analytic %v numeric %v", li, idx, got, num)
			}
		}
	}
	// Check input gradient (needed by the DDPG actor update).
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp := loss()
		x[i] = orig - h
		lm := loss()
		x[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(dIn[i]-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad [%d]: analytic %v numeric %v", i, dIn[i], num)
		}
	}
}

// TestTrainRegression checks that Adam training actually reduces loss on a
// tiny nonlinear regression problem.
func TestTrainRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := New([]int{1, 16, 1}, Tanh, Identity, rng)
	opt := NewAdam(0.01)

	sample := func() (x, y float64) {
		x = rng.Float64()*2 - 1
		return x, math.Sin(2 * x)
	}
	mse := func() float64 {
		var s float64
		for i := 0; i < 100; i++ {
			x := -1 + 2*float64(i)/99
			out := net.Forward([]float64{x})
			d := out[0] - math.Sin(2*x)
			s += d * d
		}
		return s / 100
	}

	before := mse()
	for epoch := 0; epoch < 2000; epoch++ {
		x, y := sample()
		out := net.Forward([]float64{x})
		net.ZeroGrads()
		net.Backward([]float64{out[0] - y}, 1)
		opt.Step(net)
	}
	after := mse()
	if after >= before/4 {
		t.Fatalf("training did not converge: before=%v after=%v", before, after)
	}
}

func TestAdamConvergesFasterThanLargeLossRemaining(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := New([]int{2, 8, 1}, Tanh, Identity, rng)
	opt := NewAdam(0.01)
	// Learn XOR-ish: y = x0*x1.
	for epoch := 0; epoch < 3000; epoch++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := x[0] * x[1]
		out := net.Forward(x)
		net.ZeroGrads()
		net.Backward([]float64{out[0] - y}, 1)
		opt.Step(net)
	}
	var s float64
	n := 0
	for i := -4; i <= 4; i++ {
		for j := -4; j <= 4; j++ {
			x := []float64{float64(i) / 4, float64(j) / 4}
			out := net.Forward(x)
			d := out[0] - x[0]*x[1]
			s += d * d
			n++
		}
	}
	if s/float64(n) > 0.02 {
		t.Fatalf("Adam failed to fit product function: mse=%v", s/float64(n))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New([]int{3, 4, 2}, Tanh, Identity, rng)
	b := a.Clone()
	x := []float64{1, 2, 3}
	oa := a.ForwardCopy(x)
	ob := b.ForwardCopy(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("clone differs from original")
		}
	}
	a.Layers[0].W.Data[0] += 1
	ob2 := b.ForwardCopy(x)
	for i := range ob {
		if ob[i] != ob2[i] {
			t.Fatal("mutating original changed the clone")
		}
	}
}

func TestSoftUpdateConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := New([]int{2, 3, 1}, Tanh, Identity, rng)
	dst := New([]int{2, 3, 1}, Tanh, Identity, rng)
	for i := 0; i < 2000; i++ {
		dst.SoftUpdate(src, 0.01)
	}
	for li := range src.Layers {
		for j := range src.Layers[li].W.Data {
			if math.Abs(src.Layers[li].W.Data[j]-dst.Layers[li].W.Data[j]) > 1e-6 {
				t.Fatal("soft update did not converge to source weights")
			}
		}
	}
}

// Property: SoftUpdate with τ keeps weights on the segment between old
// target and source.
func TestSoftUpdateInterpolation(t *testing.T) {
	f := func(seed int64, tauRaw uint8) bool {
		tau := float64(tauRaw%100) / 100.0
		rng := rand.New(rand.NewSource(seed))
		src := New([]int{2, 2}, Identity, Identity, rng)
		dst := New([]int{2, 2}, Identity, Identity, rng)
		before := dst.Layers[0].W.Data[0]
		s := src.Layers[0].W.Data[0]
		dst.SoftUpdate(src, tau)
		want := tau*s + (1-tau)*before
		return math.Abs(dst.Layers[0].W.Data[0]-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHardCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := New([]int{2, 3, 1}, Tanh, Identity, rng)
	b := New([]int{2, 3, 1}, Tanh, Identity, rng)
	b.HardCopy(a)
	x := []float64{0.3, -0.7}
	oa, ob := a.ForwardCopy(x), b.ForwardCopy(x)
	if oa[0] != ob[0] {
		t.Fatal("HardCopy outputs differ")
	}
}

func TestClipGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := New([]int{2, 2}, Identity, Identity, rng)
	net.Layers[0].GradW.Fill(10)
	for i := range net.Layers[0].GradB {
		net.Layers[0].GradB[i] = 10
	}
	net.ClipGrads(1)
	var sq float64
	for _, v := range net.Layers[0].GradW.Data {
		sq += v * v
	}
	for _, v := range net.Layers[0].GradB {
		sq += v * v
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-9 {
		t.Fatalf("clipped norm %v want 1", math.Sqrt(sq))
	}
	// Clipping below the bound is a no-op.
	net.ZeroGrads()
	net.Layers[0].GradW.Data[0] = 0.5
	net.ClipGrads(1)
	if net.Layers[0].GradW.Data[0] != 0.5 {
		t.Fatal("clip should not shrink small gradients")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := New([]int{4, 8, 3}, Tanh, Sigmoid, rng)
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var b Network
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, -0.4}
	oa, ob := a.ForwardCopy(x), b.ForwardCopy(x)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("round-trip output mismatch %v vs %v", oa, ob)
		}
	}
	if b.Layers[0].Act != Tanh || b.Layers[1].Act != Sigmoid || b.Layers[0].Out != 8 {
		t.Fatal("decoded architecture mismatch")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var n Network
	if err := n.UnmarshalBinary([]byte("not gob")); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

func BenchmarkForwardActorLarge(b *testing.B) {
	// Large-scale actor: state 1010 → 64 → 32 → 1000 (CQ large, N=100 M=10).
	rng := rand.New(rand.NewSource(29))
	net := New([]int{1010, 64, 32, 1000}, Tanh, Tanh, rng)
	x := make([]float64, 1010)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkBackwardActorLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	net := New([]int{1010, 64, 32, 1000}, Tanh, Tanh, rng)
	x := make([]float64, 1010)
	dOut := make([]float64, 1000)
	net.Forward(x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Backward(dOut, 1)
	}
}
