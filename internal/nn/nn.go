// Package nn implements the small feedforward neural networks used by the
// DRL agents: dense layers with tanh/relu/sigmoid/identity activations,
// per-sample backpropagation, the Adam optimizer, gradient
// clipping, deep cloning and soft (Polyak) target-network updates, and gob
// serialization.
//
// The paper's actor and critic are 2-layer fully-connected networks with 64
// and 32 hidden neurons and tanh activation (§3.2.1); this package
// reproduces exactly that architecture while remaining general enough for
// the DQN baseline and the ablation variants.
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Activation identifies an element-wise activation function.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	Tanh
	ReLU
	Sigmoid
)

// String returns the conventional lowercase name of the activation.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(v float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(v)
	case ReLU:
		if v < 0 {
			return 0
		}
		return v
	case Sigmoid:
		return 1 / (1 + math.Exp(-v))
	default:
		return v
	}
}

// derivFromOutput returns dσ/dz expressed in terms of the activation output
// y = σ(z); all supported activations admit this form, which avoids caching
// pre-activations.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Dense is one fully-connected layer: out = act(W·in + b).
type Dense struct {
	In, Out int
	W       *mat.Matrix // Out×In
	B       []float64   // len Out
	Act     Activation

	// Gradient accumulators (same shapes as W, B).
	GradW *mat.Matrix
	GradB []float64

	// Forward caches for backprop.
	input  []float64 // last input seen by Forward
	output []float64 // last activation output

	// Minibatch workspace (see batch.go). Kept separate from the per-sample
	// caches so action-selection Forward calls can interleave with batched
	// training without clobbering each other's backprop state.
	bIn, bOut, bDelta, bDIn *mat.Matrix

	// Inference-only caches (see forwardBatchInfer): the In×Out weight
	// transpose, built lazily from frozen weights, and its output
	// workspace. Never copied by Clone, never touched by training.
	wt   *mat.Matrix
	iOut *mat.Matrix

	// ws holds the layer's grow-only packed-tile GEMM workspace (sized by
	// ensureBatch, shared by every batched pass of this layer — all of
	// which run on one goroutine). pool, when set via Network.SetPool,
	// shards the batched GEMMs' row bands across a worker pool.
	ws   *mat.Workspace
	pool *Pool
}

// NewDense returns a dense layer with Xavier-initialized weights.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In:    in,
		Out:   out,
		W:     mat.NewMatrix(out, in),
		B:     make([]float64, out),
		Act:   act,
		GradW: mat.NewMatrix(out, in),
		GradB: make([]float64, out),
		input: make([]float64, in),
	}
	d.W.XavierInit(rng, in, out)
	d.output = make([]float64, out)
	return d
}

// Forward computes the layer output for x, caching what backprop needs.
// The returned slice is owned by the layer and valid until the next call.
func (d *Dense) Forward(x []float64) []float64 {
	copy(d.input, x)
	d.W.MulVec(d.output, x)
	for i := range d.output {
		d.output[i] = d.Act.apply(d.output[i] + d.B[i])
	}
	return d.output
}

// Backward takes dL/d(output), accumulates dL/dW and dL/db into the
// gradient buffers, and returns dL/d(input). scale multiplies the
// accumulated gradients (use 1/batchSize for mean losses). The returned
// slice is owned by the caller via dst; if dst is nil a fresh slice is
// allocated.
func (d *Dense) Backward(dst, dOut []float64, scale float64) []float64 {
	if len(dOut) != d.Out {
		panic(fmt.Sprintf("nn: Backward got |dOut|=%d want %d", len(dOut), d.Out))
	}
	if dst == nil {
		dst = make([]float64, d.In)
	}
	// delta = dL/dz = dL/dy ⊙ σ'(z), with σ' expressed via the output.
	delta := make([]float64, d.Out)
	for i, g := range dOut {
		delta[i] = g * d.Act.derivFromOutput(d.output[i])
	}
	d.GradW.AddOuterScaled(delta, d.input, scale)
	mat.AxpyVec(d.GradB, delta, scale)
	d.W.MulVecT(dst, delta)
	return dst
}

// ZeroGrads clears the accumulated gradients.
func (d *Dense) ZeroGrads() {
	d.GradW.Zero()
	for i := range d.GradB {
		d.GradB[i] = 0
	}
}

// Network is a stack of dense layers evaluated in order.
type Network struct {
	Layers []*Dense
}

// New builds a network from layer sizes. sizes[0] is the input dimension;
// each subsequent entry adds a dense layer. All hidden layers use hiddenAct
// and the final layer uses outAct. For the paper's actor/critic call, e.g.:
//
//	New([]int{stateDim, 64, 32, actionDim}, nn.Tanh, nn.Tanh, rng)
func New(sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) *Network {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	n := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		act := hiddenAct
		if i == len(sizes)-2 {
			act = outAct
		}
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], act, rng))
	}
	return n
}

// InDim returns the network input dimension.
func (n *Network) InDim() int { return n.Layers[0].In }

// OutDim returns the network output dimension.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].Out }

// Forward evaluates the network on x. The returned slice is owned by the
// final layer and valid until the next Forward call; copy it if retained.
func (n *Network) Forward(x []float64) []float64 {
	h := x
	for _, l := range n.Layers {
		h = l.Forward(h)
	}
	return h
}

// ForwardCopy evaluates the network and returns a caller-owned copy.
func (n *Network) ForwardCopy(x []float64) []float64 {
	out := n.Forward(x)
	cp := make([]float64, len(out))
	copy(cp, out)
	return cp
}

// Backward backpropagates dL/d(output) through the whole stack (which must
// have just run Forward on the sample of interest), accumulating gradients
// scaled by scale, and returns dL/d(input).
func (n *Network) Backward(dOut []float64, scale float64) []float64 {
	g := dOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(nil, g, scale)
	}
	return g
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		l.ZeroGrads()
	}
}

// ClipGrads rescales all gradients so the global L2 norm is at most c.
func (n *Network) ClipGrads(c float64) {
	var sq float64
	for _, l := range n.Layers {
		for _, v := range l.GradW.Data {
			sq += v * v
		}
		for _, v := range l.GradB {
			sq += v * v
		}
	}
	norm := math.Sqrt(sq)
	if norm <= c || norm == 0 {
		return
	}
	s := c / norm
	for _, l := range n.Layers {
		l.GradW.Scale(s)
		mat.ScaleVec(l.GradB, s)
	}
}

// Clone returns a deep copy of the network (weights only; gradient buffers
// are fresh). Used to create target networks.
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.Layers {
		nl := &Dense{
			In:     l.In,
			Out:    l.Out,
			W:      l.W.Clone(),
			B:      append([]float64(nil), l.B...),
			Act:    l.Act,
			GradW:  mat.NewMatrix(l.Out, l.In),
			GradB:  make([]float64, l.Out),
			input:  make([]float64, l.In),
			output: make([]float64, l.Out),
		}
		c.Layers = append(c.Layers, nl)
	}
	return c
}

// SoftUpdate moves this network's weights toward src:
// θ(this) := τ·θ(src) + (1−τ)·θ(this). This matches Algorithm 1 line 18
// where the *target* network is slowly tracked with τ = 0.01.
func (n *Network) SoftUpdate(src *Network, tau float64) {
	if len(n.Layers) != len(src.Layers) {
		panic("nn: SoftUpdate layer count mismatch")
	}
	for i, l := range n.Layers {
		s := src.Layers[i]
		for j := range l.W.Data {
			l.W.Data[j] = tau*s.W.Data[j] + (1-tau)*l.W.Data[j]
		}
		for j := range l.B {
			l.B[j] = tau*s.B[j] + (1-tau)*l.B[j]
		}
	}
}

// HardCopy copies src's weights into this network (τ = 1 update).
func (n *Network) HardCopy(src *Network) {
	if len(n.Layers) != len(src.Layers) {
		panic("nn: HardCopy layer count mismatch")
	}
	for i, l := range n.Layers {
		l.W.CopyFrom(src.Layers[i].W)
		copy(l.B, src.Layers[i].B)
	}
}

// netState is the gob wire format for Network.
type netState struct {
	Sizes []int
	Acts  []Activation
	W     [][]float64
	B     [][]float64
}

// MarshalBinary encodes the network weights with encoding/gob.
func (n *Network) MarshalBinary() ([]byte, error) {
	st := netState{Sizes: []int{n.InDim()}}
	for _, l := range n.Layers {
		st.Sizes = append(st.Sizes, l.Out)
		st.Acts = append(st.Acts, l.Act)
		st.W = append(st.W, append([]float64(nil), l.W.Data...))
		st.B = append(st.B, append([]float64(nil), l.B...))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nn: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a network previously encoded by MarshalBinary,
// replacing this network's layers.
func (n *Network) UnmarshalBinary(data []byte) error {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("nn: decode: %w", err)
	}
	if len(st.Sizes) < 2 || len(st.Acts) != len(st.Sizes)-1 ||
		len(st.W) != len(st.Sizes)-1 || len(st.B) != len(st.Sizes)-1 {
		return fmt.Errorf("nn: decode: malformed state (%d sizes, %d acts, %d weight sets, %d bias sets)",
			len(st.Sizes), len(st.Acts), len(st.W), len(st.B))
	}
	n.Layers = nil
	for i := 0; i < len(st.Sizes)-1; i++ {
		in, out := st.Sizes[i], st.Sizes[i+1]
		if len(st.W[i]) != in*out || len(st.B[i]) != out {
			return fmt.Errorf("nn: decode: layer %d shape mismatch", i)
		}
		l := &Dense{
			In:     in,
			Out:    out,
			W:      mat.FromSlice(out, in, st.W[i]),
			B:      st.B[i],
			Act:    st.Acts[i],
			GradW:  mat.NewMatrix(out, in),
			GradB:  make([]float64, out),
			input:  make([]float64, in),
			output: make([]float64, out),
		}
		n.Layers = append(n.Layers, l)
	}
	return nil
}
