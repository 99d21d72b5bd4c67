package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba 2015), the standard choice
// for training DDPG-style actor-critic networks.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mw []*mat.Matrix
	vw []*mat.Matrix
	mb [][]float64
	vb [][]float64
}

// NewAdam returns an Adam optimizer with standard β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// AdamState is a serializable copy of an Adam optimizer's training
// trajectory: the step counter (which drives bias correction) and the
// per-layer first/second moment estimates. A recovered optimizer that
// restarts without it takes a different trajectory from the same weights —
// fresh moments re-warm from zero and the bias correction resets — so the
// durability layer persists this alongside the network weights.
//
// A zero T with no moments is the valid "never stepped" state; restoring
// it resets the optimizer to its lazy initial condition.
type AdamState struct {
	T  int
	MW [][]float64 // first moments, per layer, row-major Out×In
	VW [][]float64 // second moments, per layer, row-major Out×In
	MB [][]float64 // bias first moments, per layer, len Out
	VB [][]float64 // bias second moments, per layer, len Out
}

// State copies the optimizer's full moment state. Before the first Step
// it returns the "never stepped" state (T=0, no moments).
func (o *Adam) State() *AdamState {
	s := &AdamState{T: o.t}
	for i := range o.mw {
		s.MW = append(s.MW, append([]float64(nil), o.mw[i].Data...))
		s.VW = append(s.VW, append([]float64(nil), o.vw[i].Data...))
		s.MB = append(s.MB, append([]float64(nil), o.mb[i]...))
		s.VB = append(s.VB, append([]float64(nil), o.vb[i]...))
	}
	return s
}

// SetState restores a previously captured moment state. net supplies the
// layer shapes the moments must match (the optimizer is bound to exactly
// one network); a shape mismatch restores nothing and errors. An empty
// state (T=0, no moments) resets the optimizer to its pre-first-Step
// condition.
func (o *Adam) SetState(s *AdamState, net *Network) error {
	if len(s.MW) == 0 && s.T == 0 {
		o.t, o.mw, o.vw, o.mb, o.vb = 0, nil, nil, nil, nil
		return nil
	}
	if len(s.MW) != len(net.Layers) || len(s.VW) != len(net.Layers) ||
		len(s.MB) != len(net.Layers) || len(s.VB) != len(net.Layers) {
		return fmt.Errorf("nn: adam state has %d/%d/%d/%d moment layers, network has %d",
			len(s.MW), len(s.VW), len(s.MB), len(s.VB), len(net.Layers))
	}
	for li, l := range net.Layers {
		if len(s.MW[li]) != len(l.W.Data) || len(s.VW[li]) != len(l.W.Data) ||
			len(s.MB[li]) != len(l.B) || len(s.VB[li]) != len(l.B) {
			return fmt.Errorf("nn: adam state layer %d shape mismatch", li)
		}
	}
	var mw, vw []*mat.Matrix
	var mb, vb [][]float64
	for li, l := range net.Layers {
		mw = append(mw, mat.FromSlice(l.Out, l.In, append([]float64(nil), s.MW[li]...)))
		vw = append(vw, mat.FromSlice(l.Out, l.In, append([]float64(nil), s.VW[li]...)))
		mb = append(mb, append([]float64(nil), s.MB[li]...))
		vb = append(vb, append([]float64(nil), s.VB[li]...))
	}
	o.t, o.mw, o.vw, o.mb, o.vb = s.T, mw, vw, mb, vb
	return nil
}

// Step applies the accumulated gradients of net (descending the loss) and
// leaves the gradient buffers untouched; callers typically follow with
// net.ZeroGrads(). An Adam must be used with exactly one network: it keeps
// per-layer moment state keyed by layer index.
func (o *Adam) Step(net *Network) {
	if o.mw == nil {
		for _, l := range net.Layers {
			o.mw = append(o.mw, mat.NewMatrix(l.Out, l.In))
			o.vw = append(o.vw, mat.NewMatrix(l.Out, l.In))
			o.mb = append(o.mb, make([]float64, l.Out))
			o.vb = append(o.vb, make([]float64, l.Out))
		}
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for li, l := range net.Layers {
		mw, vw := o.mw[li], o.vw[li]
		for i, g := range l.GradW.Data {
			mw.Data[i] = o.Beta1*mw.Data[i] + (1-o.Beta1)*g
			vw.Data[i] = o.Beta2*vw.Data[i] + (1-o.Beta2)*g*g
			mHat := mw.Data[i] / bc1
			vHat := vw.Data[i] / bc2
			l.W.Data[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
		mb, vb := o.mb[li], o.vb[li]
		for i, g := range l.GradB {
			mb[i] = o.Beta1*mb[i] + (1-o.Beta1)*g
			vb[i] = o.Beta2*vb[i] + (1-o.Beta2)*g*g
			mHat := mb[i] / bc1
			vHat := vb[i] / bc2
			l.B[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}
