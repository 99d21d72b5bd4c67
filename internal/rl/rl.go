// Package rl provides the reinforcement-learning primitives shared by the
// DQN and actor-critic agents: the experience replay buffer (§2.3), ε
// exploration schedules, and exploration-noise processes.
package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// Transition is one state transition sample (s, a, r, s′) as stored in the
// replay buffer (Algorithm 1 line 13). State and action layouts are
// agent-defined flat vectors.
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions with uniform
// random sampling. The paper uses |B| = 1000; when full, the oldest sample
// is discarded (§3.2.1).
type ReplayBuffer struct {
	buf   []Transition
	next  int
	full  bool
	count int
}

// NewReplayBuffer returns a buffer holding at most capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: replay capacity must be positive, got %d", capacity))
	}
	return &ReplayBuffer{buf: make([]Transition, capacity)}
}

// Add stores t, evicting the oldest transition when the buffer is full.
func (b *ReplayBuffer) Add(t Transition) {
	b.buf[b.next] = t
	b.next++
	if b.next == len(b.buf) {
		b.next = 0
		b.full = true
	}
	if b.count < len(b.buf) {
		b.count++
	}
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return b.count }

// Cap returns the buffer capacity.
func (b *ReplayBuffer) Cap() int { return len(b.buf) }

// Sample draws n transitions uniformly at random (with replacement) into
// dst, which is resized as needed and returned. Sampling with replacement
// matches the mini-batch procedure of [33] and keeps Sample O(n).
func (b *ReplayBuffer) Sample(rng *rand.Rand, n int, dst []Transition) []Transition {
	if b.count == 0 {
		return dst[:0]
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, b.buf[rng.Intn(b.count)])
	}
	return dst
}

// At returns the i-th stored transition in insertion-ring order (test hook).
func (b *ReplayBuffer) At(i int) Transition { return b.buf[i] }

// EpsilonSchedule yields the exploration probability ε at each decision
// epoch; ε decreases with t so that "with more training, more derived
// actions (rather than random ones) will be taken" (§3.2.1).
type EpsilonSchedule struct {
	Start float64 // ε at epoch 0
	End   float64 // asymptotic ε
	Decay float64 // epochs over which ε decays (time constant for Exp, span for Linear)
	Kind  ScheduleKind
}

// ScheduleKind selects the decay curve shape.
type ScheduleKind int

// Supported schedule kinds.
const (
	LinearDecay ScheduleKind = iota
	ExpDecay
)

// At returns ε for decision epoch t (t ≥ 0).
func (s EpsilonSchedule) At(t int) float64 {
	if s.Decay <= 0 {
		return s.End
	}
	switch s.Kind {
	case ExpDecay:
		return s.End + (s.Start-s.End)*math.Exp(-float64(t)/s.Decay)
	default:
		f := float64(t) / s.Decay
		if f >= 1 {
			return s.End
		}
		return s.Start + (s.End-s.Start)*f
	}
}

// UniformNoise is the paper's exploration noise: "The parameter I is a
// uniformly distributed random noise, each element of which was set to a
// random number in [0, 1]" (§3.2.1). R(â) = â + ε·I is applied with
// probability decided by the caller's ε schedule.
type UniformNoise struct {
	Low, High float64
}

// Sample fills dst with independent U[Low, High) draws.
func (u UniformNoise) Sample(rng *rand.Rand, dst []float64) {
	for i := range dst {
		dst[i] = u.Low + rng.Float64()*(u.High-u.Low)
	}
}

// OUNoise is an Ornstein-Uhlenbeck process, the exploration noise used by
// the original DDPG paper [26]; provided for the exploration-noise ablation.
type OUNoise struct {
	Theta, Mu, Sigma float64
	state            []float64
}

// NewOUNoise returns an OU process of dimension dim with standard DDPG
// parameters θ=0.15, μ=0, σ=0.2.
func NewOUNoise(dim int) *OUNoise {
	return &OUNoise{Theta: 0.15, Mu: 0, Sigma: 0.2, state: make([]float64, dim)}
}

// Sample advances the process one step and writes the noise into dst.
func (o *OUNoise) Sample(rng *rand.Rand, dst []float64) {
	if len(dst) != len(o.state) {
		panic(fmt.Sprintf("rl: OUNoise dim %d, dst %d", len(o.state), len(dst)))
	}
	for i := range o.state {
		o.state[i] += o.Theta*(o.Mu-o.state[i]) + o.Sigma*rng.NormFloat64()
		dst[i] = o.state[i]
	}
}
