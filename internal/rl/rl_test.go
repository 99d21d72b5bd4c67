package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tr(r float64) Transition {
	return Transition{State: []float64{r}, Action: []float64{r}, Reward: r, NextState: []float64{r}}
}

func TestReplayBufferFillAndEvict(t *testing.T) {
	b := NewReplayBuffer(3)
	if b.Len() != 0 || b.Cap() != 3 {
		t.Fatalf("fresh buffer Len=%d Cap=%d", b.Len(), b.Cap())
	}
	for i := 1; i <= 5; i++ {
		b.Add(tr(float64(i)))
	}
	if b.Len() != 3 {
		t.Fatalf("Len=%d want 3", b.Len())
	}
	// After adding 1..5 into capacity 3 ring: slots hold 4,5,3.
	seen := map[float64]bool{}
	for i := 0; i < 3; i++ {
		seen[b.At(i).Reward] = true
	}
	for _, want := range []float64{3, 4, 5} {
		if !seen[want] {
			t.Fatalf("expected reward %v to survive eviction, have %v", want, seen)
		}
	}
	if seen[1] || seen[2] {
		t.Fatal("oldest samples should have been evicted")
	}
}

func TestReplayBufferSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewReplayBuffer(10)
	if got := b.Sample(rng, 5, nil); len(got) != 0 {
		t.Fatal("sampling empty buffer should return nothing")
	}
	for i := 0; i < 4; i++ {
		b.Add(tr(float64(i)))
	}
	got := b.Sample(rng, 32, nil)
	if len(got) != 32 {
		t.Fatalf("sample size %d want 32", len(got))
	}
	for _, s := range got {
		if s.Reward < 0 || s.Reward > 3 {
			t.Fatalf("sampled transition outside stored set: %v", s.Reward)
		}
	}
	// Reuse dst without reallocating.
	got2 := b.Sample(rng, 8, got)
	if len(got2) != 8 {
		t.Fatalf("reuse sample size %d", len(got2))
	}
}

func TestReplayBufferSampleUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := NewReplayBuffer(4)
	for i := 0; i < 4; i++ {
		b.Add(tr(float64(i)))
	}
	counts := map[float64]int{}
	var buf []Transition
	for i := 0; i < 4000; i++ {
		buf = b.Sample(rng, 1, buf)
		counts[buf[0].Reward]++
	}
	for r, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("sampling skewed: reward %v drawn %d/4000", r, c)
		}
	}
}

func TestNewReplayBufferPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReplayBuffer(0)
}

func TestEpsilonLinear(t *testing.T) {
	s := EpsilonSchedule{Start: 1, End: 0.1, Decay: 100, Kind: LinearDecay}
	if s.At(0) != 1 {
		t.Fatalf("At(0)=%v", s.At(0))
	}
	if got := s.At(50); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("At(50)=%v want 0.55", got)
	}
	if s.At(100) != 0.1 || s.At(10000) != 0.1 {
		t.Fatal("linear schedule should clamp at End")
	}
}

func TestEpsilonExp(t *testing.T) {
	s := EpsilonSchedule{Start: 1, End: 0, Decay: 100, Kind: ExpDecay}
	if s.At(0) != 1 {
		t.Fatalf("At(0)=%v", s.At(0))
	}
	if got := s.At(100); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("At(100)=%v want e^-1", got)
	}
}

// Property: every schedule is non-increasing and bounded by [End, Start].
func TestEpsilonMonotone(t *testing.T) {
	f := func(kindRaw bool, decayRaw uint16) bool {
		kind := LinearDecay
		if kindRaw {
			kind = ExpDecay
		}
		decay := float64(decayRaw%1000) + 1
		s := EpsilonSchedule{Start: 1, End: 0.05, Decay: decay, Kind: kind}
		prev := s.At(0)
		for t := 1; t < 2000; t += 7 {
			cur := s.At(t)
			if cur > prev+1e-12 || cur < s.End-1e-12 || cur > s.Start+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonZeroDecay(t *testing.T) {
	s := EpsilonSchedule{Start: 1, End: 0.2, Decay: 0}
	if s.At(0) != 0.2 || s.At(10) != 0.2 {
		t.Fatal("zero decay should pin ε at End")
	}
}

func TestUniformNoiseRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := UniformNoise{Low: 0, High: 1}
	dst := make([]float64, 1000)
	u.Sample(rng, dst)
	var mean float64
	for _, v := range dst {
		if v < 0 || v >= 1 {
			t.Fatalf("sample %v outside [0,1)", v)
		}
		mean += v
	}
	mean /= float64(len(dst))
	if mean < 0.4 || mean > 0.6 {
		t.Fatalf("uniform mean %v implausible", mean)
	}
}

func TestOUNoiseMeanReversion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := NewOUNoise(1)
	o.Sigma = 0 // deterministic decay toward mu
	o.state[0] = 10
	dst := make([]float64, 1)
	for i := 0; i < 100; i++ {
		o.Sample(rng, dst)
	}
	if math.Abs(dst[0]) > 1 {
		t.Fatalf("OU noise did not revert to mean: %v", dst[0])
	}
}

func TestOUNoiseDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o := NewOUNoise(2)
	o.Sample(rand.New(rand.NewSource(5)), make([]float64, 3))
}
