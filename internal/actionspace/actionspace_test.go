package actionspace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := NewSpace(4, 3)
	assign := []int{0, 2, 1, 2}
	flat := s.Encode(assign, nil)
	if len(flat) != 12 {
		t.Fatalf("dim %d", len(flat))
	}
	got := s.Decode(flat)
	for i := range assign {
		if got[i] != assign[i] {
			t.Fatalf("round trip %v -> %v", assign, got)
		}
	}
	// Each row one-hot.
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += flat[i*3+j]
		}
		if sum != 1 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestEncodeReusesDst(t *testing.T) {
	s := NewSpace(2, 2)
	dst := make([]float64, 4)
	dst[3] = 9 // stale garbage must be cleared
	out := s.Encode([]int{0, 0}, dst)
	if &out[0] != &dst[0] {
		t.Fatal("Encode should reuse dst")
	}
	if out[3] != 0 {
		t.Fatal("Encode must clear stale values")
	}
}

func TestEncodePanicsOnBadMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpace(1, 2).Encode([]int{5}, nil)
}

func TestRandomFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSpace(10, 4)
	for trial := 0; trial < 20; trial++ {
		a := s.Random(rng)
		if !s.Feasible(a) {
			t.Fatalf("random assignment infeasible: %v", a)
		}
	}
}

func TestRandomRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := &Space{N: 6, M: 3, Capacity: []int{2, 2, 2}}
	for trial := 0; trial < 50; trial++ {
		a := s.Random(rng)
		if !s.Feasible(a) {
			t.Fatalf("capacity violated: %v", a)
		}
	}
}

func TestSqDistMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSpace(5, 4)
	proto := make([]float64, s.Dim())
	for i := range proto {
		proto[i] = rng.NormFloat64()
	}
	a := s.Random(rng)
	flat := s.Encode(a, nil)
	var want float64
	for i := range flat {
		d := flat[i] - proto[i]
		want += d * d
	}
	got := s.SqDistTo(a, proto)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("SqDistTo=%v explicit=%v", got, want)
	}
}

// bruteKNN enumerates all M^N assignments and returns the k nearest.
func bruteKNN(s *Space, proto []float64, k int) [][]int {
	type cand struct {
		assign []int
		d      float64
	}
	var all []cand
	assign := make([]int, s.N)
	var rec func(i int)
	rec = func(i int) {
		if i == s.N {
			if s.Feasible(assign) {
				all = append(all, cand{append([]int(nil), assign...), s.SqDistTo(assign, proto)})
			}
			return
		}
		for j := 0; j < s.M; j++ {
			assign[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	sort.SliceStable(all, func(a, b int) bool { return all[a].d < all[b].d })
	if k > len(all) {
		k = len(all)
	}
	out := make([][]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].assign
	}
	return out
}

// TestKNearestExactAgainstBruteForce is the core correctness test for the
// MIQP-NN substitute: the heap enumeration must return exactly the k-nearest
// set, in distance order, for random proto-actions.
func TestKNearestExactAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4) // up to 5 threads
		m := 2 + rng.Intn(3) // up to 4 machines
		s := NewSpace(n, m)
		proto := make([]float64, s.Dim())
		for i := range proto {
			proto[i] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(10)
		got := s.KNearest(proto, k)
		want := bruteKNN(s, proto, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results want %d", trial, len(got), len(want))
		}
		for i := range got {
			gd := s.SqDistTo(got[i], proto)
			wd := s.SqDistTo(want[i], proto)
			if math.Abs(gd-wd) > 1e-9 {
				t.Fatalf("trial %d rank %d: got dist %v want %v (got %v)", trial, i, gd, wd, got[i])
			}
		}
		// Distances must be non-decreasing.
		for i := 1; i < len(got); i++ {
			if s.SqDistTo(got[i], proto)+1e-12 < s.SqDistTo(got[i-1], proto) {
				t.Fatalf("trial %d: results not sorted by distance", trial)
			}
		}
	}
}

func TestKNearestNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSpace(4, 3)
	proto := make([]float64, s.Dim())
	for i := range proto {
		proto[i] = rng.Float64()
	}
	res := s.KNearest(proto, 20)
	seen := map[string]bool{}
	for _, a := range res {
		key := ""
		for _, j := range a {
			key += string(rune('0' + j))
		}
		if seen[key] {
			t.Fatalf("duplicate assignment %v", a)
		}
		seen[key] = true
	}
}

func TestKNearestWithCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Proto strongly prefers machine 0 for all threads, but capacity forces
	// spreading.
	s := &Space{N: 4, M: 2, Capacity: []int{2, 4}}
	proto := make([]float64, s.Dim())
	for i := 0; i < s.N; i++ {
		proto[i*2] = 1.0 // machine 0 preferred
	}
	res := s.KNearest(proto, 3)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for _, a := range res {
		if !s.Feasible(a) {
			t.Fatalf("infeasible result %v", a)
		}
	}
	want := bruteKNN(s, proto, 3)
	for i := range res {
		gd, wd := s.SqDistTo(res[i], proto), s.SqDistTo(want[i], proto)
		if math.Abs(gd-wd) > 1e-9 {
			t.Fatalf("rank %d: got dist %v want %v", i, gd, wd)
		}
	}
	_ = rng
}

func TestKNearestKLargerThanSpace(t *testing.T) {
	s := NewSpace(2, 2)
	proto := []float64{0.9, 0.1, 0.2, 0.8}
	res := s.KNearest(proto, 100)
	if len(res) != 4 { // 2^2 total assignments
		t.Fatalf("got %d results want 4", len(res))
	}
}

func TestNearestEqualsDecodeUnconstrained(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(6, 4)
		proto := make([]float64, s.Dim())
		for i := range proto {
			proto[i] = rng.NormFloat64()
		}
		a, b := s.Nearest(proto), s.Decode(proto)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the first KNearest result is always at least as close as any
// random feasible assignment.
func TestKNearestFirstIsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(5, 3)
		proto := make([]float64, s.Dim())
		for i := range proto {
			proto[i] = rng.NormFloat64() * 2
		}
		best := s.KNearest(proto, 1)[0]
		bd := s.SqDistTo(best, proto)
		for trial := 0; trial < 30; trial++ {
			r := s.Random(rng)
			if s.SqDistTo(r, proto) < bd-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveActionRoundTrip(t *testing.T) {
	s := NewSpace(7, 5)
	seen := map[MoveAction]bool{}
	for idx := 0; idx < s.Dim(); idx++ {
		mv := s.MoveFromIndex(idx)
		if mv.Thread < 0 || mv.Thread >= 7 || mv.Machine < 0 || mv.Machine >= 5 {
			t.Fatalf("index %d -> out-of-range move %v", idx, mv)
		}
		if back := mv.Thread*s.M + mv.Machine; back != idx {
			t.Fatalf("round trip %d -> %v -> %d", idx, mv, back)
		}
		seen[mv] = true
	}
	if len(seen) != s.Dim() {
		t.Fatalf("%d distinct moves from %d indices", len(seen), s.Dim())
	}
}

func TestApplyMoveDoesNotMutate(t *testing.T) {
	orig := []int{0, 1, 2}
	out := ApplyMove(orig, MoveAction{Thread: 1, Machine: 0})
	if orig[1] != 1 {
		t.Fatal("ApplyMove mutated input")
	}
	if out[1] != 0 || out[0] != 0 || out[2] != 2 {
		t.Fatalf("ApplyMove wrong: %v", out)
	}
}

func BenchmarkKNearestLarge(b *testing.B) {
	// Paper's large scale: N=100 threads, M=10 machines, K=8.
	rng := rand.New(rand.NewSource(9))
	s := NewSpace(100, 10)
	proto := make([]float64, s.Dim())
	for i := range proto {
		proto[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.KNearest(proto, 8)
	}
}
