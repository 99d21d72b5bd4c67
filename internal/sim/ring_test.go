package sim

import (
	"math/rand"
	"testing"
)

// TestRingMatchesSlice drives a ring and a plain slice with the same
// random pushes, pops and resets, checking every item through at() after
// each operation, so wrap-around and growth of a wrapped ring are covered.
func TestRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var r ring[int]
	var ref []int
	next := 0
	for iter := 0; iter < 20000; iter++ {
		switch x := rng.Float64(); {
		case x < 0.001:
			r.reset()
			ref = ref[:0]
		case len(ref) == 0 || x < 0.52:
			r.pushBack(next)
			ref = append(ref, next)
			next++
		default:
			if got := r.popFront(); got != ref[0] {
				t.Fatalf("popFront = %d, want %d", got, ref[0])
			}
			ref = ref[1:]
		}
		if r.len() != len(ref) {
			t.Fatalf("len %d, want %d", r.len(), len(ref))
		}
		for i, want := range ref {
			if got := *r.at(i); got != want {
				t.Fatalf("at(%d) = %d, want %d", i, got, want)
			}
		}
	}
}
