package sim

import (
	"math/rand"
	"testing"
)

// TestAckTableMatchesMap drives the window table and a map with the same
// random sequence of root issues and out-of-order retirements, then checks
// every lookup: live roots hit, retired, never-issued and future roots
// miss, and the live count matches. The window wraps around its array and
// grows along the way.
func TestAckTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tab ackTable
	ref := map[int64]*ackState{}
	var live []int64 // issue order; retired roots are swapped out
	next := int64(0)
	wraps, wrappedGrows := 0, 0

	check := func() {
		t.Helper()
		if tab.live != len(ref) {
			t.Fatalf("live %d, reference %d", tab.live, len(ref))
		}
		for root := int64(-2); root < next+3; root++ {
			if got, want := tab.get(root), ref[root]; got != want {
				t.Fatalf("get(%d) = %p, reference %p (window base %d, end %d)",
					root, got, want, tab.base, tab.end())
			}
		}
	}

	for iter := 0; iter < 20000; iter++ {
		if len(live) == 0 || rng.Float64() < 0.52 {
			a := &ackState{pending: int(next)}
			size, head := len(tab.win.buf), tab.win.head
			tab.put(next, a)
			if tab.win.head+tab.win.n > len(tab.win.buf) {
				wraps++
			}
			if len(tab.win.buf) > size && head > 0 {
				wrappedGrows++
			}
			ref[next] = a
			live = append(live, next)
			next++
		} else {
			// Mostly retire near the front, sometimes anywhere, so the
			// window both advances and accumulates interior holes.
			i := rng.Intn(len(live))
			if rng.Float64() < 0.7 {
				i = rng.Intn(min(len(live), 4))
			}
			root := live[i]
			live = append(live[:i], live[i+1:]...)
			tab.remove(root)
			delete(ref, root)
		}
		if iter%97 == 0 {
			check()
		}
	}
	check()
	if wraps == 0 || wrappedGrows == 0 {
		t.Fatalf("the window wrapped %d times and grew while wrapped %d times, want both > 0", wraps, wrappedGrows)
	}
	for len(live) > 0 {
		tab.remove(live[len(live)-1])
		delete(ref, live[len(live)-1])
		live = live[:len(live)-1]
	}
	check()
	if tab.win.len() != 0 || tab.base != next {
		t.Fatalf("empty table kept a window: len %d base %d, want base %d",
			tab.win.len(), tab.base, next)
	}
}

// TestAckTableWindowAdvance retires roots out of order and checks the
// window front: it stays at the oldest live root and jumps past every
// retired root behind it once that root goes.
func TestAckTableWindowAdvance(t *testing.T) {
	var tab ackTable
	for root := int64(0); root < 5; root++ {
		tab.put(root, &ackState{})
	}
	tab.remove(2)
	tab.remove(3)
	if tab.base != 0 || tab.live != 3 {
		t.Fatalf("after interior frees: base %d live %d, want 0 and 3", tab.base, tab.live)
	}
	if tab.get(2) != nil || tab.get(3) != nil {
		t.Fatal("freed root still found")
	}
	tab.remove(1)
	tab.remove(0)
	if tab.base != 4 || tab.live != 1 || tab.get(4) == nil {
		t.Fatalf("after front frees: base %d live %d, want 4 and 1", tab.base, tab.live)
	}
	if tab.get(5) != nil || tab.get(0) != nil {
		t.Fatal("future or freed root found")
	}
	tab.remove(4)
	if tab.live != 0 || tab.end() != 5 {
		t.Fatalf("empty table: live %d end %d, want 0 and 5", tab.live, tab.end())
	}
	tab.put(5, &ackState{})
	if tab.base != 5 || tab.get(5) == nil {
		t.Fatalf("next root after emptying: base %d", tab.base)
	}
}

// TestOutstandingCountsLiveRoots checks that Outstanding equals the
// number of roots a simulation still tracks, with and without replays,
// both while a failed machine holds trees open and after it recovers.
func TestOutstandingCountsLiveRoots(t *testing.T) {
	for _, timeout := range []float64{0, 2_000} {
		s := faultSim(t, timeout)
		s.RunUntil(5_000)
		s.FailMachine(1, 3_000)
		for _, at := range []float64{6_000, 12_000} {
			s.RunUntil(at)
			n := 0
			for root := int64(0); root < s.Emitted(); root++ {
				if s.acks.get(root) != nil {
					n++
				}
			}
			if s.Outstanding() != n {
				t.Fatalf("timeout %v, t=%v: Outstanding() = %d, live roots %d", timeout, at, s.Outstanding(), n)
			}
			if at == 6_000 && n == 0 {
				t.Fatalf("timeout %v: no roots in flight during the outage", timeout)
			}
		}
	}
}
