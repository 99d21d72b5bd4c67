package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap implementation the typed queue replaced,
// kept here as the property-test oracle.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestEventQueueMatchesContainerHeap drives the two-lane queue and the
// container/heap reference with an identical random sequence of interleaved
// pushes and pops and requires identical pop sequences. Heap pushes use
// coarse timestamps, so many tie and the seq tiebreaker must order them.
// FIFO pushes follow a clock that only moves forward, as ack checks do,
// and share timestamps with heap events, so ties across the lanes are
// decided by seq; now and then a FIFO push goes back in time, which must
// take the heap fallback.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var ref refHeap
	heap.Init(&ref)

	seq := int64(0)
	clock := 0.0
	fallbacks := 0
	push := func() {
		ev := event{kind: uint8(rng.Intn(5)), exec: int32(rng.Intn(100)), seq: seq}
		seq++
		switch r := rng.Float64(); {
		case r < 0.5:
			ev.t = float64(rng.Intn(50)) + clock
			q.push(ev)
		case r < 0.98:
			clock += float64(rng.Intn(2))
			ev.t = clock
			q.pushFIFO(ev)
		default:
			ev.t = clock - 1 - float64(rng.Intn(5))
			heapLen, laneLen := len(q.keys), q.len()-len(q.keys)
			q.pushFIFO(ev)
			if laneLen > 0 {
				// The lane's tail was pushed at clock > ev.t.
				if len(q.keys) != heapLen+1 {
					t.Fatalf("out-of-order FIFO push at t=%v did not fall back to the heap", ev.t)
				}
				fallbacks++
			}
		}
		heap.Push(&ref, ev)
	}
	popBoth := func() {
		got := q.pop()
		want := heap.Pop(&ref).(event)
		if got != want {
			t.Fatalf("pop mismatch: queue returned t=%v seq=%d, reference t=%v seq=%d",
				got.t, got.seq, want.t, want.seq)
		}
	}

	for iter := 0; iter < 40000; iter++ {
		if q.len() == 0 || rng.Float64() < 0.55 {
			push()
		} else {
			if q.peekTime() != ref[0].t {
				t.Fatalf("peekTime %v, reference %v", q.peekTime(), ref[0].t)
			}
			popBoth()
		}
		if q.len() != ref.Len() {
			t.Fatalf("length mismatch: queue %d reference %d", q.len(), ref.Len())
		}
	}
	for q.len() > 0 {
		popBoth()
	}
	if fallbacks == 0 {
		t.Fatal("no FIFO push took the heap fallback")
	}
}

// TestEventQueueLaneTies checks that equal timestamps across the two
// lanes pop in seq order, whichever lane holds the smaller seq.
func TestEventQueueLaneTies(t *testing.T) {
	var q eventQueue
	q.pushFIFO(event{t: 5, seq: 1})
	q.push(event{t: 5, seq: 0})
	q.push(event{t: 5, seq: 3})
	q.pushFIFO(event{t: 5, seq: 2})
	q.pushFIFO(event{t: 5, seq: 4})
	for want := int64(0); want < 5; want++ {
		if got := q.pop(); got.seq != want {
			t.Fatalf("pop %d returned seq %d", want, got.seq)
		}
	}
	if q.len() != 0 {
		t.Fatalf("%d events left", q.len())
	}
}

// TestEventQueuePopOrderIsSorted pops a batch of random events and checks
// the (t, seq) total order directly.
func TestEventQueuePopOrderIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	for i := 0; i < 5000; i++ {
		q.push(event{t: float64(rng.Intn(20)), seq: int64(i)})
	}
	prev := q.pop()
	for q.len() > 0 {
		cur := q.pop()
		if cur.t < prev.t || (cur.t == prev.t && cur.seq < prev.seq) {
			t.Fatalf("pop order violated: (t=%v seq=%d) after (t=%v seq=%d)", cur.t, cur.seq, prev.t, prev.seq)
		}
		prev = cur
	}
}
