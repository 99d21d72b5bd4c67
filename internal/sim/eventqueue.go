package sim

// eventQueue is the simulator's priority queue of pending events, ordered
// by (t, seq). It has two lanes:
//
//   - a 4-ary min-heap for events pushed in arbitrary time order. The heap
//     moves compact 24-byte keys {t, seq, slot}; each event's payload sits
//     in a slab slot that a free list recycles, so sifting never copies
//     whole events. Sifts move a hole rather than swapping pairs.
//   - a FIFO ring (pushFIFO) for events that arrive already sorted. Every
//     ack-timeout check is due at now+ackTimeoutMS; now never decreases,
//     IEEE addition is monotone and seq only grows, so those events are
//     pushed in (t, seq) order and the ring's head is always its minimum.
//     They are the bulk of the pending set under a 10 s timeout, and the
//     ring holds them at O(1) per push and pop instead of deepening the
//     heap. A pushFIFO that would order before the ring's tail falls back
//     to the heap, so the queue stays correct whether or not its caller
//     keeps the invariant.
//
// (t, seq) is a total order — seq is unique per event — so pop returns
// the smaller of the two lane minima, and the pop sequence is exactly the
// one any single correct priority queue over the same pushes would give
// (eventqueue_test.go checks it against container/heap).
type eventQueue struct {
	keys []eventKey // 4-ary heap
	slab []event    // heap payloads, indexed by eventKey.slot
	free []int32    // unused slab slots

	fifo ring[event] // sorted lane
}

// eventKey is a heap entry: an event's ordering key and its slab slot.
type eventKey struct {
	t    float64
	seq  int64
	slot int32
}

// before orders events by time, then by push sequence for determinism.
func before(t1 float64, seq1 int64, t2 float64, seq2 int64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return seq1 < seq2
}

func keyLess(a, b *eventKey) bool { return before(a.t, a.seq, b.t, b.seq) }

func (q *eventQueue) len() int { return len(q.keys) + q.fifo.len() }

// fifoFirst reports whether the next event to pop is the FIFO lane's head.
func (q *eventQueue) fifoFirst() bool {
	if q.fifo.len() == 0 {
		return false
	}
	if len(q.keys) == 0 {
		return true
	}
	f, k := q.fifo.at(0), &q.keys[0]
	return before(f.t, f.seq, k.t, k.seq)
}

// peekTime returns the earliest event time; the queue must be non-empty.
func (q *eventQueue) peekTime() float64 {
	if q.fifoFirst() {
		return q.fifo.at(0).t
	}
	return q.keys[0].t
}

func (q *eventQueue) pop() event {
	if q.fifoFirst() {
		return q.fifo.popFront()
	}
	top := q.keys[0]
	last := len(q.keys) - 1
	if last > 0 {
		q.siftDown(q.keys[last])
	}
	q.keys = q.keys[:last]
	q.free = append(q.free, top.slot)
	return q.slab[top.slot]
}

// pushFIFO queues an event expected to order after every event already in
// the FIFO lane; one that does not goes to the heap.
func (q *eventQueue) pushFIFO(e event) {
	if n := q.fifo.len(); n > 0 {
		if tail := q.fifo.at(n - 1); before(e.t, e.seq, tail.t, tail.seq) {
			q.push(e)
			return
		}
	}
	q.fifo.pushBack(e)
}

// push queues an event on the heap.
func (q *eventQueue) push(e event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = e
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, e)
	}
	k := eventKey{t: e.t, seq: e.seq, slot: slot}
	q.keys = append(q.keys, k)
	i := len(q.keys) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !keyLess(&k, &q.keys[p]) {
			break
		}
		q.keys[i] = q.keys[p]
		i = p
	}
	q.keys[i] = k
}

// siftDown fills the hole the popped root leaves with k, the heap's last
// key, moving smaller children up until k fits. The caller then drops the
// last position, so the search stops one short of it.
func (q *eventQueue) siftDown(k eventKey) {
	n := len(q.keys) - 1
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if keyLess(&q.keys[c], &q.keys[min]) {
				min = c
			}
		}
		if !keyLess(&q.keys[min], &k) {
			break
		}
		q.keys[i] = q.keys[min]
		i = min
	}
	q.keys[i] = k
}
