package sim

// ring is a FIFO over a circular array: the n live items start at
// buf[head] and wrap at the end of buf. Pushes and pops never move items;
// a push into a full ring copies them once into an array twice as large.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// at returns the i-th item from the front; 0 <= i < len().
func (r *ring[T]) at(i int) *T {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(16, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	*r.at(r.n) = v
	r.n++
}

// popFront removes and returns the front item; the ring must be non-empty.
func (r *ring[T]) popFront() T {
	v := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// reset drops every item.
func (r *ring[T]) reset() { r.head, r.n = 0, 0 }
