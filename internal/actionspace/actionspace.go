// Package actionspace models the scheduling action space of the paper and
// implements the K-nearest-neighbor optimizer over it.
//
// An action assigns each of N threads (executors) to one of M machines:
// a = <a_ij> with Σ_j a_ij = 1 (§3.2). Flattened row-major, an action is a
// point in R^(N·M) with one-hot rows, and |A| = M^N.
//
// The paper finds the K feasible actions nearest to the actor's continuous
// proto-action â by solving a series of MIQP-NN problems with the Gurobi
// optimizer (§3.2.1). This package replaces Gurobi with an *exact*
// polynomial-time algorithm: because the one-hot row constraints are
// independent, ‖a − â‖² decomposes into per-row column costs, and the K best
// full assignments are exactly the K smallest sums picking one column per
// row — enumerable with a best-first heap (k-smallest-sums). The result set
// is identical to what the MIQP series would return.
package actionspace

import (
	"fmt"
	"math/rand"
)

// Space describes the feasible action space for N threads and M machines.
// If Capacity is non-nil it gives, per machine, the maximum number of
// threads assignable to it (slot limits); the paper's formulation (3.2) has
// no capacity constraint, so Capacity is normally nil.
type Space struct {
	N, M     int
	Capacity []int // optional, len M

	// knn is the reusable k-smallest-sums workspace; because of it a Space
	// must not run KNearest searches concurrently from multiple goroutines.
	knn knnScratch
}

// NewSpace returns an unconstrained N×M action space.
func NewSpace(n, m int) *Space {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("actionspace: invalid dimensions N=%d M=%d", n, m))
	}
	return &Space{N: n, M: m}
}

// Dim returns the flattened action dimension N·M.
func (s *Space) Dim() int { return s.N * s.M }

// Encode writes the one-hot flattening of assign (len N, values in [0,M))
// into dst (len N·M) and returns dst. A nil dst is allocated.
func (s *Space) Encode(assign []int, dst []float64) []float64 {
	if len(assign) != s.N {
		panic(fmt.Sprintf("actionspace: Encode got %d threads want %d", len(assign), s.N))
	}
	if dst == nil {
		dst = make([]float64, s.Dim())
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	for i, j := range assign {
		if j < 0 || j >= s.M {
			panic(fmt.Sprintf("actionspace: thread %d assigned to invalid machine %d", i, j))
		}
		dst[i*s.M+j] = 1
	}
	return dst
}

// Decode recovers an assignment from a flat (possibly continuous) action by
// taking the argmax of each row. This is the K=1 rounding ("the most natural
// way": nearest feasible neighbor of the proto-action).
func (s *Space) Decode(flat []float64) []int {
	if len(flat) != s.Dim() {
		panic(fmt.Sprintf("actionspace: Decode got dim %d want %d", len(flat), s.Dim()))
	}
	assign := make([]int, s.N)
	for i := 0; i < s.N; i++ {
		row := flat[i*s.M : (i+1)*s.M]
		best, bj := row[0], 0
		for j := 1; j < s.M; j++ {
			if row[j] > best {
				best, bj = row[j], j
			}
		}
		assign[i] = bj
	}
	return assign
}

// Random returns a uniformly random feasible assignment. With capacities it
// retries machine choices per thread; the space must be feasible
// (Σ capacity ≥ N), otherwise Random panics.
func (s *Space) Random(rng *rand.Rand) []int {
	assign := make([]int, s.N)
	if s.Capacity == nil {
		for i := range assign {
			assign[i] = rng.Intn(s.M)
		}
		return assign
	}
	remaining := append([]int(nil), s.Capacity...)
	total := 0
	for _, c := range remaining {
		total += c
	}
	if total < s.N {
		panic(fmt.Sprintf("actionspace: total capacity %d < N=%d", total, s.N))
	}
	for i := range assign {
		for {
			j := rng.Intn(s.M)
			if remaining[j] > 0 {
				remaining[j]--
				assign[i] = j
				break
			}
		}
	}
	return assign
}

// RandomStratified returns a random feasible assignment whose
// *consolidation level* is itself uniform: it draws k ~ U{1..M}, picks k
// machines, and assigns each thread uniformly among them. Uniform sampling
// (Random) concentrates mass at even spreads — for N ≫ M the probability
// of drawing a schedule that uses few machines is astronomically small —
// so offline collections that rely on it never observe the consolidated
// region of the action space. Stratified sampling covers the whole
// spectrum, which is what lets the full-action-space agent explore where
// the move-restricted DQN cannot (§3.2).
func (s *Space) RandomStratified(rng *rand.Rand) []int {
	if s.Capacity != nil {
		// Capacity constraints make arbitrary consolidation infeasible;
		// fall back to plain feasible sampling.
		return s.Random(rng)
	}
	k := 1 + rng.Intn(s.M)
	machines := rng.Perm(s.M)[:k]
	assign := make([]int, s.N)
	for i := range assign {
		assign[i] = machines[rng.Intn(k)]
	}
	return assign
}

// SqDistTo returns ‖Encode(assign) − proto‖² without materializing the
// one-hot vector.
func (s *Space) SqDistTo(assign []int, proto []float64) float64 {
	if len(proto) != s.Dim() || len(assign) != s.N {
		panic("actionspace: SqDistTo dimension mismatch")
	}
	var d float64
	for i, j := range assign {
		row := proto[i*s.M : (i+1)*s.M]
		for c, v := range row {
			if c == j {
				d += (1 - v) * (1 - v)
			} else {
				d += v * v
			}
		}
	}
	return d
}

// Feasible reports whether assign respects the capacity constraints.
func (s *Space) Feasible(assign []int) bool {
	if len(assign) != s.N {
		return false
	}
	counts := make([]int, s.M)
	for _, j := range assign {
		if j < 0 || j >= s.M {
			return false
		}
		counts[j]++
	}
	if s.Capacity != nil {
		for j, c := range counts {
			if c > s.Capacity[j] {
				return false
			}
		}
	}
	return true
}

// rowChoice is one column option for a row, with its distance contribution
// delta relative to the row's best column.
type rowChoice struct {
	col   int
	delta float64
}

// knnNode is a heap node in the k-smallest-sums enumeration: a vector of
// per-row pointers into the sorted choice lists plus the total delta.
type knnNode struct {
	delta    float64
	ptrs     []int16 // index into choices[i] per row
	frontier int     // rows < frontier are frozen (dedup rule)
}

// knnScratch is the reusable workspace of the k-smallest-sums search. It is
// owned by the Space, so a Space must not run KNearest searches from
// multiple goroutines concurrently (each agent owns its own Space, and the
// parallel experiment engine never shares agents across workers).
type knnScratch struct {
	choices []rowChoice // N·M backing, row i at [i·M, (i+1)·M)
	heap    []*knnNode  // binary min-heap by delta
	free    []*knnNode  // node pool
	counts  []int       // per-machine load buffer for feasibility checks
}

func (sc *knnScratch) get(n int) *knnNode {
	if l := len(sc.free); l > 0 {
		nd := sc.free[l-1]
		sc.free = sc.free[:l-1]
		return nd
	}
	return &knnNode{ptrs: make([]int16, n)}
}

func (sc *knnScratch) put(nd *knnNode) { sc.free = append(sc.free, nd) }

// heapPush inserts nd into the typed min-heap (no interface boxing).
func (sc *knnScratch) heapPush(nd *knnNode) {
	h := append(sc.heap, nd)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].delta <= h[i].delta {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	sc.heap = h
}

// heapPop removes and returns the minimum-delta node.
func (sc *knnScratch) heapPop() *knnNode {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].delta < h[small].delta {
			small = l
		}
		if r < len(h) && h[r].delta < h[small].delta {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	sc.heap = h
	return top
}

// maxExpansions bounds the search when capacity constraints make many
// combinations infeasible; without capacities every popped node is feasible
// and the bound is never approached.
const maxExpansions = 200000

// KNearest returns the k feasible assignments nearest to proto in squared
// Euclidean distance, nearest first. This is the exact solution of the
// paper's series of MIQP-NN problems (§3.2.1). Fewer than k results are
// returned only if the (capacity-constrained) space is exhausted or the
// expansion budget is hit.
//
// KNearest and KNearestInto reuse a search workspace owned by the Space
// and are therefore NOT safe for concurrent use on a shared Space; give
// each goroutine (each agent) its own Space.
func (s *Space) KNearest(proto []float64, k int) [][]int {
	return s.KNearestInto(proto, k, nil)
}

// KNearestInto is KNearest with caller-owned result storage: dst's backing
// slices are reused when large enough, so a training loop that calls it with
// the same dst every mini-batch performs no steady-state allocations. The
// returned slice (a resliced dst) and its contents are valid until the next
// call with the same dst.
func (s *Space) KNearestInto(proto []float64, k int, dst [][]int) [][]int {
	if len(proto) != s.Dim() {
		panic(fmt.Sprintf("actionspace: KNearest got dim %d want %d", len(proto), s.Dim()))
	}
	if k <= 0 {
		return dst[:0]
	}
	sc := &s.knn
	// Per-row sorted column choices. Within row i the squared distance of
	// choosing column j is 1 − 2·â_ij + ‖â_i‖²; the constant terms are
	// shared, so choices sort by −â_ij. Deltas store the exact distance
	// difference to the row optimum: Δ = 2(â_i,best − â_ij). M is small, so
	// an insertion sort is both allocation-free and fastest.
	if cap(sc.choices) < s.N*s.M {
		sc.choices = make([]rowChoice, s.N*s.M)
	}
	choices := sc.choices[:s.N*s.M]
	for i := 0; i < s.N; i++ {
		row := proto[i*s.M : (i+1)*s.M]
		cs := choices[i*s.M : (i+1)*s.M]
		for j := 0; j < s.M; j++ {
			cs[j] = rowChoice{col: j, delta: -2 * row[j]}
		}
		for a := 1; a < len(cs); a++ {
			x := cs[a]
			b := a - 1
			for b >= 0 && (cs[b].delta > x.delta || (cs[b].delta == x.delta && cs[b].col > x.col)) {
				cs[b+1] = cs[b]
				b--
			}
			cs[b+1] = x
		}
		base := cs[0].delta
		for j := range cs {
			cs[j].delta -= base
		}
	}

	// appendAssign materializes a pointer vector into dst, reusing backing
	// storage from previous calls where possible.
	appendAssign := func(ptrs []int16) {
		var a []int
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
			a = dst[len(dst)-1]
			if cap(a) >= s.N {
				a = a[:s.N]
				dst[len(dst)-1] = a
			} else {
				a = make([]int, s.N)
				dst[len(dst)-1] = a
			}
		} else {
			a = make([]int, s.N)
			dst = append(dst, a)
		}
		for i, p := range ptrs {
			a[i] = choices[i*s.M+int(p)].col
		}
	}

	if cap(sc.counts) < s.M {
		sc.counts = make([]int, s.M)
	}
	// feasible checks capacity directly on the pointer vector (columns are
	// valid by construction), reusing the counts buffer: the capacity-
	// constrained search is exactly the one that expands many nodes, so it
	// must not allocate per expansion.
	feasible := func(ptrs []int16) bool {
		if s.Capacity == nil {
			return true
		}
		counts := sc.counts[:s.M]
		for j := range counts {
			counts[j] = 0
		}
		for i, p := range ptrs {
			counts[choices[i*s.M+int(p)].col]++
		}
		for j, c := range counts {
			if c > s.Capacity[j] {
				return false
			}
		}
		return true
	}

	dst = dst[:0]
	root := sc.get(s.N)
	root.delta = 0
	root.frontier = 0
	for i := range root.ptrs {
		root.ptrs[i] = 0
	}
	sc.heapPush(root)
	expansions := 0
	for len(sc.heap) > 0 && len(dst) < k && expansions < maxExpansions {
		node := sc.heapPop()
		expansions++
		if feasible(node.ptrs) {
			appendAssign(node.ptrs)
		}
		// Children: advance one row pointer at or beyond the frontier. The
		// frontier rule generates each pointer vector exactly once.
		for r := node.frontier; r < s.N; r++ {
			p := node.ptrs[r]
			if int(p)+1 >= s.M {
				continue
			}
			child := sc.get(s.N)
			child.delta = node.delta - choices[r*s.M+int(p)].delta + choices[r*s.M+int(p)+1].delta
			child.frontier = r
			copy(child.ptrs, node.ptrs)
			child.ptrs[r]++
			sc.heapPush(child)
		}
		sc.put(node)
	}
	// Drain leftover heap nodes back into the pool for the next search.
	for _, nd := range sc.heap {
		sc.put(nd)
	}
	sc.heap = sc.heap[:0]
	return dst
}

// Nearest is the K=1 fast path: the single nearest feasible assignment.
// Without capacity constraints it is simply the per-row argmax.
func (s *Space) Nearest(proto []float64) []int {
	if s.Capacity == nil {
		return s.Decode(proto)
	}
	res := s.KNearest(proto, 1)
	if len(res) == 0 {
		panic("actionspace: no feasible assignment found")
	}
	return res[0]
}

// MoveAction is the DQN baseline's restricted action: reassign a single
// thread to a machine (§3.2), giving |A| = N·M.
type MoveAction struct {
	Thread, Machine int
}

// ApplyMove returns a copy of assign with the move applied.
func ApplyMove(assign []int, m MoveAction) []int {
	out := append([]int(nil), assign...)
	out[m.Thread] = m.Machine
	return out
}

// MoveFromIndex maps a flat index in [0, N·M) to its MoveAction
// (index = Thread·M + Machine).
func (s *Space) MoveFromIndex(idx int) MoveAction {
	return MoveAction{Thread: idx / s.M, Machine: idx % s.M}
}
