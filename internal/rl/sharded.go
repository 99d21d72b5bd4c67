package rl

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// ShardedReplay is a replay buffer sharded by contributor key (the serving
// daemon uses one shard per session token). Sharding serves two goals:
//
//   - Determinism: transitions within a shard arrive in their contributor's
//     own order, which is deterministic even when many sessions feed the
//     buffer concurrently; interleaving across contributors never matters
//     because sampling walks shards in sorted key order. Two runs with the
//     same per-contributor streams therefore sample identical batches from
//     identical RNG states.
//   - Lifecycle: a contributor's transitions can be dropped as one unit
//     when its session is evicted.
//
// All methods are safe for concurrent use; Add from many goroutines may
// interleave with Sample from a trainer goroutine.
type ShardedReplay struct {
	mu       sync.Mutex
	shardCap int
	shards   map[string]*replayShard
	keys     []string // sorted shard keys; the deterministic walk order
	count    int      // total stored transitions

	// Sample scratch: cumulative shard lengths and the matching buffers,
	// rebuilt once per Sample so each draw is a binary search instead of
	// an O(shards) key walk with a map lookup per step.
	cum  []int
	bufs []*ReplayBuffer
}

// replayShard is one contributor's ring buffer plus the monotone count of
// transitions ever added to it. The count is the shard's write sequence:
// the durability layer journals it with each transition so crash recovery
// can tell a transition the snapshot already holds from one that must be
// re-applied (see AddRecovered).
type replayShard struct {
	buf   *ReplayBuffer
	added uint64
}

// NewShardedReplay returns an empty sharded buffer whose per-key shards
// hold at most shardCap transitions each (oldest evicted first).
func NewShardedReplay(shardCap int) *ShardedReplay {
	if shardCap <= 0 {
		shardCap = 1
	}
	return &ShardedReplay{shardCap: shardCap, shards: map[string]*replayShard{}}
}

// shard returns key's shard, creating it (and its sorted-keys slot) on
// first use. Callers hold s.mu.
func (s *ShardedReplay) shard(key string) *replayShard {
	sh, ok := s.shards[key]
	if !ok {
		sh = &replayShard{buf: NewReplayBuffer(s.shardCap)}
		s.shards[key] = sh
		i := sort.SearchStrings(s.keys, key)
		s.keys = append(s.keys, "")
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = key
	}
	return sh
}

// Add stores t in key's shard, creating the shard on first use, and
// returns the shard's new write sequence (the count of transitions ever
// added to it, 1-based).
func (s *ShardedReplay) Add(key string, t Transition) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(key)
	if sh.buf.Len() == sh.buf.Cap() {
		s.count-- // Add below evicts the oldest
	}
	sh.buf.Add(t)
	sh.added++
	s.count++
	return sh.added
}

// AddRecovered applies a journaled transition during crash recovery: it
// stores t only if seq is newer than the shard's current write sequence
// (the snapshot the journal replays over may already contain it), and
// advances the sequence to seq either way. It returns whether t was
// stored. Gaps (seq jumping more than one ahead, from journal records
// dropped under backpressure) are tolerated; the sequence tracks the
// journal's numbering so later records still compare correctly.
func (s *ShardedReplay) AddRecovered(key string, seq uint64, t Transition) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(key)
	if seq <= sh.added {
		return false
	}
	if sh.buf.Len() == sh.buf.Cap() {
		s.count--
	}
	sh.buf.Add(t)
	sh.added = seq
	s.count++
	return true
}

// Remove drops key's shard and all its transitions.
func (s *ShardedReplay) Remove(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[key]
	if !ok {
		return
	}
	s.count -= sh.buf.Len()
	delete(s.shards, key)
	i := sort.SearchStrings(s.keys, key)
	s.keys = append(s.keys[:i], s.keys[i+1:]...)
}

// Len returns the total number of stored transitions.
func (s *ShardedReplay) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Shards returns the number of live shards.
func (s *ShardedReplay) Shards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// ShardExport is one shard's full contents in oldest→newest order, plus
// its write sequence — the unit of replay-buffer persistence.
type ShardExport struct {
	Key   string
	Added uint64
	Trans []Transition
}

// Export captures every shard in sorted-key order, transitions
// oldest→newest. The returned transitions share backing arrays with the
// buffer (stored transitions are immutable), so Export is cheap enough to
// run inside a snapshot pause.
func (s *ShardedReplay) Export() []ShardExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardExport, 0, len(s.keys))
	for _, key := range s.keys {
		sh := s.shards[key]
		n := sh.buf.Len()
		ts := make([]Transition, n)
		for i := 0; i < n; i++ {
			ts[i] = sh.buf.At(ringIndex(sh.buf, i))
		}
		out = append(out, ShardExport{Key: key, Added: sh.added, Trans: ts})
	}
	return out
}

// Import replaces the buffer's contents with previously exported shards.
// Shards longer than the configured per-shard capacity keep only their
// newest transitions (the ring's normal eviction rule). Import walks the
// input in order, so two imports of the same export build bitwise
// identical state.
func (s *ShardedReplay) Import(shards []ShardExport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards = make(map[string]*replayShard, len(shards))
	s.keys = s.keys[:0]
	s.count = 0
	for _, se := range shards {
		sh := s.shard(se.Key)
		for _, t := range se.Trans {
			if sh.buf.Len() == sh.buf.Cap() {
				s.count--
			}
			sh.buf.Add(t)
			s.count++
		}
		sh.added = se.Added
	}
}

// Checksum returns an FNV-64a digest of the buffer's full logical state:
// every shard in sorted key order with its write sequence and transitions
// oldest→newest, each float bit-exact. Two buffers holding the same
// transitions in the same shard order checksum equal regardless of how
// they got there (live adds, recovery replay, or an Import of an Export) —
// the failover harness uses it to assert a promoted follower's replay is
// bitwise the leader's last shipped barrier.
func (s *ShardedReplay) Checksum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := fnv.New64a()
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, _ = h.Write(scratch[:]) // hash.Hash writes cannot fail
	}
	f64s := func(vs []float64) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(len(s.keys)))
	for _, key := range s.keys {
		_, _ = io.WriteString(h, key)
		_, _ = h.Write([]byte{0})
		sh := s.shards[key]
		u64(sh.added)
		n := sh.buf.Len()
		u64(uint64(n))
		for i := 0; i < n; i++ {
			t := sh.buf.At(ringIndex(sh.buf, i))
			f64s(t.State)
			f64s(t.Action)
			u64(math.Float64bits(t.Reward))
			f64s(t.NextState)
		}
	}
	return h.Sum64()
}

// Sample draws n transitions uniformly at random (with replacement) across
// all shards into dst, which is resized as needed and returned. The draw
// treats the shards, walked in sorted key order, as one concatenated
// buffer, so for a fixed RNG state and fixed shard contents the sampled
// batch is independent of the goroutine interleaving that filled the
// shards. Returns dst[:0] when the buffer is empty.
func (s *ShardedReplay) Sample(rng *rand.Rand, n int, dst []Transition) []Transition {
	dst = dst[:0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return dst
	}
	// One pass over the sorted keys builds the cumulative-length table;
	// each draw then binary-searches it. Same idx→shard mapping as a
	// linear walk, so sampled batches are unchanged.
	s.cum = s.cum[:0]
	s.bufs = s.bufs[:0]
	total := 0
	for _, key := range s.keys {
		b := s.shards[key].buf
		total += b.Len()
		s.cum = append(s.cum, total)
		s.bufs = append(s.bufs, b)
	}
	for i := 0; i < n; i++ {
		idx := rng.Intn(s.count)
		j := sort.SearchInts(s.cum, idx+1)
		b := s.bufs[j]
		local := idx - (s.cum[j] - b.Len())
		dst = append(dst, b.At(ringIndex(b, local)))
	}
	return dst
}

// ringIndex maps a logical in-order index (0 = oldest) to the ring
// position used by ReplayBuffer.At. The mapping keeps sampling stable
// under eviction: index i always means "the i-th oldest transition".
func ringIndex(b *ReplayBuffer, i int) int {
	if !b.full {
		return i
	}
	return (b.next + i) % b.Cap()
}
