package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// benchStates builds H encoded states for an n×m×spouts policy.
func benchStates(p *Policy, h int, seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	states := mat.NewMatrix(h, p.StateDim())
	assign := make([]int, p.Space.N)
	work := make([]float64, p.Codec.NumSpouts)
	for i := 0; i < h; i++ {
		for j := range assign {
			assign[j] = rng.Intn(p.Space.M)
		}
		for j := range work {
			work[j] = 1000 * rng.Float64()
		}
		p.Codec.Encode(assign, work, states.Row(i))
	}
	return states
}

// The inference benchmarks pit one batched pass over 64 pending requests
// (what the micro-batcher does: coalesced GEMMs through the zero-skipping
// inference kernels) against 64 per-request passes the way the pre-serve
// code path did them — per-sample dense GEMVs (nn.Forward) for the actor
// and one critic GEMV per K-NN candidate, exactly ActorCritic.Greedy's
// structure ("one GEMV per request"). Same networks, same states, same
// decisions; the ratio is the serving engine's win at 64 concurrent
// sessions. Topology: 24 executors × 8 machines (the paper's large
// scale), K = 8.
const benchSessions = 64

func newBenchPolicy() *Policy { return NewPolicy(24, 8, 3, 8, 1234) }

// selectPerSampleGEMV reproduces the seed's per-request decision path on
// the policy's networks: actor Forward (one GEMV), exact K-NN, then one
// per-sample critic Forward per candidate.
type perSampleBaseline struct {
	p     *Policy
	proto []float64
	sa    []float64
	knn   [][]int
}

func newPerSampleBaseline(p *Policy) *perSampleBaseline {
	return &perSampleBaseline{
		p:     p,
		proto: make([]float64, p.Space.Dim()),
		sa:    make([]float64, p.Codec.Dim()+p.Space.Dim()),
	}
}

func (b *perSampleBaseline) selectOne(state []float64, out []int) {
	p := b.p
	copy(b.proto, p.Actor.Forward(state))
	b.knn = p.Space.KNearestInto(b.proto, p.K, b.knn)
	sdim := p.Codec.Dim()
	best, bestQ := 0, 0.0
	for i, cand := range b.knn {
		copy(b.sa[:sdim], state)
		p.Space.Encode(cand, b.sa[sdim:])
		q := p.Critic.Forward(b.sa)[0]
		if i == 0 || q > bestQ {
			best, bestQ = i, q
		}
	}
	copy(out, b.knn[best])
}

func BenchmarkInferenceBatched64(b *testing.B) {
	p := newBenchPolicy()
	states := benchStates(p, benchSessions, 9)
	out := make([][]int, benchSessions)
	for i := range out {
		out[i] = make([]int, p.Space.N)
	}
	p.SelectBatch(states, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SelectBatch(states, out)
	}
	b.ReportMetric(float64(b.N*benchSessions)/b.Elapsed().Seconds(), "decisions/s")
}

func BenchmarkInferencePerRequest64(b *testing.B) {
	p := newBenchPolicy()
	base := newPerSampleBaseline(p)
	states := benchStates(p, benchSessions, 9)
	out := make([]int, p.Space.N)
	base.selectOne(states.Row(0), out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < benchSessions; s++ {
			base.selectOne(states.Row(s), out)
		}
	}
	b.ReportMetric(float64(b.N*benchSessions)/b.Elapsed().Seconds(), "decisions/s")
}

// BenchmarkInferenceSingle64 measures the serving engine forced to
// micro-batches of one (MaxBatch=1): the engine's kernels without the
// cross-session coalescing.
func BenchmarkInferenceSingle64(b *testing.B) {
	p := newBenchPolicy()
	states := benchStates(p, benchSessions, 9)
	out := make([]int, p.Space.N)
	p.Select(states.Row(0), out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < benchSessions; s++ {
			p.Select(states.Row(s), out)
		}
	}
	b.ReportMetric(float64(b.N*benchSessions)/b.Elapsed().Seconds(), "decisions/s")
}

// benchServer measures end-to-end throughput over loopback TCP with 64
// concurrent sessions, batched (MaxBatch 64) vs unbatched (MaxBatch 1).
func benchServer(b *testing.B, cfg Config) {
	s := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	defer func() {
		cancel()
		<-done
	}()

	pool := NewPool(ClientConfig{
		Addr:  l.Addr().String(),
		Hello: HelloMsg{Topology: "bench", N: 24, M: 8, Spouts: 3},
	}, benchSessions)
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	b.ResetTimer()
	err = pool.Run(context.Background(), func(ctx context.Context, i int, sess *Session) error {
		meas := core.MeasurementMsg{AvgTupleTimeMS: 50, Workload: []float64{100, 200, 300}}
		for remaining.Add(-1) >= 0 {
			if _, err := sess.Step(ctx, meas); err != nil {
				return fmt.Errorf("session %d: %w", i, err)
			}
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkServeBatched64Sessions(b *testing.B) {
	benchServer(b, Config{MaxBatch: 64, Seed: 1})
}

func BenchmarkServeUnbatched64Sessions(b *testing.B) {
	benchServer(b, Config{MaxBatch: 1, Seed: 1})
}

// BenchmarkInferenceBatched64Workers shards the 64-request micro-batch's
// GEMMs across a worker pool (the H·K = 512 candidate-row critic pass
// splits into 64-row bands). Decisions are bitwise identical across pool
// sizes; on a single-core host the >1 variants measure sharding overhead.
func BenchmarkInferenceBatched64Workers(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := newBenchPolicy()
			if w > 1 {
				p.SetPool(nn.NewPool(parallel.NewSem(w - 1)))
			}
			states := benchStates(p, benchSessions, 9)
			out := make([][]int, benchSessions)
			for i := range out {
				out[i] = make([]int, p.Space.N)
			}
			p.SelectBatch(states, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.SelectBatch(states, out)
			}
			b.ReportMetric(float64(b.N*benchSessions)/b.Elapsed().Seconds(), "decisions/s")
		})
	}
}
