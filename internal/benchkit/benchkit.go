// Package benchkit runs the repo's signature performance benchmarks
// programmatically (via testing.Benchmark) and renders machine-readable
// results, so each PR can commit a BENCH_PRn.json snapshot and the perf
// trajectory of the hot paths — training steps, batched inference, the
// serving daemon's request throughput — is tracked in-repo rather than in
// commit messages.
//
// The suite deliberately reuses the public APIs the *_test.go benchmarks
// drive, at the same shapes, so `reprobench -bench-json` numbers are
// comparable with `go test -bench` output.
package benchkit

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/multisim"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// Result is one benchmark's outcome.
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full machine-readable benchmark snapshot.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	KernelMode string   `json:"gemm_kernel_mode"`
	Results    []Result `json:"results"`
}

// Run executes the suite and returns the report. progress, when non-nil,
// receives one line per benchmark as it completes. A benchmark that fails
// internally (testing.Benchmark swallows b.Fatal and hands back a zero
// result) is reported as an error rather than silently recorded as
// 0 ns/op, so a corrupted snapshot can never look like a perf win.
func Run(progress func(string)) (Report, error) {
	var failed []string
	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelMode: kernelModeName(mat.CurrentKernelMode()),
	}
	add := func(name string, extra map[string]float64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			failed = append(failed, name)
			if progress != nil {
				progress(fmt.Sprintf("%-40s FAILED", name))
			}
			return
		}
		res := Result{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Metrics:     extra,
		}
		if opsPerSec, ok := r.Extra["req/s"]; ok {
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics["req/s"] = opsPerSec
		}
		rep.Results = append(rep.Results, res)
		if progress != nil {
			progress(fmt.Sprintf("%-40s %12.0f ns/op  %6d allocs/op", name, res.NsPerOp, res.AllocsPerOp))
		}
	}

	// GEMM kernels at the hot training shape (256×242 one-hot-dominated
	// batch against 64×242 layer-1 weights), blocked vs reference.
	add("mat/MatmulNT_onehot_blocked", nil, func(b *testing.B) { benchGemm(b, mat.KernelBlocked) })
	add("mat/MatmulNT_onehot_reference", nil, func(b *testing.B) { benchGemm(b, mat.KernelReference) })

	// One actor-critic / DQN training step (replay sampling + mini-batch
	// update) at the small continuous-queries scale (N=20, M=6), matching
	// BenchmarkTrainStepAC; the workers variants run the same TrainStep
	// with the GEMM row bands sharded across a pool.
	add("core/TrainStepAC", nil, func(b *testing.B) { benchTrainAC(b, 1) })
	add("core/TrainStepDQN", nil, benchTrainDQN)
	for _, w := range []int{2, 4} {
		w := w
		add(fmt.Sprintf("core/TrainStepAC_workers=%d", w), nil, func(b *testing.B) { benchTrainAC(b, w) })
	}

	// Batched inference-only forward over a 64-row one-hot micro-batch
	// (the serving path's kernel), matching nn.ForwardBatchInfer usage.
	add("nn/ForwardBatchInfer64", nil, benchInfer)

	// End-to-end serving throughput over loopback TCP, 64 concurrent
	// sessions.
	add("serve/Requests64Sessions", nil, benchServe)

	// Shared-clock multi-topology stepping at steady state: one global
	// event through the instance heap plus the owning simulator's event
	// heap, as resident topology count grows (matching
	// multisim.BenchmarkClusterStep).
	for _, n := range []int{1, 4} {
		n := n
		add(fmt.Sprintf("multisim/ClusterStep_topologies=%d", n), nil, func(b *testing.B) { benchMultisim(b, n) })
	}
	if len(failed) > 0 {
		return rep, fmt.Errorf("benchkit: %d benchmark(s) failed: %v", len(failed), failed)
	}
	return rep, nil
}

// WriteJSON renders the report to path (pretty-printed, trailing newline).
func WriteJSON(rep Report, path string) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func kernelModeName(m mat.KernelMode) string {
	if m == mat.KernelReference {
		return "reference"
	}
	return "blocked"
}

func benchGemm(b *testing.B, mode mat.KernelMode) {
	prev := mat.SetKernelMode(mode)
	defer mat.SetKernelMode(prev)
	rng := rand.New(rand.NewSource(1))
	x := mat.NewMatrix(256, 242)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for i := 0; i < 40; i++ {
			row[rng.Intn(len(row))] = 1
		}
	}
	w := mat.NewMatrix(64, 242)
	w.Randomize(rng, 1)
	dst := mat.NewMatrix(256, 64)
	ws := &mat.Workspace{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MatmulNTP(dst, x, w, ws, nil)
	}
}

// seedAgent fills an agent's replay buffer through the public collection
// API so TrainStep performs real updates.
func seedAgent(agent core.Agent, n, m, numSpouts, count int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % m
	}
	work := make([]float64, numSpouts)
	for i := range work {
		work[i] = 100 + 10*rng.Float64()
	}
	for i := 0; i < count; i++ {
		next := agent.RandomAssignment(assign)
		agent.Observe(assign, work, -(1 + rng.Float64()), next, work)
		assign = next
	}
}

func benchTrainAC(b *testing.B, workers int) {
	cfg := core.DefaultACConfig()
	cfg.UpdatesPerStep = 1
	a := core.NewActorCritic(20, 6, 2, cfg, 1)
	seedAgent(a, 20, 6, 2, 2*cfg.BatchSize, 2)
	if workers > 1 {
		a.SetPool(nn.NewPool(parallel.NewSem(workers - 1)))
	}
	a.TrainStep() // warm the grow-only workspaces so allocs/op reflects steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainStep()
	}
}

func benchTrainDQN(b *testing.B) {
	d := core.NewDQN(20, 6, 2, core.DefaultDQNConfig(), 1)
	seedAgent(d, 20, 6, 2, 64, 2)
	d.TrainStep() // warm the grow-only workspaces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TrainStep()
	}
}

func benchInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	net := nn.New([]int{122, 64, 32, 120}, nn.Tanh, nn.Tanh, rng)
	x := mat.NewMatrix(64, 122)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for i := 0; i < 20; i++ {
			row[rng.Intn(120)] = 1
		}
		row[120] = rng.Float64()
		row[121] = rng.Float64()
	}
	net.ForwardBatchInfer(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatchInfer(x)
	}
}

// benchMultisim steps an n-topology contended shared cluster (10 machines,
// the benchmark app mix) warmed to steady state.
func benchMultisim(b *testing.B, n int) {
	apps := []string{"cq-small", "wc", "log", "cq-medium"}
	sc := &multisim.Scenario{
		Name:       "bench",
		Seed:       1,
		DurationMS: 1e18, // stepped manually; no horizon
		Cluster:    multisim.ClusterSpec{Machines: 10},
	}
	for i := 0; i < n; i++ {
		sc.Topologies = append(sc.Topologies, multisim.TopologySpec{
			App:  apps[i%len(apps)],
			Name: fmt.Sprintf("%s-%d", apps[i%len(apps)], i),
		})
	}
	m, err := multisim.Build(sc, false)
	if err != nil {
		b.Fatal(err)
	}
	m.RunUntil(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Step() {
			b.Fatal("ran out of events")
		}
	}
}

func benchServe(b *testing.B) {
	const sessions = 64
	s := serve.New(serve.Config{MaxBatch: 64, Seed: 1})
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

	pool := serve.NewPool(serve.ClientConfig{
		Addr:  l.Addr().String(),
		Hello: serve.HelloMsg{Topology: "bench", N: 24, M: 8, Spouts: 3},
	}, sessions)
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	start := time.Now()
	b.ResetTimer()
	err = pool.Run(context.Background(), func(ctx context.Context, i int, sess *serve.Session) error {
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
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "req/s")
}
