package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
	"repro/internal/workload"
)

func chainTopology(t testing.TB) *topology.Topology {
	t.Helper()
	top, err := topology.NewBuilder("chain").
		AddSpout("spout", 2, 0.05, 1, 120).
		AddBolt("work", 4, 0.4, 1, 80).
		AddBolt("sink", 2, 0.1, 0, 0).
		Connect("spout", "work", topology.Shuffle).
		Connect("work", "sink", topology.Shuffle).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func newSim(t testing.TB, top *topology.Topology, m int, rate float64, seed int64) *Sim {
	t.Helper()
	cl := cluster.NewUniform(m)
	arr := map[string]workload.ArrivalProcess{}
	for _, sp := range top.Spouts() {
		arr[sp.Name] = workload.ConstantRate{PerSecond: rate}
	}
	cfg := DefaultConfig(top, cl, arr, seed)
	cfg.WarmupAmplitude = 0 // most tests want stationary behaviour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func roundRobin(n, m int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i % m
	}
	return a
}

func TestNewValidation(t *testing.T) {
	top := chainTopology(t)
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing topology/cluster should fail")
	}
	// Missing arrival process.
	cfg := DefaultConfig(top, cluster.NewUniform(2), map[string]workload.ArrivalProcess{}, 1)
	if _, err := New(cfg); err == nil {
		t.Fatal("missing spout arrivals should fail")
	}
}

func TestDeployValidation(t *testing.T) {
	s := newSim(t, chainTopology(t), 3, 100, 1)
	if err := s.Deploy([]int{0}); err == nil {
		t.Fatal("short assignment should fail")
	}
	if err := s.Deploy([]int{0, 1, 2, 0, 1, 2, 99, 0}); err == nil {
		t.Fatal("invalid machine should fail")
	}
}

func TestTuplesFlowAndComplete(t *testing.T) {
	top := chainTopology(t)
	s := newSim(t, top, 3, 200, 42)
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30_000)
	if s.Completed() == 0 {
		t.Fatal("no tuples completed")
	}
	// Roughly rate × horizon completions (allowing in-flight stragglers).
	want := 200.0 * 30
	got := float64(s.Completed())
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("completed %v, expected near %v", got, want)
	}
	avg := s.AvgOverLastWindows(3)
	if avg <= 0 {
		t.Fatal("no latency measured")
	}
	// Sanity: latency should exceed the bare service-time sum (~0.55ms)
	// and stay below a second for this light load.
	if avg < 0.4 || avg > 1000 {
		t.Fatalf("implausible avg latency %v ms", avg)
	}
}

func TestDeterminism(t *testing.T) {
	top := chainTopology(t)
	run := func() float64 {
		s := newSim(t, top, 3, 150, 7)
		if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(20_000)
		return s.AvgOverLastWindows(2)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	top := chainTopology(t)
	make := func(seed int64) float64 {
		s := newSim(t, top, 3, 150, seed)
		if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(20_000)
		return s.AvgOverLastWindows(2)
	}
	if make(1) == make(2) {
		t.Fatal("different seeds produced identical latency (suspicious)")
	}
}

// TestColocationBeatsScatter: with communication costs dominating, packing
// the pipeline on fewer machines must beat scattering every hop across the
// network — the basic signal every scheduler in the paper exploits.
func TestColocationBeatsScatter(t *testing.T) {
	top, err := topology.NewBuilder("pair").
		AddSpout("s", 1, 0.02, 1, 400).
		AddBolt("a", 1, 0.1, 1, 400).
		AddBolt("b", 1, 0.1, 0, 0).
		Connect("s", "a", topology.Shuffle).
		Connect("a", "b", topology.Shuffle).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eval := func(assign []int) float64 {
		s := newSim(t, top, 3, 100, 5)
		if err := s.Deploy(assign); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(30_000)
		return s.AvgOverLastWindows(3)
	}
	colocated := eval([]int{0, 0, 0})
	scattered := eval([]int{0, 1, 2})
	if colocated >= scattered {
		t.Fatalf("colocated %.3fms should beat scattered %.3fms", colocated, scattered)
	}
	// The gap should be at least the two network RTT legs it saves.
	if scattered-colocated < 0.3 {
		t.Fatalf("network cost too weak: colocated %.3f scattered %.3f", colocated, scattered)
	}
}

// TestOverloadHurts: packing far more service demand onto one machine than
// its cores can absorb must be worse than spreading — the opposing force to
// co-location.
func TestOverloadHurts(t *testing.T) {
	top, err := topology.NewBuilder("hot").
		AddSpout("s", 2, 0.02, 1, 100).
		AddBolt("heavy", 8, 2.0, 0, 0).
		Connect("s", "heavy", topology.Shuffle).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	eval := func(assign []int) float64 {
		s := newSim(t, top, 4, 1800, 9)
		if err := s.Deploy(assign); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(40_000)
		return s.AvgOverLastWindows(3)
	}
	// 1800 tuples/s × 2 ms = 3.6 cores of demand: near saturation for one
	// 4-core machine, comfortable when spread over four machines.
	packed := eval([]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	spread := eval([]int{0, 1, 0, 1, 2, 3, 0, 1, 2, 3})
	if spread >= packed {
		t.Fatalf("spread %.3fms should beat packed %.3fms under CPU overload", spread, packed)
	}
}

func TestWarmupDecay(t *testing.T) {
	top := chainTopology(t)
	cl := cluster.NewUniform(3)
	arr := map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: 150}}
	cfg := DefaultConfig(top, cl, arr, 11)
	// Defaults keep warm-up on.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(20 * 60 * 1000)
	wins := s.Windows()
	if len(wins) < 100 {
		t.Fatalf("only %d windows", len(wins))
	}
	early := (wins[1].AvgMS + wins[2].AvgMS + wins[3].AvgMS) / 3
	late := s.AvgOverLastWindows(5)
	if early <= late*1.12 {
		t.Fatalf("warm-up should inflate early latency: early %.3f late %.3f", early, late)
	}
}

func TestRedeployMinimalImpact(t *testing.T) {
	top := chainTopology(t)
	s := newSim(t, top, 3, 150, 13)
	n := top.NumExecutors()
	first := roundRobin(n, 3)
	if err := s.Deploy(first); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30_000)
	before := s.Completed()
	// Move a single executor; the rest keep processing.
	second := append([]int(nil), first...)
	second[3] = (second[3] + 1) % 3
	if err := s.Deploy(second); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(60_000)
	if s.Completed() <= before {
		t.Fatal("pipeline stalled after minimal redeploy")
	}
}

func TestStepWorkloadRaisesThroughput(t *testing.T) {
	top := chainTopology(t)
	cl := cluster.NewUniform(3)
	arr := map[string]workload.ArrivalProcess{
		"spout": workload.StepRate{Base: 100, Factor: 1.5, AtMS: 30_000},
	}
	cfg := DefaultConfig(top, cl, arr, 17)
	cfg.WarmupAmplitude = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30_000)
	atStep := s.Completed()
	s.RunUntil(60_000)
	afterStep := s.Completed() - atStep
	// Second half has 1.5× the arrival rate.
	ratio := float64(afterStep) / float64(atStep)
	if ratio < 1.3 || ratio > 1.7 {
		t.Fatalf("throughput ratio %.2f, want ≈1.5", ratio)
	}
}

func TestGroupingsRouteCorrectly(t *testing.T) {
	// A topology using all four groupings must still conserve the ack tree
	// (every root completes) — routing bugs would leak pending acks.
	top, err := topology.NewBuilder("groupings").
		AddSpout("s", 2, 0.02, 1, 50).
		AddBolt("f", 3, 0.05, 1, 50).
		AddBolt("g", 2, 0.05, 1, 50).
		AddBolt("all", 2, 0.02, 0, 0).
		Connect("s", "f", topology.Fields).
		Connect("f", "g", topology.Global).
		Connect("g", "all", topology.All).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, top, 2, 100, 19)
	if err := s.Deploy(roundRobin(top.NumExecutors(), 2)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(20_000)
	if s.Completed() < 1500 {
		t.Fatalf("only %d completions; expected ≈2000", s.Completed())
	}
	// Drain: after arrivals stop being injected the in-flight set should not grow
	// unboundedly (bounded in-flight set).
	if s.Outstanding() > 500 {
		t.Fatalf("%d tuples stuck in flight", s.Outstanding())
	}
}

func TestSelectivityFanOut(t *testing.T) {
	// Selectivity 2 on the spout edge doubles downstream tuples; ack trees
	// must still complete.
	top, err := topology.NewBuilder("fan").
		AddSpout("s", 1, 0.02, 2, 50).
		AddBolt("b", 2, 0.05, 0, 0).
		Connect("s", "b", topology.Shuffle).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, top, 2, 100, 23)
	if err := s.Deploy([]int{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(15_000)
	if s.Completed() < 1000 {
		t.Fatalf("completions %d", s.Completed())
	}
}

func TestZeroRateEmitsNothing(t *testing.T) {
	top := chainTopology(t)
	s := newSim(t, top, 2, 0, 29)
	if err := s.Deploy(roundRobin(top.NumExecutors(), 2)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10_000)
	if s.Completed() != 0 {
		t.Fatalf("completed %d tuples at zero rate", s.Completed())
	}
	if s.AvgOverLastWindows(5) != 0 {
		t.Fatal("latency should be 0 with no tuples")
	}
}

func TestWindowsAccounting(t *testing.T) {
	top := chainTopology(t)
	s := newSim(t, top, 3, 100, 31)
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(35_000)
	wins := s.Windows()
	if len(wins) != 3 {
		t.Fatalf("%d complete windows for 35 s, want 3", len(wins))
	}
	var total int
	for i, w := range wins {
		if w.TimeMS != float64(i+1)*10_000 {
			t.Fatalf("window %d time %v", i, w.TimeMS)
		}
		total += w.Count
	}
	if int64(total) > s.Completed() {
		t.Fatal("window counts exceed completions")
	}
}

func TestEnvImplementsEnvironment(t *testing.T) {
	top := chainTopology(t)
	cl := cluster.NewUniform(3)
	e := &Env{
		Top: top, Cl: cl,
		Arrivals:  map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: 150}},
		Seed:      37,
		HorizonMS: 30_000,
	}
	if e.N() != top.NumExecutors() || e.M() != 3 {
		t.Fatal("N/M wrong")
	}
	w := e.Workload()
	if len(w) != 1 || w[0] != 150 {
		t.Fatalf("workload %v", w)
	}
	a := e.AvgTupleTimeMS(roundRobin(e.N(), 3))
	b := e.AvgTupleTimeMS(roundRobin(e.N(), 3))
	if a != b {
		t.Fatalf("env evaluation not paired/deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("latency %v", a)
	}
}

func TestEnvFreezesStepWorkload(t *testing.T) {
	top := chainTopology(t)
	cl := cluster.NewUniform(3)
	e := &Env{
		Top: top, Cl: cl,
		Arrivals:  map[string]workload.ArrivalProcess{"spout": workload.StepRate{Base: 100, Factor: 1.5, AtMS: 1000}},
		Seed:      41,
		HorizonMS: 20_000,
	}
	e.TimeMS = 500
	before := e.Workload()[0]
	e.TimeMS = 2_000
	after := e.Workload()[0]
	if before != 100 || after != 150 {
		t.Fatalf("workload sampling wrong: %v %v", before, after)
	}
	lBefore := e.AvgTupleTimeMS(roundRobin(e.N(), 3))
	if lBefore <= 0 {
		t.Fatal("frozen-step evaluation failed")
	}
}

func TestCongestionCounterBalanced(t *testing.T) {
	top := chainTopology(t)
	s := newSim(t, top, 3, 200, 43)
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(20_000)
	// After a drain period with no further injections the outbound
	// counters must return near zero (they balance increment/decrement).
	for i, m := range s.machines {
		if m.outInFlight < 0 {
			t.Fatalf("machine %d negative in-flight %d", i, m.outInFlight)
		}
		if m.outInFlight > 200 {
			t.Fatalf("machine %d leaked in-flight counter: %d", i, m.outInFlight)
		}
	}
}

func TestRandomAssignmentsAllComplete(t *testing.T) {
	top := chainTopology(t)
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 5; trial++ {
		assign := make([]int, top.NumExecutors())
		for i := range assign {
			assign[i] = rng.Intn(3)
		}
		s := newSim(t, top, 3, 120, int64(trial))
		if err := s.Deploy(assign); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(15_000)
		if s.Completed() == 0 {
			t.Fatalf("assignment %v produced no completions", assign)
		}
	}
}

func BenchmarkSimSecond(b *testing.B) {
	top := chainTopology(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newSim(b, top, 3, 200, 51)
		if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
			b.Fatal(err)
		}
		s.RunUntil(1_000)
	}
}

func TestTupleConservation(t *testing.T) {
	// Every emitted root is eventually completed, dropped, or still in
	// flight — the ack-tree bookkeeping must not leak or double-count.
	top := chainTopology(t)
	s := newSim(t, top, 3, 200, 61)
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30_000)
	total := s.Completed() + s.Dropped() + int64(s.Outstanding())
	if total != s.Emitted() {
		t.Fatalf("conservation violated: emitted %d, completed %d + dropped %d + outstanding %d = %d",
			s.Emitted(), s.Completed(), s.Dropped(), s.Outstanding(), total)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	top := chainTopology(t)
	s := newSim(t, top, 3, 200, 63)
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	if s.LatencyPercentile(50) != 0 {
		t.Fatal("percentile before completions should be 0")
	}
	s.RunUntil(30_000)
	p50 := s.LatencyPercentile(50)
	p99 := s.LatencyPercentile(99)
	avg := s.AvgOverLastWindows(3)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles implausible: p50=%v p99=%v", p50, p99)
	}
	// Exponential service tails: p99 should clearly exceed the mean.
	if p99 < avg {
		t.Fatalf("p99 %v below mean %v", p99, avg)
	}
}
