package analytic

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

func chain(t testing.TB) *topology.Topology {
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

func newEval(t testing.TB, top *topology.Topology, m int, rate float64) *Evaluator {
	t.Helper()
	arr := map[string]workload.ArrivalProcess{}
	for _, sp := range top.Spouts() {
		arr[sp.Name] = workload.ConstantRate{PerSecond: rate}
	}
	ev, err := New(top, cluster.NewUniform(m), arr)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestNewValidation(t *testing.T) {
	top := chain(t)
	if _, err := New(top, cluster.NewUniform(2), map[string]workload.ArrivalProcess{}); err == nil {
		t.Fatal("missing arrivals should fail")
	}
	if _, err := New(top, &cluster.Cluster{}, nil); err == nil {
		t.Fatal("empty cluster should fail")
	}
}

func TestBasicProperties(t *testing.T) {
	top := chain(t)
	ev := newEval(t, top, 3, 150)
	if ev.N() != 8 || ev.M() != 3 {
		t.Fatalf("N=%d M=%d", ev.N(), ev.M())
	}
	w := ev.Workload()
	if len(w) != 1 || w[0] != 150 {
		t.Fatalf("workload %v", w)
	}
	assign := []int{0, 1, 2, 0, 1, 2, 0, 1}
	l := ev.AvgTupleTimeMS(assign)
	if l <= 0 || l > 100 {
		t.Fatalf("implausible latency %v", l)
	}
	// Deterministic.
	if ev.AvgTupleTimeMS(assign) != l {
		t.Fatal("evaluator not deterministic")
	}
}

func TestColocationBeatsScatterAnalytic(t *testing.T) {
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
	ev := newEval(t, top, 3, 100)
	if co, sc := ev.AvgTupleTimeMS([]int{0, 0, 0}), ev.AvgTupleTimeMS([]int{0, 1, 2}); co >= sc {
		t.Fatalf("colocated %v should beat scattered %v", co, sc)
	}
}

func TestOverloadPenalized(t *testing.T) {
	top, err := topology.NewBuilder("hot").
		AddSpout("s", 2, 0.02, 1, 100).
		AddBolt("heavy", 8, 2.0, 0, 0).
		Connect("s", "heavy", topology.Shuffle).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := newEval(t, top, 4, 1800)
	packed := ev.AvgTupleTimeMS([]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	spread := ev.AvgTupleTimeMS([]int{0, 1, 0, 1, 2, 3, 0, 1, 2, 3})
	if spread >= packed {
		t.Fatalf("spread %v should beat packed %v under overload", spread, packed)
	}
}

func TestHigherRateRaisesLatency(t *testing.T) {
	top := chain(t)
	assign := []int{0, 1, 2, 0, 1, 2, 0, 1}
	lo := newEval(t, top, 3, 100).AvgTupleTimeMS(assign)
	hi := newEval(t, top, 3, 900).AvgTupleTimeMS(assign)
	if hi <= lo {
		t.Fatalf("latency should grow with load: %v -> %v", lo, hi)
	}
}

func TestStepWorkloadSampledAtTime(t *testing.T) {
	top := chain(t)
	arr := map[string]workload.ArrivalProcess{
		"spout": workload.StepRate{Base: 100, Factor: 1.5, AtMS: 1000},
	}
	ev, err := New(top, cluster.NewUniform(3), arr)
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 1, 2, 0, 1, 2, 0, 1}
	before := ev.AvgTupleTimeMS(assign)
	ev.TimeMS = 2000
	after := ev.AvgTupleTimeMS(assign)
	if after <= before {
		t.Fatalf("stepped workload should raise latency: %v -> %v", before, after)
	}
	if ev.Workload()[0] != 150 {
		t.Fatal("Workload should sample at TimeMS")
	}
}

func TestZeroRate(t *testing.T) {
	top := chain(t)
	ev := newEval(t, top, 3, 0)
	if got := ev.AvgTupleTimeMS([]int{0, 1, 2, 0, 1, 2, 0, 1}); got != 0 {
		t.Fatalf("zero workload should give 0 latency, got %v", got)
	}
}

func TestGroupingRates(t *testing.T) {
	// Global grouping concentrates load on task 0 — latency should exceed
	// the shuffle equivalent under pressure.
	build := func(g topology.Grouping) *topology.Topology {
		top, err := topology.NewBuilder("g").
			AddSpout("s", 2, 0.02, 1, 100).
			AddBolt("b", 4, 1.0, 0, 0).
			Connect("s", "b", g).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	assign := []int{0, 1, 0, 1, 2, 3}
	shuffle := newEval(t, build(topology.Shuffle), 4, 800).AvgTupleTimeMS(assign)
	global := newEval(t, build(topology.Global), 4, 800).AvgTupleTimeMS(assign)
	if global <= shuffle {
		t.Fatalf("global grouping should congest task 0: shuffle %v global %v", shuffle, global)
	}
}

// spearman computes the Spearman rank correlation between two slices.
func spearman(a, b []float64) float64 {
	rank := func(v []float64) []float64 {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool { return v[idx[x]] < v[idx[y]] })
		r := make([]float64, len(v))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	ra, rb := rank(a), rank(b)
	n := float64(len(a))
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

// TestRankAgreementWithSimulator is the transfer-validity test: schedules
// the analytic evaluator prefers must also be preferred by the DES, or
// training on the analytic environment would not transfer.
func TestRankAgreementWithSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("DES comparison is slow")
	}
	top, err := topology.NewBuilder("cq").
		AddSpout("spout", 2, 0.05, 1, 150).
		AddBolt("query", 5, 0.8, 0.3, 200).
		AddBolt("file", 3, 0.3, 0, 0).
		Connect("spout", "query", topology.Shuffle).
		Connect("query", "file", topology.Shuffle).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.NewUniform(4)
	arr := map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: 600}}
	ev, err := New(top, cl, arr)
	if err != nil {
		t.Fatal(err)
	}
	senv := &sim.Env{Top: top, Cl: cl, Arrivals: arr, Seed: 1, HorizonMS: 40_000}

	rng := rand.New(rand.NewSource(99))
	var av, sv []float64
	for trial := 0; trial < 12; trial++ {
		assign := make([]int, top.NumExecutors())
		for i := range assign {
			assign[i] = rng.Intn(4)
		}
		av = append(av, ev.AvgTupleTimeMS(assign))
		sv = append(sv, senv.AvgTupleTimeMS(assign))
	}
	rho := spearman(av, sv)
	if rho < 0.5 {
		t.Fatalf("analytic/DES rank correlation too weak: ρ=%.2f\nanalytic=%v\nsim=%v", rho, av, sv)
	}
}

func BenchmarkEvaluateLarge(b *testing.B) {
	top, err := topology.NewBuilder("cq-large").
		AddSpout("spout", 10, 0.05, 1, 150).
		AddBolt("query", 45, 0.8, 0.3, 200).
		AddBolt("file", 45, 0.3, 0, 0).
		Connect("spout", "query", topology.Shuffle).
		Connect("query", "file", topology.Shuffle).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	arr := map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: 1000}}
	ev, err := New(top, cluster.NewUniform(10), arr)
	if err != nil {
		b.Fatal(err)
	}
	assign := make([]int, 100)
	for i := range assign {
		assign[i] = i % 10
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.AvgTupleTimeMS(assign)
	}
}

func TestHeterogeneousSpeedMatters(t *testing.T) {
	// A half-speed machine should make schedules that lean on it worse.
	top := chain(t)
	cl := cluster.NewUniform(3)
	cl.Machines[2].SpeedFactor = 0.25
	arr := map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: 600}}
	ev, err := New(top, cl, arr)
	if err != nil {
		t.Fatal(err)
	}
	onFast := []int{0, 1, 0, 1, 0, 1, 0, 1}
	onSlow := []int{2, 2, 2, 2, 2, 2, 0, 1}
	if fast, slow := ev.AvgTupleTimeMS(onFast), ev.AvgTupleTimeMS(onSlow); slow <= fast {
		t.Fatalf("slow machine should hurt: fast=%v slow=%v", fast, slow)
	}
}

func TestSerializationCostShapesRanking(t *testing.T) {
	// With serialization cost zeroed, co-location loses part of its edge;
	// the evaluator must reflect the knob.
	top := chain(t)
	arr := map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: 600}}
	clWith := cluster.NewUniform(4)
	clWithout := cluster.NewUniform(4)
	clWithout.SerializeMS = 0
	evWith, err := New(top, clWith, arr)
	if err != nil {
		t.Fatal(err)
	}
	evWithout, err := New(top, clWithout, arr)
	if err != nil {
		t.Fatal(err)
	}
	spread := []int{0, 1, 2, 3, 0, 1, 2, 3}
	gapWith := evWith.AvgTupleTimeMS(spread)
	gapWithout := evWithout.AvgTupleTimeMS(spread)
	if gapWith <= gapWithout {
		t.Fatalf("serialization cost should raise spread-schedule latency: with=%v without=%v", gapWith, gapWithout)
	}
}

// TestMachinePermutationInvariance: on a homogeneous cluster, relabeling
// machines must not change the estimate (the evaluator has no hidden
// machine-identity dependence).
func TestMachinePermutationInvariance(t *testing.T) {
	top := chain(t)
	ev := newEval(t, top, 4, 700)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		assign := make([]int, top.NumExecutors())
		for i := range assign {
			assign[i] = rng.Intn(4)
		}
		perm := rng.Perm(4)
		relabeled := make([]int, len(assign))
		for i, m := range assign {
			relabeled[i] = perm[m]
		}
		a, b := ev.AvgTupleTimeMS(assign), ev.AvgTupleTimeMS(relabeled)
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: permutation changed estimate %v -> %v", trial, a, b)
		}
	}
}

// TestTaskPermutationWithinComponent: swapping two executors of the same
// component (same service profile, symmetric routing) must not change the
// estimate.
func TestTaskPermutationWithinComponent(t *testing.T) {
	top := chain(t)
	ev := newEval(t, top, 4, 700)
	rng := rand.New(rand.NewSource(13))
	lo, hi := top.ExecutorRange("work")
	for trial := 0; trial < 25; trial++ {
		assign := make([]int, top.NumExecutors())
		for i := range assign {
			assign[i] = rng.Intn(4)
		}
		swapped := append([]int(nil), assign...)
		i, j := lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo)
		swapped[i], swapped[j] = swapped[j], swapped[i]
		a, b := ev.AvgTupleTimeMS(assign), ev.AvgTupleTimeMS(swapped)
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: task swap changed estimate %v -> %v", trial, a, b)
		}
	}
}
