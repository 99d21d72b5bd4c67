package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/actionspace"
	"repro/internal/analytic"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/multisim"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tournament"
)

// The in-process workloads call the simulation and training layers
// through their public functions; the traced run replays the same work
// with a span around each layer call.

// The CI smoke tournament: the budget and seed of the gated matrix.
const (
	smokeSeed       = 1
	smokeTrain      = 40
	smokeDurationMS = 60_000
	smokeGolden     = "TOURNAMENT_SMOKE.json" // its matrix, byte for byte
)

// smokeOptions runs the cells on one worker, as the gated GOMAXPROCS=1
// run of the CI smoke job does, so peak memory does not depend on which
// cells happen to overlap. On a shared 2-vCPU host the run-to-run spread
// of the wall time was 18% with two workers and 9–14% with one.
func smokeOptions(seed int64) tournament.Options {
	return tournament.Options{Seed: seed, DurationMS: smokeDurationMS, TrainBudget: smokeTrain, Workers: 1}
}

// runTournament times tournament.Run on the CI smoke tournament and
// checks its matrix: no cell errors, byte-identical to the committed
// smoke matrix. The timed tournament is the same in every run — across
// tournament seeds 1–10 its peak memory spread by 19% (57–90 MB), more
// than a bound should absorb — so the workload seed instead picks one
// scheduler whose six cells are run twice at tournament seed = workload
// seed and must agree, which checks determinism on seeds no committed
// matrix covers. A traced run replays all 42 smoke cells with spans and
// compares each with the matrix.
func runTournament(cfg config) (*report, error) {
	rep := &report{}
	golden, err := os.ReadFile(filepath.Join(cfg.root, smokeGolden))
	if err != nil {
		return nil, err
	}
	setup, err := scenarioSetup(smokeSeed)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)

	t0 := time.Now()
	id := cfg.tr.begin("tournament.run", 0)
	m, err := tournament.Run(smokeOptions(smokeSeed))
	cfg.tr.end(id)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	cells := len(m.Schedulers) * len(m.Regimes)
	rep.attempted += int64(cells)
	for _, s := range m.Schedulers {
		for _, rg := range m.Regimes {
			if c := m.Cells[s][rg]; c == nil || c.Error != "" {
				rep.failed++
				rep.problem("cell %s×%s failed: %v", s, rg, c)
			}
		}
	}
	if !bytes.Equal(golden, buf.Bytes()) {
		rep.failed++
		rep.problem("smoke matrix differs from %s", smokeGolden)
	}
	rep.set("op_p50_ms", 1000*wall)
	rep.set("op_rate_per_s", float64(cells)/wall)
	rep.set("peak_rss_mb", maxRSSMB())
	rep.printf("tournament_s %.4f s, %d cells on one worker, matrix byte-identical to %s: %v; setup_s %.6f s",
		wall, cells, smokeGolden, bytes.Equal(golden, buf.Bytes()), setup)
	if cfg.tr != nil {
		replayTournament(cfg, rep, m)
		return rep, nil
	}

	k := int(uint64(cfg.seed) % uint64(len(m.Schedulers)))
	differ := 0
	for _, rg := range tournament.DefaultRegimes() {
		var runs [2]multisim.Result
		for r := range runs {
			res, _, err := replayCell(nil, 0, cfg.seed, m.Schedulers[k], rg)
			if err != nil {
				rep.failed++
				rep.problem("cell %s×%s at seed %d: %v", m.Schedulers[k], rg.Name, cfg.seed, err)
			}
			runs[r] = res
		}
		rep.attempted++
		if !sameResult(runs[0], runs[1]) {
			differ++
			rep.failed++
			rep.problem("cell %s×%s at seed %d differs between two runs: %+v, %+v", m.Schedulers[k], rg.Name, cfg.seed, runs[0], runs[1])
		}
	}
	rep.printf("ran the 6 cells of %s at tournament seed %d twice: %d differ", m.Schedulers[k], cfg.seed, differ)
	return rep, nil
}

// scenarioSetup is the tournament's set-up: every regime's scenario
// resolved and assembled with training-free placement, median of three.
func scenarioSetup(seed int64) (float64, error) {
	var times []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for _, rg := range tournament.DefaultRegimes() {
			sc := rg.Make(float64(seed), smokeDurationMS)
			setups, cl, err := sc.Instances()
			if err != nil {
				return 0, err
			}
			if _, err := multisim.BuildInstances(sc, setups, cl, false); err != nil {
				return 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// replayTournament re-runs every smoke cell one after the other, as
// tournament.Run does on one worker, with spans around scenario
// resolution (which trains the cell's scheduler), orchestrator assembly
// and the shared-clock run, and compares each with the matrix's cell.
func replayTournament(cfg config, rep *report, m *tournament.Matrix) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	root := cfg.tr.begin("tournament.replay", 0)
	var events int64
	cells, differ := 0, 0
	for _, s := range m.Schedulers {
		for _, rg := range tournament.DefaultRegimes() {
			cells++
			r, ev, err := replayCell(cfg.tr, root, smokeSeed, s, rg)
			events += ev
			want := m.Cells[s][rg.Name]
			if err != nil || want == nil || sanitize(r.StabilizedMS) != want.StabilizedMS || r.Completed != want.Completed ||
				r.Emitted != want.Emitted || r.Replayed != want.Replayed || r.Dropped != want.Dropped {
				differ++
				rep.problem("replayed cell %s×%s (%+v, %v) differs from the matrix's %+v", s, rg.Name, r, err, want)
			}
		}
	}
	cfg.tr.end(root)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	rep.attempted += int64(cells)
	rep.failed += int64(differ)
	rep.printf("replayed all %d cells: %d differ from the matrix", cells, differ)

	ly := cfg.tr.layers()
	get := func(name string) *layerTime {
		if l := ly[name]; l != nil {
			return l
		}
		return &layerTime{}
	}
	train, build, run, cell := get("sched.train"), get("multisim.build"), get("multisim.run"), get("tournament.cell")
	util := cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	rep.set("sched.train_ms", ms(train.Total))
	rep.set("multisim.build_ms", ms(build.Total))
	rep.set("multisim.run_ms", ms(run.Total))
	rep.set("multisim.events", float64(events))
	rep.set("multisim.ns_per_event", float64(run.Total.Nanoseconds())/float64(events))
	rep.set("tournament.cell_ms_max", ms(cell.MaxDur))
	rep.set("tournament.pool_residual_ms", ms(wall)-ms(cell.Total))
	rep.set("pool.cpu_util", util)
	rep.set("go.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	rep.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.ladder(fmt.Sprintf("layer ladder, traced replay of %d cells (ms of wall):", cells),
		cellRows(train, build, run, cell, ms(wall)), "= replay wall", ms(wall),
		fmt.Sprintf("%d events, %.1f ns/event, slowest cell %.1f ms, cpu util %.2f of %d CPUs",
			events, float64(run.Total.Nanoseconds())/float64(events), ms(cell.MaxDur), util, runtime.GOMAXPROCS(0)))
}

// replayCell runs one cell the way tournament.Run does, with spans when
// tr is not nil, and returns the subject topology's result and the
// events the cell processed.
func replayCell(tr *tracer, root, seed int64, schedName string, rg tournament.Regime) (multisim.Result, int64, error) {
	cell := tr.begin("tournament.cell", root)
	defer tr.end(cell)
	sc := rg.Make(float64(seed), smokeDurationMS)
	sc.Topologies[rg.Subject].Scheduler = schedName
	sc.Train = smokeTrain
	id := tr.begin("sched.train", cell)
	setups, cl, err := sc.Instances()
	tr.end(id)
	if err != nil {
		return multisim.Result{}, 0, err
	}
	id = tr.begin("multisim.build", cell)
	multi, err := multisim.BuildInstances(sc, setups, cl, false)
	tr.end(id)
	if err != nil {
		return multisim.Result{}, 0, err
	}
	id = tr.begin("multisim.run", cell)
	multi.RunUntil(sc.DurationMS)
	tr.end(id)
	return multi.Results(5)[rg.Subject], multi.EventsProcessed(), nil
}

// sameResult compares two runs of a cell, NaN latencies included.
func sameResult(a, b multisim.Result) bool {
	return a.Name == b.Name && sanitize(a.StabilizedMS) == sanitize(b.StabilizedMS) &&
		sanitize(a.P50MS) == sanitize(b.P50MS) && sanitize(a.P99MS) == sanitize(b.P99MS) &&
		a.Completed == b.Completed && a.Emitted == b.Emitted && a.Replayed == b.Replayed && a.Dropped == b.Dropped
}

// cellRows splits the wall time of cells run one after the other: each
// stage's summed span time, the cells' own self time, and the time
// between cells. With the stages nested inside their cells the rows sum
// to wallMS exactly.
func cellRows(train, build, run, cell *layerTime, wallMS float64) []ladderRow {
	return []ladderRow{
		{"sched.train (Scenario.Instances)", ms(train.Total)},
		{"multisim.build (BuildInstances)", ms(build.Total)},
		{"multisim.run (RunUntil)", ms(run.Total)},
		{"tournament.cell self (scenario values, results)", ms(cell.Self)},
		{"residual (between cells)", wallMS - ms(cell.Total)},
	}
}

// sanitize mirrors the matrix's mapping of non-finite latencies to 0.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// The train workload: the paper's actor-critic agent on the small
// continuous-queries topology, trained with the default budget and then
// deployed for one simulated minute.
const (
	trainBudget   = 500
	deployMinutes = 1
)

// training is one trained agent's outcome.
type training struct {
	seed         int64
	setup, train time.Duration
	cpu          time.Duration
	alloc        uint64
	tupleMS      float64
	actorSum     uint64
	criticSum    uint64
	online       int
	knnCalls     int
	deploy       time.Duration
	events       int64
	drl          *sched.DRL
	sys          *apps.System
}

// runTrain trains one agent per training seed derived from the workload
// seed (about one per five measured seconds, at least two) and repeats
// the first, which must reproduce its networks and latency exactly.
func runTrain(cfg config) (*report, error) {
	rep := &report{}
	n := max(2, int(cfg.seconds/(5*time.Second)))
	seeds := make([]int64, 0, n+1)
	for j := 0; j < n; j++ {
		seeds = append(seeds, (cfg.seed-1)*int64(n)+1+int64(j))
	}
	seeds = append(seeds, seeds[0])
	var runs []*training
	for _, s := range seeds {
		t, err := trainOnce(cfg, s)
		if err != nil {
			return nil, err
		}
		runs = append(runs, t)
		rep.attempted++
		rep.printf("seed %d: setup %.3f ms, Train %.3f s, policy_tuple_ms %.4f, %d deploy events, actor %016x critic %016x",
			s, ms(t.setup), t.train.Seconds(), t.tupleMS, t.events, t.actorSum, t.criticSum)
	}
	a, b := runs[0], runs[len(runs)-1]
	if a.actorSum != b.actorSum || a.criticSum != b.criticSum || a.tupleMS != b.tupleMS {
		rep.failed++
		rep.problem("repeating seed %d changed the trained agent or its latency", a.seed)
	}
	for _, t := range runs {
		if math.IsNaN(t.tupleMS) || t.tupleMS <= 0 {
			rep.failed++
			rep.problem("seed %d: deployed policy completed no tuples", t.seed)
		}
	}

	// Per training seed: mean of its runs' Train times.
	perSeed := map[int64][]float64{}
	var setups, trains, tuples []float64
	var totalTrain float64
	for _, t := range runs {
		perSeed[t.seed] = append(perSeed[t.seed], t.train.Seconds())
		setups = append(setups, t.setup.Seconds())
		totalTrain += t.train.Seconds()
	}
	for _, s := range seeds[:n] {
		trains = append(trains, mean(perSeed[s]))
	}
	for _, t := range runs[:n] {
		tuples = append(tuples, t.tupleMS)
	}
	transitions := float64(trainBudget + runs[0].online)
	rep.set("op_p50_ms", 1000*mean(trains))
	rep.set("op_rate_per_s", transitions*float64(len(runs))/totalTrain)
	rep.set("setup_s", median(setups))
	rep.set("train.policy_tuple_ms", mean(tuples))
	rep.printf("train_s %.4f s (mean over %d training seeds), policy_tuple_ms %.4f ms (mean), setup_s %.6f s (median)",
		mean(trains), n, mean(tuples), median(setups))
	if cfg.tr != nil {
		trainLayers(rep, runs[0])
	}
	rep.set("peak_rss_mb", maxRSSMB())
	return rep, nil
}

// trainOnce builds, trains and deploys one agent.
func trainOnce(cfg config, seed int64) (*training, error) {
	t := &training{seed: seed}
	root := cfg.tr.begin("train.agent", 0)
	defer cfg.tr.end(root)

	t0 := time.Now()
	sys, err := apps.ContinuousQueries(apps.Small)
	if err != nil {
		return nil, err
	}
	s, err := sched.New("ac", sched.Config{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals,
		Seed: seed, TrainBudget: trainBudget, Workers: 1})
	if err != nil {
		return nil, err
	}
	t.setup = time.Since(t0)
	cfg.tr.add("train.setup", root, t0, t0.Add(t.setup))
	drl, ok := s.(*sched.DRL)
	if !ok {
		return nil, fmt.Errorf("sched ac is %T, not *sched.DRL", s)
	}
	t.drl, t.sys = drl, sys

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t1 := time.Now()
	if err := drl.Train(trainBudget); err != nil {
		return nil, err
	}
	t.train = time.Since(t1)
	t.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	t.alloc = m1.TotalAlloc - m0.TotalAlloc
	cfg.tr.add("sched.train", root, t1, t1.Add(t.train))
	ac, ok := drl.Agent().(*core.ActorCritic)
	if !ok {
		return nil, fmt.Errorf("ac agent is %T", drl.Agent())
	}
	actor, _, critic, _ := ac.Networks()
	t.actorSum, t.criticSum = actor.Checksum(), critic.Checksum()
	t.online = len(drl.Rewards())
	t.knnCalls = ac.Epoch()

	// Deploy the frozen policy in the DES, stepping event by event (the
	// loop Sim.RunUntil runs) so the events are counted.
	t2 := time.Now()
	assign, err := drl.Schedule(&sim.Env{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals, Seed: seed})
	if err != nil {
		return nil, err
	}
	ds, err := sim.New(sim.DefaultConfig(sys.Top, sys.Cl, sys.Arrivals, seed))
	if err != nil {
		return nil, err
	}
	if err := ds.Deploy(assign); err != nil {
		return nil, err
	}
	until := float64(deployMinutes * 60_000)
	for ds.HasPendingEvents() && ds.PeekNextEventTime() <= until {
		ds.ProcessNextEvent()
		t.events++
	}
	ds.AdvanceTo(until)
	t.tupleMS = ds.AvgOverLastWindows(5)
	t.deploy = time.Since(t2)
	cfg.tr.add("sim.deploy", root, t2, t2.Add(t.deploy))
	return t, nil
}

// trainLayers attributes one Train(500) call to its layers: standalone
// per-call costs times call counts, plus the named residual.
func trainLayers(rep *report, t *training) {
	sys := t.sys
	n, m, spouts := sys.Top.NumExecutors(), sys.Cl.Size(), sys.NumSpouts()
	cfg := core.DefaultACConfig()
	rng := rand.New(rand.NewSource(t.seed))
	space := actionspace.NewSpace(n, m)
	codec := core.NewStateCodec(space, spouts)
	stepMS := trainOnBatchMS(n, m, spouts, t.seed, 200)

	// One analytic evaluation of a candidate placement.
	ev, err := analytic.New(sys.Top, sys.Cl, sys.Arrivals)
	evalUS := math.NaN()
	if err == nil {
		assigns := make([][]int, 200)
		for i := range assigns {
			assigns[i] = space.Random(rng)
		}
		t1 := time.Now()
		for _, a := range assigns {
			ev.AvgTupleTimeMS(a)
		}
		evalUS = us(time.Since(t1)) / float64(len(assigns))
	}

	// One exact K-NN search around the trained actor's proto-actions.
	actor, _, _, _ := t.drl.Agent().(*core.ActorCritic).Networks()
	protos := make([][]float64, 200)
	for i := range protos {
		protos[i] = append([]float64(nil), actor.Forward(codec.Encode(space.Random(rng), randomWork(rng, spouts), nil))...)
	}
	var knnBuf [][]int
	t2 := time.Now()
	for _, p := range protos {
		knnBuf = space.KNearestInto(p, cfg.K, knnBuf)
	}
	knnUS := us(time.Since(t2)) / float64(len(protos))

	// Call counts of one Train(budget): every offline sample and online
	// epoch is one evaluation followed by one TrainStep, which updates
	// once the replay buffer holds a mini-batch; every online epoch is one
	// K-NN search (the agent's epoch counter).
	updates := max(1, cfg.UpdatesPerStep)
	stepCalls := updates * (max(0, trainBudget-cfg.BatchSize+1) + t.online)
	evalCalls := trainBudget + t.online
	residual := ms(t.train) - stepMS*float64(stepCalls) - evalUS*float64(evalCalls)/1000 - knnUS*float64(t.knnCalls)/1000

	rep.set("core.train_step_ms", stepMS)
	rep.set("core.train_step_calls", float64(stepCalls))
	rep.set("analytic.eval_us", evalUS)
	rep.set("analytic.eval_calls", float64(evalCalls))
	rep.set("actionspace.knn_us", knnUS)
	rep.set("actionspace.knn_calls", float64(t.knnCalls))
	rep.set("train.residual_ms", residual)
	rep.set("train.cpu_util", t.cpu.Seconds()/(t.train.Seconds()*float64(runtime.GOMAXPROCS(0))))
	rep.set("go.alloc_mb", float64(t.alloc)/1e6)
	rep.set("sim.deploy_ms", ms(t.deploy))
	rep.set("sim.events", float64(t.events))
	rep.set("sim.ns_per_event", float64(t.deploy.Nanoseconds())/float64(t.events))
	rep.ladder(fmt.Sprintf("layer ladder, Train(%d) of seed %d (%dx%d, ms):", trainBudget, t.seed, n, m), []ladderRow{
		{fmt.Sprintf("core.train_step  %d × %.4f ms", stepCalls, stepMS), stepMS * float64(stepCalls)},
		{fmt.Sprintf("analytic.eval    %d × %.2f µs", evalCalls, evalUS), evalUS * float64(evalCalls) / 1000},
		{fmt.Sprintf("actionspace.knn  %d × %.2f µs", t.knnCalls, knnUS), knnUS * float64(t.knnCalls) / 1000},
		{"train.residual (actor/critic forwards, replay, env glue)", residual},
	}, "= Train wall", ms(t.train), fmt.Sprintf("cpu util %.2f; deploy %.1f ms, %d events",
		t.cpu.Seconds()/(t.train.Seconds()*float64(runtime.GOMAXPROCS(0))), ms(t.deploy), t.events))
}

// trainOnBatchMS times one ActorCritic.TrainOnBatch call standalone, on
// a random mini-batch of the default size H for an n×m topology.
func trainOnBatchMS(n, m, spouts int, seed int64, calls int) float64 {
	cfg := core.DefaultACConfig()
	ac := core.NewActorCritic(n, m, spouts, cfg, seed)
	space := actionspace.NewSpace(n, m)
	codec := core.NewStateCodec(space, spouts)
	rng := rand.New(rand.NewSource(seed))
	batch := make([]rl.Transition, cfg.BatchSize)
	for i := range batch {
		a, next := space.Random(rng), space.Random(rng)
		batch[i] = rl.Transition{State: codec.Encode(a, randomWork(rng, spouts), nil), Action: space.Encode(next, nil),
			Reward: -rng.Float64(), NextState: codec.Encode(next, randomWork(rng, spouts), nil)}
	}
	ac.TrainOnBatch(batch) // the first call sizes the agent's scratch
	t0 := time.Now()
	for k := 0; k < calls; k++ {
		ac.TrainOnBatch(batch)
	}
	return ms(time.Since(t0)) / float64(calls)
}

// randomWork is a random per-spout arrival rate vector.
func randomWork(rng *rand.Rand, spouts int) []float64 {
	w := make([]float64, spouts)
	for i := range w {
		w[i] = 100 + 900*rng.Float64()
	}
	return w
}
