// Package experiments regenerates every figure of the paper's evaluation
// (§4.2): the 20-minute average-tuple-processing-time curves for the four
// schedulers (Figures 6, 8, 10), the online-learning reward curves
// (Figures 7, 9, 11), and the +50% workload-change comparison (Figure 12),
// plus the headline aggregate improvements.
//
// Training runs against the fast analytic environment (with measurement
// jitter); the resulting scheduling solutions are then deployed on the
// discrete-event simulator — the stand-in for the paper's Storm cluster —
// to produce the reported curves.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config controls experiment fidelity. Defaults() follows the paper;
// Quick() shrinks training for smoke tests and benchmarks.
type Config struct {
	// OfflineSamples is the number of random-action transition samples
	// collected before online learning (paper: 10,000).
	OfflineSamples int
	// OnlineEpochs is the number of online decision epochs for the
	// 20-minute-curve experiments (reward-curve figures override it with
	// the paper's T per figure).
	OnlineEpochs int
	// MBSamples is the model-based baseline's training-set size.
	MBSamples int
	// CurveMinutes is the simulated span of the tuple-time figures.
	CurveMinutes float64
	// MeasureSigma is the multiplicative jitter on training measurements.
	MeasureSigma float64
	// WorkloadJitter trains the agents across rate scales in
	// [1−WorkloadJitter, 1+WorkloadJitter] so the workload part of the
	// state carries signal (the adaptivity the paper validates in Fig 12).
	WorkloadJitter float64
	// ACUpdates is the actor-critic UpdatesPerStep (extra SGD per decision
	// epoch); reduced-budget configurations compensate with more updates.
	ACUpdates int
	Seed      int64
	// Workers bounds the experiment engine's worker pool: scheduler
	// training, deployment simulations and (via RunFigures) whole figures
	// run concurrently on up to Workers goroutines. Zero means one worker
	// per CPU (GOMAXPROCS); 1 forces fully sequential execution. Every
	// task owns its RNGs and results are assembled by index, so the output
	// is byte-identical for every Workers setting (see PERFORMANCE.md).
	Workers int
	// Progress, if non-nil, receives human-readable progress lines.
	Progress io.Writer

	// sem is the weighted semaphore shared across the suite and per-figure
	// fan-out levels; RunFiguresStream installs it so workers idled by a
	// draining suite are reclaimed by the remaining figures' inner stages
	// (see internal/parallel.Sem). Nil outside suite runs, in which case
	// every fan-out falls back to its own Workers-bounded pool.
	sem *parallel.Sem
}

// Defaults returns paper-faithful settings (a full run takes tens of
// minutes).
func Defaults() Config {
	return Config{
		OfflineSamples: 10_000,
		OnlineEpochs:   2_000,
		MBSamples:      300,
		CurveMinutes:   20,
		MeasureSigma:   0.02,
		WorkloadJitter: 0.5,
		Seed:           1,
	}
}

// Reduced returns settings that preserve every qualitative result at
// roughly 10× less compute (the default for cmd/reprobench).
func Reduced() Config {
	c := Defaults()
	c.OfflineSamples = 2_500
	c.OnlineEpochs = 800
	c.ACUpdates = 2
	return c
}

// Lite returns the smallest settings that still separate the schedulers,
// sized for single-core machines.
func Lite() Config {
	c := Defaults()
	c.OfflineSamples = 600
	c.OnlineEpochs = 300
	c.ACUpdates = 2
	c.MBSamples = 200
	c.CurveMinutes = 12
	return c
}

// Quick returns smoke-test settings for tests and benchmarks.
func Quick() Config {
	return Config{
		OfflineSamples: 300,
		OnlineEpochs:   150,
		MBSamples:      80,
		CurveMinutes:   3,
		MeasureSigma:   0.02,
		WorkloadJitter: 0.5,
		Seed:           1,
	}
}

// progressMu serializes progress lines: figure pipelines run concurrently
// and usually share one Progress writer (stderr).
var progressMu sync.Mutex

func (c Config) logf(format string, args ...interface{}) {
	if c.Progress != nil {
		progressMu.Lock()
		defer progressMu.Unlock()
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64 // minutes (tuple-time figures) or epochs (reward figures)
	Y    []float64
}

// Result holds everything a figure reports.
type Result struct {
	ID     string
	Title  string
	Series []Series
	// Stabilized maps scheduler name to the stabilized average tuple
	// processing time (mean of the last 5 windows), for tuple-time
	// figures.
	Stabilized map[string]float64
}

// schedConfig maps an experiment configuration onto a registry
// configuration for one system: same seed, same budgets, same training
// noise, and the shared worker pool — the scheduler adapters in
// internal/sched use the same per-scheduler seed offsets this package's
// hand-rolled pipelines always did.
func (c Config) schedConfig(sys *apps.System) sched.Config {
	return sched.Config{
		Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals,
		Seed:           c.Seed,
		TrainBudget:    c.OfflineSamples,
		OnlineEpochs:   c.OnlineEpochs,
		MeasureSigma:   c.MeasureSigma,
		WorkloadJitter: c.WorkloadJitter,
		ACUpdates:      c.ACUpdates,
		Sem:            c.sem,
		Workers:        c.Workers,
	}
}

// trainBudget is the offline budget for one registry scheduler under this
// configuration (the model-based baseline has its own training-set size).
func (c Config) trainBudget(name string) int {
	if name == "model" {
		return c.MBSamples
	}
	return c.OfflineSamples
}

// figureSchedulers is the comparison set of the paper's figures, as
// registry names in legend order (matching schedulerOrder): the paper's
// four schedulers plus the statistics-free greedy baseline. The full
// registry also carries "traffic" and "random"; the tournament harness
// sweeps those.
var figureSchedulers = []string{"default", "greedy", "model", "dqn", "ac"}

// solutionSet computes the final scheduling solution of every method for a
// system. Reward histories for the two DRL methods are returned for the
// reward-curve figures. epochs overrides the online epoch count.
type solutionSet struct {
	assignments map[string][]int
	acRewards   []float64
	dqnRewards  []float64
}

func solutions(ctx context.Context, sys *apps.System, cfg Config, epochs int) (*solutionSet, error) {
	scfg := cfg.schedConfig(sys)
	if epochs > 0 {
		scfg.OnlineEpochs = epochs
	}

	// Every scheduler comes from the registry and runs as one pool task:
	// each task builds its own environments and agents from its own fixed
	// seeds, so results are identical for any Workers setting. Intra-task
	// parallelism (offline rollout chunks, training GEMM row bands) shares
	// the same pool and is bitwise pool-invariant.
	type out struct {
		name    string // display name
		assign  []int
		rewards []float64
	}
	outs, err := parallel.MapSem(ctx, cfg.sem, len(figureSchedulers), cfg.Workers,
		func(_ context.Context, i int) (out, error) {
			name := figureSchedulers[i]
			s, err := sched.New(name, scfg)
			if err != nil {
				return out{}, err
			}
			if tr, ok := s.(sched.Trainable); ok {
				cfg.logf("  training %q (budget %d, %d online)", name, cfg.trainBudget(name), scfg.OnlineEpochs)
				if err := tr.Train(cfg.trainBudget(name)); err != nil {
					return out{}, err
				}
			}
			assign, err := s.Schedule(&sim.Env{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals, Seed: cfg.Seed})
			if err != nil {
				return out{}, err
			}
			o := out{name: s.Name(), assign: assign}
			if rw, ok := s.(interface{ Rewards() []float64 }); ok {
				o.rewards = rw.Rewards()
			}
			return o, nil
		})
	if err != nil {
		return nil, err
	}

	res := &solutionSet{assignments: map[string][]int{}}
	for _, o := range outs {
		res.assignments[o.name] = o.assign
		switch o.name {
		case "DQN-based DRL":
			res.dqnRewards = o.rewards
		case "Actor-critic-based DRL":
			res.acRewards = o.rewards
		}
	}
	return res, nil
}

// acConfig returns the actor-critic hyperparameters for this experiment
// configuration.
func (c Config) acConfig() core.ACConfig {
	ac := core.DefaultACConfig()
	if c.ACUpdates > 0 {
		ac.UpdatesPerStep = c.ACUpdates
	}
	return ac
}

// withSem installs the weighted semaphore every fan-out level of a run
// shares (suite, per-figure stages, rollout chunks, GEMM row bands), so
// total in-flight work stays bounded by one pool size instead of
// multiplying across nesting levels. Idempotent; a no-op for
// single-worker configurations.
func (c Config) withSem() Config {
	if c.sem == nil && parallel.PoolSize(c.Workers) > 1 {
		c.sem = parallel.NewSem(parallel.PoolSize(c.Workers) - 1)
	}
	return c
}

// curve runs one 20-minute deployment of an assignment on a cold DES and
// returns per-window samples (the paper's measurement procedure, §3.1/§4.2).
func curve(sys *apps.System, assign []int, minutes float64, seed int64) (Series, float64, error) {
	cfg := sim.DefaultConfig(sys.Top, sys.Cl, sys.Arrivals, seed)
	if minutes < 20 {
		// Shortened smoke-test curves: scale the warm-up transient so the
		// decay completes within the window, preserving the figure shape.
		cfg.WarmupTauMS *= minutes / 20
	}
	s, err := sim.New(cfg)
	if err != nil {
		return Series{}, 0, err
	}
	if err := s.Deploy(assign); err != nil {
		return Series{}, 0, err
	}
	s.RunUntil(minutes * 60_000)
	wins := s.Windows()
	var ser Series
	for _, w := range wins {
		ser.X = append(ser.X, w.TimeMS/60_000)
		ser.Y = append(ser.Y, w.AvgMS)
	}
	return ser, s.AvgOverLastWindows(5), nil
}
