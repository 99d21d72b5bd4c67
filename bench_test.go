// Benchmarks regenerating every figure of the paper's evaluation, plus two
// ablations (K-NN width, DES-only training). Figure benches run the full
// pipeline (model-based fit, DQN training, actor-critic training, DES
// deployment curves) at the Quick fidelity; use cmd/reprobench for
// paper-fidelity numbers.
//
// Quality metrics are attached to the benchmark output via ReportMetric:
// stabilized average tuple processing time per scheduler (ms), so `go test
// -bench` output doubles as a compact reproduction table.
package repro_test

import (
	"testing"

	"repro"
)

func quick() repro.ExperimentConfig { return repro.QuickFidelity() }

func reportStabilized(b *testing.B, res *repro.FigureResult) {
	b.Helper()
	metrics := map[string]string{
		"Default":                "default_ms",
		"Model-based":            "modelbased_ms",
		"DQN-based DRL":          "dqn_ms",
		"Actor-critic-based DRL": "actorcritic_ms",
	}
	for name, metric := range metrics {
		if v, ok := res.Stabilized[name]; ok {
			b.ReportMetric(v, metric)
		}
	}
}

func benchFigure(b *testing.B, run func() (*repro.FigureResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportStabilized(b, res)
		}
	}
}

// BenchmarkFig6a regenerates Figure 6(a): continuous queries, small scale.
func BenchmarkFig6a(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure6(repro.Small, quick()) })
}

// BenchmarkFig6b regenerates Figure 6(b): continuous queries, medium scale.
func BenchmarkFig6b(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure6(repro.Medium, quick()) })
}

// BenchmarkFig6c regenerates Figure 6(c): continuous queries, large scale.
func BenchmarkFig6c(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure6(repro.Large, quick()) })
}

// BenchmarkFig7 regenerates Figure 7: online-learning reward curves on
// continuous queries (large), actor-critic vs DQN.
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure7(quick()) })
}

// BenchmarkFig8 regenerates Figure 8: log stream processing tuple times.
func BenchmarkFig8(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure8(quick()) })
}

// BenchmarkFig9 regenerates Figure 9: log stream reward curves.
func BenchmarkFig9(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure9(quick()) })
}

// BenchmarkFig10 regenerates Figure 10: word count tuple times.
func BenchmarkFig10(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure10(quick()) })
}

// BenchmarkFig11 regenerates Figure 11: word count reward curves.
func BenchmarkFig11(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure11(quick()) })
}

// BenchmarkFig12a regenerates Figure 12(a): +50% workload step, continuous
// queries.
func BenchmarkFig12a(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure12("cq", quick()) })
}

// BenchmarkFig12b regenerates Figure 12(b): +50% workload step, log stream.
func BenchmarkFig12b(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure12("log", quick()) })
}

// BenchmarkFig12c regenerates Figure 12(c): +50% workload step, word count.
func BenchmarkFig12c(b *testing.B) {
	benchFigure(b, func() (*repro.FigureResult, error) { return repro.Figure12("wc", quick()) })
}

// BenchmarkHeadline computes the aggregate improvement claim (paper: 33.5%
// over default, 14.0% over model-based on average) from quick-fidelity
// tuple-time figures.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var results []*repro.FigureResult
		for _, run := range []func() (*repro.FigureResult, error){
			func() (*repro.FigureResult, error) { return repro.Figure6(repro.Small, quick()) },
			func() (*repro.FigureResult, error) { return repro.Figure10(quick()) },
		} {
			res, err := run()
			if err != nil {
				b.Fatal(err)
			}
			results = append(results, res)
		}
		overDef, overMB, _ := repro.SummarizeFigures(results)
		if i == b.N-1 {
			b.ReportMetric(overDef, "improvement_vs_default_%")
			b.ReportMetric(overMB, "improvement_vs_modelbased_%")
		}
	}
}

// BenchmarkKNNAblation is the K-NN ablation: train the
// actor-critic agent with K ∈ {1, 4, 8, 16} critic candidates on the small
// continuous-queries system and report the trained solution's simulated
// latency. K = 1 is pure proto-action rounding; the paper's claim is that
// critic re-ranking over K > 1 candidates improves the chosen action.
func BenchmarkKNNAblation(b *testing.B) {
	for _, k := range []int{1, 4, 8, 16} {
		b.Run(map[int]string{1: "K1", 4: "K4", 8: "K8", 16: "K16"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := repro.ContinuousQueries(repro.Small)
				if err != nil {
					b.Fatal(err)
				}
				cfg := repro.DefaultACConfig()
				cfg.K = k
				agent := repro.NewActorCriticAgentWith(sys, cfg, 1)
				trainEnv, err := repro.NewAnalyticEnv(sys)
				if err != nil {
					b.Fatal(err)
				}
				ctrl := repro.NewController(trainEnv, agent)
				if err := ctrl.CollectOffline(300); err != nil {
					b.Fatal(err)
				}
				ctrl.OnlineLearn(150, nil)
				if i == b.N-1 {
					simEnv := repro.NewSimEnv(sys, 7)
					b.ReportMetric(simEnv.AvgTupleTimeMS(ctrl.GreedySolution()), "trained_ms")
				}
			}
		})
	}
}

// BenchmarkTrainOnDES is the transfer ablation: train the
// actor-critic agent directly against the discrete-event simulator (no
// analytic shortcut) at small scale and report the trained solution's
// quality — validating that the analytic training environment is a faithful
// stand-in.
func BenchmarkTrainOnDES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := repro.ContinuousQueries(repro.Small)
		if err != nil {
			b.Fatal(err)
		}
		agent := repro.NewActorCriticAgent(sys, 1)
		desEnv := repro.NewSimEnv(sys, 1)
		ctrl := repro.NewController(desEnv, agent)
		// Tiny budgets: every reward measurement is a full simulation.
		if err := ctrl.CollectOffline(40); err != nil {
			b.Fatal(err)
		}
		ctrl.OnlineLearn(20, nil)
		if i == b.N-1 {
			eval := repro.NewSimEnv(sys, 7)
			b.ReportMetric(eval.AvgTupleTimeMS(ctrl.GreedySolution()), "trained_ms")
		}
	}
}
