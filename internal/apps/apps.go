// Package apps defines the three benchmark applications of §4.1 with the
// paper's exact executor counts, plus the cluster and workload settings
// used throughout the evaluation.
//
// Per-tuple service demands, selectivities and tuple sizes are calibration
// constants: they were chosen so the simulated stabilized latencies land in
// the ranges the paper reports (CQ ≈ 1.3–2.6 ms, log ≈ 7–10 ms, WC ≈
// 1.7–3.1 ms under the default scheduler). The paper's inputs that drove
// these costs on real hardware — the in-memory vehicle table, IIS logs and
// LogStash/Redis plumbing — are replaced by the synthetic generators in
// internal/workload.
package apps

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Scale selects the continuous-queries experiment size (§4.1).
type Scale int

// Experiment scales.
const (
	Small  Scale = iota // 20 executors: 2 spout, 9 query, 9 file
	Medium              // 50 executors: 5 spout, 25 query, 20 file
	Large               // 100 executors: 10 spout, 45 query, 45 file
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// System bundles everything an experiment needs: the application graph,
// the cluster it runs on, and the arrival processes feeding its spouts.
type System struct {
	Name     string
	Top      *topology.Topology
	Cl       *cluster.Cluster
	Arrivals map[string]workload.ArrivalProcess
	// BaseRate is the aggregate spout arrival rate in tuples/second, kept
	// for workload-change scenarios (Figure 12 scales it by 1.5).
	BaseRate float64
}

// NewCluster returns the paper's testbed: 10 worker machines, each with 10
// slots and a quad-core CPU on a 1 Gbps network (§4.1).
func NewCluster() *cluster.Cluster { return cluster.NewUniform(10) }

// ContinuousQueries builds the continuous-queries topology (Figure 3):
// spout → Query bolt → File bolt. Queries scan an in-memory table; matching
// records stream to a file writer. Selectivity 0.3 reflects that most
// queries match a minority of rows.
func ContinuousQueries(scale Scale) (*System, error) {
	var spouts, query, file int
	var rate float64
	switch scale {
	case Small:
		spouts, query, file, rate = 2, 9, 9, 3400
	case Medium:
		spouts, query, file, rate = 5, 25, 20, 3300
	case Large:
		spouts, query, file, rate = 10, 45, 45, 3200
	default:
		return nil, fmt.Errorf("apps: unknown scale %v", scale)
	}
	top, err := topology.NewBuilder(fmt.Sprintf("continuous-queries-%s", scale)).
		AddSpout("spout", spouts, 0.04, 1, 150).
		AddBolt("query", query, 0.55, 0.3, 250).
		AddBolt("file", file, 0.30, 0, 0).
		Connect("spout", "query", topology.Shuffle).
		Connect("query", "file", topology.Shuffle).
		Build()
	if err != nil {
		return nil, err
	}
	return &System{
		Name:     top.Name,
		Top:      top,
		Cl:       NewCluster(),
		Arrivals: map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: rate}},
		BaseRate: rate,
	}, nil
}

// LogStream builds the log stream processing topology (Figure 4): spout →
// LogRules → {Indexer → DB, Counter → DB}. 100 executors: 10 spout, 20
// LogRules, 20 Indexer, 20 Counter, 15 per Database bolt. The two parallel
// branches and heavier per-tuple work give it the longest processing times
// of the three applications (Figure 8's 7–12 ms range).
func LogStream() (*System, error) {
	const rate = 250
	top, err := topology.NewBuilder("log-stream").
		AddSpout("spout", 10, 0.05, 1, 500).
		AddBolt("logrules", 20, 1.8, 1, 450).
		AddBolt("indexer", 20, 2.5, 1, 350).
		AddBolt("counter", 20, 1.5, 1, 120).
		AddBolt("db-index", 15, 2.2, 0, 0).
		AddBolt("db-count", 15, 1.8, 0, 0).
		Connect("spout", "logrules", topology.Shuffle).
		Connect("logrules", "indexer", topology.Shuffle).
		Connect("logrules", "counter", topology.Shuffle).
		Connect("indexer", "db-index", topology.Shuffle).
		Connect("counter", "db-count", topology.Shuffle).
		Build()
	if err != nil {
		return nil, err
	}
	return &System{
		Name:     top.Name,
		Top:      top,
		Cl:       NewCluster(),
		Arrivals: map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: rate}},
		BaseRate: rate,
	}, nil
}

// WordCount builds the streaming word-count topology (Figure 5): spout →
// SplitSentence → WordCount (fields grouping) → Database. 100 executors:
// 10 spout, 30 split, 30 count, 30 db. SplitSentence's selectivity models
// words per line (batched ×3 per emitted tuple to bound simulation cost —
// a pure event-count rescaling that leaves per-stage latency unchanged).
func WordCount() (*System, error) {
	const rate = 1600
	top, err := topology.NewBuilder("word-count").
		AddSpout("spout", 10, 0.04, 1, 300).
		AddBolt("split", 30, 0.20, 2.0, 120).
		AddBolt("count", 30, 0.20, 1, 80).
		AddBolt("db", 30, 0.25, 0, 0).
		Connect("spout", "split", topology.Shuffle).
		Connect("split", "count", topology.Fields).
		Connect("count", "db", topology.Shuffle).
		Build()
	if err != nil {
		return nil, err
	}
	return &System{
		Name:     top.Name,
		Top:      top,
		Cl:       NewCluster(),
		Arrivals: map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: rate}},
		BaseRate: rate,
	}, nil
}

// WithStepWorkload returns a copy of the system whose spout rates jump by
// factor at atMS — the Figure 12 scenario (+50% at 20 minutes uses factor
// 1.5, atMS 20·60·1000).
func (s *System) WithStepWorkload(factor, atMS float64) *System {
	out := *s
	out.Arrivals = map[string]workload.ArrivalProcess{}
	for name := range s.Arrivals {
		out.Arrivals[name] = workload.StepRate{Base: s.BaseRate, Factor: factor, AtMS: atMS}
	}
	return &out
}

// NumSpouts returns the number of data-source components.
func (s *System) NumSpouts() int { return len(s.Top.Spouts()) }
