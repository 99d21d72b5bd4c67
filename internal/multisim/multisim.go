// Package multisim is the cluster-scale scenario engine: a shared-clock
// orchestrator advancing N single-topology discrete-event simulations
// (sim.Sim) in global timestamp order over ONE cluster, so co-scheduled
// topologies genuinely contend for machine cores, worker slots and
// network. It follows the InstanceSimulator/ClusterSimulator pattern:
// composition over inheritance — each topology keeps its own sim.Sim with
// its own RNG, event queue and metrics, decomposed into step primitives
// (HasPendingEvents / PeekNextEventTime / ProcessNextEvent), while the
// orchestrator owns the policy of which instance advances next and the
// only deliberately shared state, a sim.ClusterState.
//
// Everything runs on one goroutine. Determinism is the design invariant:
// the global event order is a pure function of the scenario and its seed —
// two runs of the same scenario produce byte-identical results regardless
// of topology count, GOMAXPROCS or host load.
package multisim

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// InstanceConfig describes one topology joining the shared cluster.
type InstanceConfig struct {
	// Name identifies the instance in results and slot accounting; must be
	// unique within a Multi.
	Name     string
	Top      *topology.Topology
	Arrivals map[string]workload.ArrivalProcess
	// Assign maps the topology's executors to machines of the shared
	// cluster. Slot capacity is validated cumulatively: each application
	// consumes one worker-process slot on every machine hosting at least
	// one of its executors.
	Assign []int
	Seed   int64
	// AckTimeoutMS enables tuple-replay fault tolerance (0 = off). Faulty
	// scenarios want it on, or orphaned tuples are dropped, not replayed.
	AckTimeoutMS float64
}

// Instance is one co-scheduled topology.
type Instance struct {
	Name string
	Sim  *sim.Sim
}

// Multi advances N topologies in global timestamp order over one cluster.
// Not safe for concurrent use; all stepping happens on the caller's
// goroutine.
type Multi struct {
	cl        *cluster.Cluster
	shared    *sim.ClusterState
	isolated  bool
	insts     []*Instance
	placement cluster.MultiAssignment

	heap   instHeap
	heapOK bool
	now    float64
	events int64
}

// New returns an empty orchestrator over cl. With isolated=true each
// instance gets private machine state — as if it ran alone on its own
// copy of the cluster — which is the baseline the cross-topology
// interference measurement compares against (and the mode the bitwise
// standalone-equivalence property is proven in). Slot capacity is
// validated in both modes.
func New(cl *cluster.Cluster, isolated bool) (*Multi, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	return &Multi{cl: cl, shared: sim.NewClusterState(cl), isolated: isolated}, nil
}

// Add builds, validates and deploys one topology instance. All Add calls
// must precede ScheduleClusterFailure and stepping.
func (m *Multi) Add(ic InstanceConfig) error {
	if ic.Name == "" {
		return fmt.Errorf("multisim: instance needs a name")
	}
	// Cumulative slot check: the new app must fit next to everything
	// already placed before any state is touched.
	trial := cluster.MultiAssignment{Apps: append([]cluster.AppPlacement(nil), m.placement.Apps...)}
	trial.Add(ic.Name, ic.Assign)
	if err := trial.Validate(m.cl); err != nil {
		return err
	}
	cfg := sim.DefaultConfig(ic.Top, m.cl, ic.Arrivals, ic.Seed)
	if !m.isolated {
		cfg.Shared = m.shared
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if ic.AckTimeoutMS > 0 {
		s.EnableAckTimeout(ic.AckTimeoutMS)
	}
	if err := s.Deploy(ic.Assign); err != nil {
		return err
	}
	m.placement = trial
	m.insts = append(m.insts, &Instance{Name: ic.Name, Sim: s})
	m.heapOK = false
	return nil
}

// ScheduleClusterFailure declares a correlated failure: at simulated time
// atMS, machines[k] goes down for downMS[k]. The failure is scheduled in
// every resident instance — each orphans its own queued tuples on the
// failed machines — while the (idempotent) shared failure window also
// discards results of services in flight across topology boundaries.
// Call after all Add calls; later instances would miss the fault.
func (m *Multi) ScheduleClusterFailure(atMS float64, machines []int, downMS []float64) error {
	if len(machines) != len(downMS) {
		return fmt.Errorf("multisim: %d machines but %d outage durations", len(machines), len(downMS))
	}
	if len(m.insts) == 0 {
		return fmt.Errorf("multisim: no instances to fail (schedule faults after Add)")
	}
	for _, inst := range m.insts {
		for k, mach := range machines {
			if err := inst.Sim.ScheduleFailure(mach, atMS, downMS[k]); err != nil {
				return err
			}
		}
	}
	m.heapOK = false
	return nil
}

// ensureHeap (re)builds the instance heap from each instance's next
// pending event. Cheap — O(N) over instances, not events — and only done
// after Add/fault-scheduling invalidated the cached keys.
func (m *Multi) ensureHeap() {
	if m.heapOK {
		return
	}
	m.heap.reset()
	for i, inst := range m.insts {
		if inst.Sim.HasPendingEvents() {
			m.heap.push(instEntry{t: inst.Sim.PeekNextEventTime(), inst: i})
		}
	}
	m.heapOK = true
}

// Step processes the globally earliest pending event across all
// instances. Returns false when no events remain anywhere.
func (m *Multi) Step() bool {
	m.ensureHeap()
	if m.heap.len() == 0 {
		return false
	}
	e := m.heap.top()
	m.advance(e)
	return true
}

// advance processes root entry e's next event and restores the heap.
func (m *Multi) advance(e instEntry) {
	s := m.insts[e.inst].Sim
	s.ProcessNextEvent()
	m.events++
	m.now = e.t
	if s.HasPendingEvents() {
		// Events only move forward in time, so the refreshed key can only
		// sink — a root fix, no re-push.
		m.heap.fix(instEntry{t: s.PeekNextEventTime(), inst: e.inst})
	} else {
		m.heap.pop()
	}
}

// RunUntil advances the whole cluster to global time tMS, then finalizes
// every instance's clock so their window metrics cover the horizon.
func (m *Multi) RunUntil(tMS float64) {
	m.ensureHeap()
	for m.heap.len() > 0 {
		e := m.heap.top()
		if e.t > tMS {
			break
		}
		m.advance(e)
	}
	if m.now < tMS {
		m.now = tMS
	}
	for _, inst := range m.insts {
		inst.Sim.AdvanceTo(tMS)
	}
}

// EventsProcessed returns the total number of events processed across all
// instances — a deterministic run signature (and the benchmark numerator).
func (m *Multi) EventsProcessed() int64 { return m.events }

// Instances returns the resident instances in Add order.
func (m *Multi) Instances() []*Instance { return m.insts }

// Result summarizes one topology after a run.
type Result struct {
	Name string
	// StabilizedMS is the tuple-weighted mean latency over the trailing
	// measurement windows (the paper's stabilized reading).
	StabilizedMS float64
	P50MS        float64
	P99MS        float64
	Completed    int64
	Emitted      int64
	Replayed     int64
	Dropped      int64
}

// Results reports per-topology outcomes in Add order, averaging each
// instance's trailing lastWindows metric windows (≤0 means 5, §3.1).
func (m *Multi) Results(lastWindows int) []Result {
	if lastWindows <= 0 {
		lastWindows = 5
	}
	out := make([]Result, 0, len(m.insts))
	for _, inst := range m.insts {
		s := inst.Sim
		out = append(out, Result{
			Name:         inst.Name,
			StabilizedMS: s.AvgOverLastWindows(lastWindows),
			P50MS:        s.LatencyPercentile(50),
			P99MS:        s.LatencyPercentile(99),
			Completed:    s.Completed(),
			Emitted:      s.Emitted(),
			Replayed:     s.Replayed(),
			Dropped:      s.Dropped(),
		})
	}
	return out
}
