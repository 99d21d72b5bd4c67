// Package sim is a discrete-event simulator of a Storm-like DSDPS: the
// substrate that stands in for the paper's physical 11-node Storm cluster
// (see the README introduction).
//
// The simulator executes a topology on a cluster under a thread→machine
// assignment and reports the average end-to-end tuple processing time — the
// duration between a tuple's emission by a data source and its ack after
// the whole tuple tree is processed (§2.1). It models the mechanisms that
// make scheduling matter in a real cluster:
//
//   - CPU contention: executors co-located on a machine share its cores; a
//     service slows down when more executors than cores are busy.
//   - Communication tiers: intra-process hand-off is ~μs, inter-machine
//     transfer pays network latency, wire time and congestion.
//   - Queueing: each executor is a FIFO single server; bursty Poisson
//     arrivals build queues at hot executors.
//   - Deployment transients: freshly (re)started executors run slower
//     while caches/JIT warm up, decaying over minutes (the 8–10 minute
//     stabilization visible in Figures 6, 8, 10); moved executors pause
//     briefly during redeployment, producing the spikes of Figure 12.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config parameterizes a simulation.
type Config struct {
	Topology *topology.Topology
	Cluster  *cluster.Cluster
	// Arrivals gives the aggregate arrival process per spout component
	// name. A spout's rate is divided evenly among its executors.
	Arrivals map[string]workload.ArrivalProcess
	Seed     int64

	// WarmupAmplitude is the extra service-time factor right after an
	// executor (re)starts: service × (1 + A·exp(−age/τ)). Zero disables.
	WarmupAmplitude float64
	// WarmupTauMS is the warm-up decay time constant τ.
	WarmupTauMS float64
	// MoveOutageMS pauses a moved executor after redeployment while its
	// state transfers, building a backlog (Figure 12 spikes).
	MoveOutageMS float64
	// CongestionFactor scales how much concurrent outbound transfers on a
	// machine inflate network delay.
	CongestionFactor float64
	// CrowdFactor models per-resident-executor overhead (context switching,
	// GC, heartbeats): service time is multiplied by
	// 1 + CrowdFactor·(residentExecutors−1). This is the force that keeps
	// "pack everything on one machine" from being degenerate-optimal.
	CrowdFactor float64
	// WindowMS is the metric sampling window (paper: 10-second intervals).
	WindowMS float64
	// NoContention disables the busy/cores CPU slowdown (diagnostic knob
	// for calibration tooling and ablation benches).
	NoContention bool

	// Shared, when non-nil, makes this simulation read and write machine
	// state (busy levels, congestion counters, resident counts, failure
	// windows) through a ClusterState shared with other co-scheduled
	// simulations of the SAME cluster. Co-resident topologies then contend
	// for cores and network for real. Sharing is only coherent when all
	// participating simulations advance in global timestamp order — use
	// multisim.Multi rather than stepping shared sims independently.
	Shared *ClusterState
}

// DefaultConfig fills in the calibration constants used across the
// reproduction (fit with cmd/calibrate).
func DefaultConfig(top *topology.Topology, cl *cluster.Cluster, arrivals map[string]workload.ArrivalProcess, seed int64) Config {
	return Config{
		Topology:         top,
		Cluster:          cl,
		Arrivals:         arrivals,
		Seed:             seed,
		WarmupAmplitude:  0.4,
		WarmupTauMS:      150_000,
		MoveOutageMS:     4_000,
		CongestionFactor: 0.25,
		CrowdFactor:      0.002,
		WindowMS:         10_000,
	}
}

// event kinds
const (
	evSpoutEmit = iota // a spout executor generates its next root tuple
	evArrive           // a tuple arrives at an executor's queue
	evFinish           // an executor finishes servicing a tuple
	evResume           // a paused (moved) executor resumes
	evAckCheck         // ack-timeout check for a root tuple
	evFail             // a scheduled machine failure fires (see faults.go)
)

type tupleRef struct {
	root    int64   // root tuple id (ack tree)
	key     uint64  // fields-grouping key, inherited from the root
	emitMS  float64 // root emission time
	comp    int32   // component index the tuple is destined for / processed by
	crossed bool    // arrived over the network (pays deserialization CPU)
}

// event indices are int32 and the kind a byte so that an event is 64
// bytes: the compiler copies that inline, where the 80 bytes of int-wide
// fields went through runtime.duffcopy on every push and pop.
type event struct {
	t    float64
	seq  int64 // tiebreaker for determinism
	tup  tupleRef
	exec int32
	// fromMachine is the transfer source for evArrive events that crossed
	// the network (−1 otherwise); used to release the congestion counter.
	fromMachine int32
	kind        uint8
}

type execState struct {
	machine     int
	queue       ring[tupleRef] // tuples waiting for service, oldest first
	busy        bool
	serviceOn   int // machine the in-flight service started on (for busyCount)
	pausedUntil float64
	warmStart   float64 // when this executor last (re)started
}

// route is one precomputed downstream edge of a component: everything
// emitChildren needs per tuple, resolved from the topology maps once at
// construction instead of per emission.
type route struct {
	dst      int32 // destination component index
	grouping topology.Grouping
	par      int    // destination parallelism
	base     int    // first executor index of the destination
	hashMix  uint64 // fields-grouping salt: dst · golden ratio
}

type machineState struct {
	busyCount   int // executors currently in service
	outInFlight int // tuples currently in outbound network transfer
	resident    int // executors assigned to this machine

	// busyAvg is an exponentially-weighted time average of busyCount,
	// the signal CPU contention is computed from. Using the average
	// rather than the instantaneous count models processor sharing
	// without the burst-feedback over-punishment an instantaneous
	// multiplier causes.
	busyAvg    float64
	lastChange float64
}

// busyTauMS is the time constant of the busy-level EWMA.
const busyTauMS = 100.0

type ackState struct {
	pending int
	emitMS  float64
	// failed marks trees that lost tuples to a machine failure and can
	// no longer complete.
	failed bool
}

// WindowSample is one metrics window: the mean end-to-end latency of tuples
// completed within [TimeMS−window, TimeMS).
type WindowSample struct {
	TimeMS float64
	AvgMS  float64
	Count  int
}

// Sim is a running simulation. It is not safe for concurrent use.
type Sim struct {
	cfg   Config
	rng   *rand.Rand
	top   *topology.Topology
	cl    *cluster.Cluster
	comps []*topology.Component
	cidx  map[string]int // component name -> index
	outs  [][]topology.Edge
	base  []int // component index -> first executor index
	// routes[c] holds the precomputed downstream edges of component c, the
	// hot-path replacement for the cidx/outs map lookups.
	routes [][]route

	execs    []execState
	machines []machineState
	events   eventQueue
	seq      int64
	now      float64

	acks ackTable
	// ackFree is a free list of ackState records: root tuples are created
	// and retired constantly, and recycling the records keeps the steady
	// state of the hot loop allocation-free.
	ackFree   []*ackState
	nextRoot  int64
	completed int64

	// Latency reservoir sample for percentile reporting.
	reservoir []float64
	resSeen   int64

	// Fault tolerance (see faults.go).
	ackTimeoutMS float64
	replays      int64
	dropped      int64
	failedUntil  []float64

	// Per-window accumulation.
	winSum   []float64
	winCount []int
}

// New validates the configuration and builds a simulator. Executors start
// unassigned; call Deploy before Run.
func New(cfg Config) (*Sim, error) {
	if cfg.Topology == nil || cfg.Cluster == nil {
		return nil, fmt.Errorf("sim: topology and cluster are required")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowMS <= 0 {
		cfg.WindowMS = 10_000
	}
	for _, sp := range cfg.Topology.Spouts() {
		if _, ok := cfg.Arrivals[sp.Name]; !ok {
			return nil, fmt.Errorf("sim: no arrival process for spout %q", sp.Name)
		}
	}
	s := &Sim{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		top:  cfg.Topology,
		cl:   cfg.Cluster,
		cidx: map[string]int{},
	}
	for i, c := range s.top.Components {
		s.comps = append(s.comps, c)
		s.cidx[c.Name] = i
		s.outs = append(s.outs, s.top.Out(c.Name))
		lo, _ := s.top.ExecutorRange(c.Name)
		s.base = append(s.base, lo)
	}
	// Resolve every downstream edge once: emitChildren runs per processed
	// tuple and must not chase name→index maps there.
	s.routes = make([][]route, len(s.comps))
	for i := range s.comps {
		for _, edge := range s.outs[i] {
			dst := s.cidx[edge.To]
			s.routes[i] = append(s.routes[i], route{
				dst:      int32(dst),
				grouping: edge.Grouping,
				par:      s.comps[dst].Parallelism,
				base:     s.base[dst],
				hashMix:  uint64(dst) * 0x9e3779b97f4a7c15,
			})
		}
	}
	s.execs = make([]execState, s.top.NumExecutors())
	if cfg.Shared != nil {
		if len(cfg.Shared.machines) != s.cl.Size() {
			return nil, fmt.Errorf("sim: shared cluster state has %d machines, cluster has %d",
				len(cfg.Shared.machines), s.cl.Size())
		}
		s.machines = cfg.Shared.machines
		s.failedUntil = cfg.Shared.failedUntil
	} else {
		s.machines = make([]machineState, s.cl.Size())
		s.failedUntil = make([]float64, s.cl.Size())
	}
	for i := range s.execs {
		s.execs[i].machine = -1
	}
	return s, nil
}

// Now returns the current simulation time in milliseconds.
func (s *Sim) Now() float64 { return s.now }

// Completed returns the number of fully acked root tuples so far.
func (s *Sim) Completed() int64 { return s.completed }

// Deploy installs an assignment. On first call every executor starts cold
// and spout emission begins; on later calls only executors whose machine
// changed are restarted (minimal-impact redeployment, §3.1): they pause for
// MoveOutageMS and restart their warm-up clock, while unmoved executors are
// untouched.
func (s *Sim) Deploy(assign []int) error {
	if len(assign) != len(s.execs) {
		return fmt.Errorf("sim: assignment covers %d executors, want %d", len(assign), len(s.execs))
	}
	for i, m := range assign {
		if m < 0 || m >= s.cl.Size() {
			return fmt.Errorf("sim: executor %d assigned to invalid machine %d", i, m)
		}
	}
	first := s.execs[0].machine == -1
	for i, m := range assign {
		e := &s.execs[i]
		if first {
			e.machine = m
			e.warmStart = s.now
			s.machines[m].resident++
			continue
		}
		if e.machine != m {
			s.machines[e.machine].resident--
			s.machines[m].resident++
			e.machine = m
			e.warmStart = s.now
			e.pausedUntil = s.now + s.cfg.MoveOutageMS
			s.push(event{t: e.pausedUntil, kind: evResume, exec: int32(i)})
		}
	}
	if first {
		// Start spout emission loops, one per spout executor.
		for _, sp := range s.top.Spouts() {
			lo, hi := s.top.ExecutorRange(sp.Name)
			for x := lo; x < hi; x++ {
				s.scheduleNextEmit(x, s.cidx[sp.Name])
			}
		}
	}
	return nil
}

func (s *Sim) push(ev event) {
	if ev.kind != evArrive {
		ev.fromMachine = -1
	}
	ev.seq = s.seq
	s.seq++
	if ev.kind == evAckCheck {
		// Always due at now+ackTimeoutMS, so pushed in (t, seq) order.
		s.events.pushFIFO(ev)
	} else {
		s.events.push(ev)
	}
}

// newAck takes an ackState from the free list (or allocates one) and
// initializes it for a freshly emitted root tuple.
func (s *Sim) newAck(emitMS float64) *ackState {
	var a *ackState
	if n := len(s.ackFree); n > 0 {
		a = s.ackFree[n-1]
		s.ackFree = s.ackFree[:n-1]
	} else {
		a = &ackState{}
	}
	a.pending = 1
	a.emitMS = emitMS
	a.failed = false
	return a
}

// freeAck retires a root tuple's ack record back to the free list.
func (s *Sim) freeAck(root int64, a *ackState) {
	s.acks.remove(root)
	s.ackFree = append(s.ackFree, a)
}

// perExecRate returns the arrival rate (tuples/s) for one executor of the
// spout component at time t.
func (s *Sim) perExecRate(comp int, t float64) float64 {
	c := s.comps[comp]
	p := s.cfg.Arrivals[c.Name]
	return p.RateAt(t) / float64(c.Parallelism)
}

func (s *Sim) scheduleNextEmit(exec, comp int) {
	rate := s.perExecRate(comp, s.now)
	if rate <= 0 {
		// Re-poll for rate changes in a second.
		s.push(event{t: s.now + 1000, kind: evSpoutEmit, exec: int32(exec), tup: tupleRef{comp: int32(comp)}})
		return
	}
	gap := s.rng.ExpFloat64() / rate * 1000
	s.push(event{t: s.now + gap, kind: evSpoutEmit, exec: int32(exec), tup: tupleRef{comp: int32(comp)}})
}

// warmFactor returns the transient service inflation for an executor.
func (s *Sim) warmFactor(e *execState) float64 {
	if s.cfg.WarmupAmplitude <= 0 || s.cfg.WarmupTauMS <= 0 {
		return 1
	}
	age := s.now - e.warmStart
	return 1 + s.cfg.WarmupAmplitude*math.Exp(-age/s.cfg.WarmupTauMS)
}

// serviceMS samples the service duration for a tuple at an executor,
// including deserialization of network arrivals, CPU contention and
// warm-up.
func (s *Sim) serviceMS(exec int, tup tupleRef) float64 {
	e := &s.execs[exec]
	m := s.cl.Machines[e.machine]
	mean := s.comps[tup.comp].ServiceMeanMS
	if tup.crossed {
		mean += s.cl.SerializeMS
	}
	base := s.rng.ExpFloat64() * mean
	// Processor contention: when more executors are busy than cores, each
	// runs proportionally slower.
	s.updateBusy(e.machine, 0)
	busyAvg := s.machines[e.machine].busyAvg
	contention := 1.0
	if busyAvg > float64(m.Cores) && !s.cfg.NoContention {
		contention = busyAvg / float64(m.Cores)
	}
	if s.cfg.CrowdFactor > 0 {
		contention *= 1 + s.cfg.CrowdFactor*float64(s.machines[e.machine].resident-1)
	}
	return base * contention * s.warmFactor(e) / m.SpeedFactor
}

// transferMS computes the tuple transfer delay between machines, including
// congestion from concurrent outbound transfers at the source.
func (s *Sim) transferMS(src, dst int, bytes float64) float64 {
	d := s.cl.TransferMS(src, dst, bytes)
	if src != dst && s.cfg.CongestionFactor > 0 {
		inflight := float64(s.machines[src].outInFlight)
		d *= 1 + s.cfg.CongestionFactor*inflight/4.0
	}
	return d
}

// tryStartService begins servicing the head-of-queue tuple if the executor
// is idle, unpaused and has work.
func (s *Sim) tryStartService(exec int) {
	e := &s.execs[exec]
	if e.busy || e.queue.len() == 0 || s.now < e.pausedUntil {
		return
	}
	tup := e.queue.popFront()
	e.busy = true
	e.serviceOn = e.machine
	s.updateBusy(e.machine, +1)
	dur := s.serviceMS(exec, tup)
	s.push(event{t: s.now + dur, kind: evFinish, exec: int32(exec), tup: tup})
}

// emitChildren sends downstream tuples after comp processed tup, updating
// the ack tree. Returns the number of children emitted. Routing runs
// entirely off the precomputed route table: no map lookups and no per-tuple
// task-list allocations (the All grouping iterates the destination range
// directly).
func (s *Sim) emitChildren(exec int, tup tupleRef) int {
	comp := s.comps[tup.comp]
	routes := s.routes[tup.comp]
	if len(routes) == 0 || comp.Selectivity <= 0 {
		return 0
	}
	ack := s.acks.get(tup.root)
	if ack == nil {
		return 0 // orphaned tree: no point fanning out further work
	}
	children := 0
	srcMachine := s.execs[exec].machine
	for ri := range routes {
		r := &routes[ri]
		// Number of tuples emitted on this edge: selectivity with
		// stochastic rounding.
		count := int(comp.Selectivity)
		if frac := comp.Selectivity - float64(count); frac > 0 && s.rng.Float64() < frac {
			count++
		}
		for c := 0; c < count; c++ {
			switch r.grouping {
			case topology.Shuffle:
				s.sendChild(r, s.rng.Intn(r.par), tup, srcMachine, comp.TupleBytes, ack)
				children++
			case topology.Fields:
				mix := tup.key ^ r.hashMix
				mix ^= mix >> 33
				mix *= 0xff51afd7ed558ccd
				mix ^= mix >> 33
				s.sendChild(r, int(mix%uint64(r.par)), tup, srcMachine, comp.TupleBytes, ack)
				children++
			case topology.Global:
				s.sendChild(r, 0, tup, srcMachine, comp.TupleBytes, ack)
				children++
			case topology.All:
				for task := 0; task < r.par; task++ {
					s.sendChild(r, task, tup, srcMachine, comp.TupleBytes, ack)
					children++
				}
			}
		}
	}
	return children
}

// sendChild schedules one downstream tuple arrival on route r at the given
// destination task.
func (s *Sim) sendChild(r *route, task int, tup tupleRef, srcMachine int, bytes float64, ack *ackState) {
	dstExec := r.base + task
	dstMachine := s.execs[dstExec].machine
	delay := s.transferMS(srcMachine, dstMachine, bytes)
	from := int32(-1)
	if srcMachine != dstMachine {
		s.machines[srcMachine].outInFlight++
		from = int32(srcMachine)
	}
	child := tupleRef{root: tup.root, comp: r.dst, key: tup.key, emitMS: tup.emitMS, crossed: from >= 0}
	s.push(event{t: s.now + delay, kind: evArrive, exec: int32(dstExec), tup: child, fromMachine: from})
	ack.pending++
}

// reservoirCap bounds the memory used by percentile tracking.
const reservoirCap = 4096

// recordCompletion logs an acked root tuple's end-to-end latency.
func (s *Sim) recordCompletion(emitMS float64) {
	lat := s.now - emitMS
	// Vitter's algorithm R keeps a uniform sample of all completions.
	s.resSeen++
	if len(s.reservoir) < reservoirCap {
		s.reservoir = append(s.reservoir, lat)
	} else if j := s.rng.Int63n(s.resSeen); j < reservoirCap {
		s.reservoir[j] = lat
	}
	w := int(s.now / s.cfg.WindowMS)
	for len(s.winSum) <= w {
		s.winSum = append(s.winSum, 0)
		s.winCount = append(s.winCount, 0)
	}
	s.winSum[w] += lat
	s.winCount[w]++
	s.completed++
}

// step processes one event. Returns false when no events remain.
func (s *Sim) step() bool {
	if s.events.len() == 0 {
		return false
	}
	ev := s.events.pop()
	s.now = ev.t
	exec := int(ev.exec)
	switch ev.kind {
	case evSpoutEmit:
		comp := int(ev.tup.comp)
		// When the arrival rate is zero this event is only a rate re-poll;
		// emit nothing.
		if s.perExecRate(comp, s.now) > 0 {
			root := s.nextRoot
			s.nextRoot++
			tup := tupleRef{root: root, comp: ev.tup.comp, key: s.rng.Uint64(), emitMS: s.now}
			s.acks.put(root, s.newAck(s.now))
			if s.ackTimeoutMS > 0 {
				s.push(event{t: s.now + s.ackTimeoutMS, kind: evAckCheck, exec: ev.exec,
					tup: tupleRef{root: root, comp: ev.tup.comp}})
			}
			s.execs[ev.exec].queue.pushBack(tup)
			s.tryStartService(exec)
		}
		s.scheduleNextEmit(exec, comp)
	case evArrive:
		if ev.fromMachine >= 0 {
			// The tuple left the network; release the congestion counter.
			s.machines[ev.fromMachine].outInFlight--
		}
		s.execs[ev.exec].queue.pushBack(ev.tup)
		s.tryStartService(exec)
	case evFinish:
		e := &s.execs[ev.exec]
		e.busy = false
		s.updateBusy(e.serviceOn, -1)
		if s.failedUntil[e.serviceOn] > s.now {
			// The machine failed mid-service; the result is lost.
			s.orphanTuple(ev.tup)
			s.tryStartService(exec)
			break
		}
		s.emitChildren(exec, ev.tup)
		if ack := s.acks.get(ev.tup.root); ack != nil {
			ack.pending--
			if ack.pending == 0 {
				if !ack.failed {
					s.recordCompletion(ack.emitMS)
					s.freeAck(ev.tup.root, ack)
				} else if s.ackTimeoutMS <= 0 {
					// Failed tree fully accounted for and no replay
					// mechanism: the root is lost.
					s.freeAck(ev.tup.root, ack)
					s.dropped++
				}
			}
		}
		s.tryStartService(exec)
	case evResume:
		s.tryStartService(exec)
	case evAckCheck:
		s.checkAck(ev.tup.root, exec, int(ev.tup.comp))
	case evFail:
		// Declaratively scheduled machine failure; ev.exec carries the
		// machine index and ev.tup.emitMS the outage duration.
		s.failMachine(exec, ev.tup.emitMS)
	}
	return true
}

// RunUntil advances the simulation to time tMS (milliseconds).
func (s *Sim) RunUntil(tMS float64) {
	for s.events.len() > 0 && s.events.peekTime() <= tMS {
		s.step()
	}
	if s.now < tMS {
		s.now = tMS
	}
}

// Windows returns the completed metric windows up to the current time:
// window i covers [i·WindowMS, (i+1)·WindowMS). Windows with no completed
// tuples report AvgMS = 0 and Count = 0.
func (s *Sim) Windows() []WindowSample {
	n := int(s.now / s.cfg.WindowMS)
	if n > len(s.winSum) {
		n = len(s.winSum)
	}
	out := make([]WindowSample, 0, n)
	for i := 0; i < n; i++ {
		ws := WindowSample{TimeMS: float64(i+1) * s.cfg.WindowMS, Count: s.winCount[i]}
		if ws.Count > 0 {
			ws.AvgMS = s.winSum[i] / float64(ws.Count)
		}
		out = append(out, ws)
	}
	return out
}

// Emitted returns the number of root tuples emitted so far, including
// replays.
func (s *Sim) Emitted() int64 { return s.nextRoot }

// Outstanding returns the number of root tuples still in flight.
func (s *Sim) Outstanding() int { return s.acks.live }

// LatencyPercentile returns the p-th percentile (p in [0,100]) of
// end-to-end tuple latency over a uniform reservoir sample of all
// completions. Returns 0 before any completion.
func (s *Sim) LatencyPercentile(p float64) float64 {
	if len(s.reservoir) == 0 {
		return 0
	}
	return stats.Percentile(s.reservoir, p)
}

// AvgOverLastWindows returns the tuple-weighted mean latency across the
// last k completed windows (the paper's measurement: "the average of 5
// consecutive measurements with a 10-second interval", §3.1). Returns 0 if
// no tuples completed.
func (s *Sim) AvgOverLastWindows(k int) float64 {
	wins := s.Windows()
	if len(wins) == 0 {
		return 0
	}
	if k > len(wins) {
		k = len(wins)
	}
	var sum float64
	var count int
	for _, w := range wins[len(wins)-k:] {
		sum += w.AvgMS * float64(w.Count)
		count += w.Count
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// updateBusy folds the elapsed interval into the machine's busy-level EWMA
// and applies delta to the instantaneous count.
func (s *Sim) updateBusy(m int, delta int) {
	ms := &s.machines[m]
	if dt := s.now - ms.lastChange; dt > 0 {
		f := math.Exp(-dt / busyTauMS)
		ms.busyAvg = ms.busyAvg*f + float64(ms.busyCount)*(1-f)
		ms.lastChange = s.now
	}
	ms.busyCount += delta
}
