// Package cluster models the physical layer of a DSDPS (§2.1): worker
// machines with slots and CPU cores, the network between them, and the
// assignment of executors (threads) to machines.
//
// Per the paper's design (§3.2, following [52, 25]), all threads of one
// application on a machine share a single worker process, so the two
// mappings N→P and P→M merge into one mapping N→M; Assignment stores
// exactly that.
package cluster

import (
	"fmt"
)

// Machine is one worker machine. The defaults mirror the paper's testbed:
// IBM blades with a quad-core 2.0 GHz CPU, 4 GB memory, 10 slots, on a
// 1 Gbps network (§4.1). Cores counts the cores *available to worker
// executors* — two of the four physical cores are modeled as consumed by
// the OS, Storm daemons (supervisor, acker) and network stack.
type Machine struct {
	Name  string
	Slots int // worker processes this machine may host
	Cores int // CPU cores; drives contention when busy executors exceed cores
	// SpeedFactor scales CPU speed relative to the reference core that
	// component service demands are expressed in (1.0 = reference).
	SpeedFactor float64
	// NetMbps is the NIC line rate in megabits per second.
	NetMbps float64
}

// Cluster is a set of machines plus the latency constants of the three
// communication tiers.
type Cluster struct {
	Machines []*Machine

	// IntraProcessMS is the tuple hand-off latency between executors in the
	// same worker process (an in-memory queue).
	IntraProcessMS float64
	// InterProcessMS is the hand-off latency between processes on one
	// machine (loopback); only reachable for executors of *different*
	// applications under the one-process-per-app constraint.
	InterProcessMS float64
	// NetworkMS is the base one-way network latency between two machines.
	NetworkMS float64
	// SerializeMS is the extra CPU demand (milliseconds) a cross-machine
	// tuple costs at the receiving executor for deserialization (and the
	// sender's serialization, folded in). Kryo (de)serialization dominates
	// inter-worker transfer cost in real Storm; co-locating communicating
	// executors avoids it entirely, which is the main CPU-side lever
	// schedulers exploit.
	SerializeMS float64
}

// NewUniform returns a cluster of m identical machines patterned on the
// paper's testbed (10 slots, 4 cores, 1 Gbps).
func NewUniform(m int) *Cluster {
	c := &Cluster{
		IntraProcessMS: 0.01,
		InterProcessMS: 0.05,
		NetworkMS:      0.60,
		SerializeMS:    0.30,
	}
	for i := 0; i < m; i++ {
		c.Machines = append(c.Machines, &Machine{
			Name:        fmt.Sprintf("machine-%d", i),
			Slots:       10,
			Cores:       2,
			SpeedFactor: 1.0,
			NetMbps:     1000,
		})
	}
	return c
}

// Size returns the number of machines M.
func (c *Cluster) Size() int { return len(c.Machines) }

// Validate checks the cluster is usable.
func (c *Cluster) Validate() error {
	if len(c.Machines) == 0 {
		return fmt.Errorf("cluster: no machines")
	}
	for i, m := range c.Machines {
		if m.Slots <= 0 || m.Cores <= 0 || m.SpeedFactor <= 0 || m.NetMbps <= 0 {
			return fmt.Errorf("cluster: machine %d (%s) has non-positive parameters", i, m.Name)
		}
	}
	return nil
}

// TransferMS returns the tuple transfer latency in milliseconds between an
// executor on machine src and one on machine dst for a tuple of the given
// size, excluding congestion (which the simulator and the analytic
// evaluator model on top). Same machine implies same process for executors
// of one application.
func (c *Cluster) TransferMS(src, dst int, bytes float64) float64 {
	if src == dst {
		return c.IntraProcessMS
	}
	// Serialization + wire time at the slower of the two NICs.
	mbps := c.Machines[src].NetMbps
	if d := c.Machines[dst].NetMbps; d < mbps {
		mbps = d
	}
	wire := bytes * 8 / (mbps * 1e6) * 1e3 // ms
	return c.NetworkMS + wire
}

// Assignment maps each executor index to a machine index: the paper's
// scheduling solution X (one mapping N→M, §3.2).
type Assignment struct {
	MachineOf []int
}

// FromSlice wraps (copies) a machine-index slice.
func FromSlice(machineOf []int) *Assignment {
	return &Assignment{MachineOf: append([]int(nil), machineOf...)}
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment { return FromSlice(a.MachineOf) }

// N returns the number of executors.
func (a *Assignment) N() int { return len(a.MachineOf) }

// Validate checks every executor maps to a real machine.
func (a *Assignment) Validate(c *Cluster) error {
	for i, m := range a.MachineOf {
		if m < 0 || m >= c.Size() {
			return fmt.Errorf("cluster: executor %d assigned to invalid machine %d (M=%d)", i, m, c.Size())
		}
	}
	return nil
}

// Counts returns the number of executors per machine.
func (a *Assignment) Counts(m int) []int {
	counts := make([]int, m)
	for _, mi := range a.MachineOf {
		counts[mi]++
	}
	return counts
}

// Equal reports whether two assignments are identical.
func (a *Assignment) Equal(other *Assignment) bool {
	if len(a.MachineOf) != len(other.MachineOf) {
		return false
	}
	for i := range a.MachineOf {
		if a.MachineOf[i] != other.MachineOf[i] {
			return false
		}
	}
	return true
}

// AppPlacement is one application's executor→machine assignment within a
// multi-application placement.
type AppPlacement struct {
	App       string
	MachineOf []int
}

// MultiAssignment places several co-resident applications on one cluster.
// Under the one-process-per-app constraint (§3.2) an application runs at
// most one worker process per machine, so each application consumes
// exactly one slot on every machine hosting at least one of its
// executors — that is what makes worker slots a contended resource once
// topologies share a cluster.
type MultiAssignment struct {
	Apps []AppPlacement
}

// Add appends one application's placement (the slice is copied).
func (ma *MultiAssignment) Add(app string, machineOf []int) {
	ma.Apps = append(ma.Apps, AppPlacement{App: app, MachineOf: append([]int(nil), machineOf...)})
}

// Processes returns, per machine, the number of worker processes the
// placement requires: one per application with at least one executor on
// that machine.
func (ma *MultiAssignment) Processes(c *Cluster) []int {
	procs := make([]int, c.Size())
	seen := make([]bool, c.Size())
	for _, ap := range ma.Apps {
		for i := range seen {
			seen[i] = false
		}
		for _, m := range ap.MachineOf {
			if m >= 0 && m < len(seen) && !seen[m] {
				seen[m] = true
				procs[m]++
			}
		}
	}
	return procs
}

// Validate checks every placement maps to real machines, application names
// are unique, and no machine needs more worker processes than it has
// slots.
func (ma *MultiAssignment) Validate(c *Cluster) error {
	names := make(map[string]bool, len(ma.Apps))
	for _, ap := range ma.Apps {
		if ap.App == "" {
			return fmt.Errorf("cluster: multi-assignment has an unnamed application")
		}
		if names[ap.App] {
			return fmt.Errorf("cluster: duplicate application %q in multi-assignment", ap.App)
		}
		names[ap.App] = true
		for i, m := range ap.MachineOf {
			if m < 0 || m >= c.Size() {
				return fmt.Errorf("cluster: app %q executor %d assigned to invalid machine %d (M=%d)",
					ap.App, i, m, c.Size())
			}
		}
	}
	for m, procs := range ma.Processes(c) {
		if procs > c.Machines[m].Slots {
			return fmt.Errorf("cluster: machine %d (%s) needs %d worker processes but has %d slots",
				m, c.Machines[m].Name, procs, c.Machines[m].Slots)
		}
	}
	return nil
}
