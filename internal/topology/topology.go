// Package topology models the logical layer of a DSDPS application (§2.1):
// a directed acyclic graph whose vertices are data sources (spouts) and
// processing units (bolts), with per-edge grouping policies that define how
// tuples are distributed among the parallel tasks of the downstream
// component. Terminology follows Apache Storm (§2.2): spout, bolt, topology,
// executor.
package topology

import (
	"fmt"
	"sort"
)

// Kind distinguishes data sources from processing units.
type Kind int

// Component kinds.
const (
	Spout Kind = iota
	Bolt
)

// String returns "spout" or "bolt".
func (k Kind) String() string {
	if k == Spout {
		return "spout"
	}
	return "bolt"
}

// Grouping defines how tuples on an edge are distributed among the
// downstream component's tasks (§2.1).
type Grouping int

// Supported grouping policies.
const (
	// Shuffle sends each tuple to a uniformly random downstream task.
	Shuffle Grouping = iota
	// Fields hashes a tuple key so equal keys reach the same task.
	Fields
	// All replicates every tuple to every downstream task.
	All
	// Global sends every tuple to the lowest-indexed downstream task.
	Global
)

// String returns the Storm name of the grouping.
func (g Grouping) String() string {
	switch g {
	case Shuffle:
		return "shuffle"
	case Fields:
		return "fields"
	case All:
		return "all"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("Grouping(%d)", int(g))
	}
}

// Component is a spout or bolt with its runtime cost profile. The cost
// fields parameterize the simulator and the analytic evaluator; they play
// the role of the per-PU behaviour that the paper's physical Storm cluster
// exhibits at runtime.
type Component struct {
	Name        string
	Kind        Kind
	Parallelism int // number of executors (tasks) for this component

	// ServiceMeanMS is the mean CPU demand per tuple in milliseconds on a
	// single reference core.
	ServiceMeanMS float64
	// Selectivity is the mean number of output tuples emitted per input
	// tuple processed (0 for sinks).
	Selectivity float64
	// TupleBytes is the mean serialized size of emitted tuples, which
	// drives network transfer cost.
	TupleBytes float64
}

// Edge is a directed stream between two components.
type Edge struct {
	From, To string
	Grouping Grouping
}

// Topology is a validated application graph.
type Topology struct {
	Name       string
	Components []*Component
	Edges      []Edge

	byName map[string]*Component
	outs   map[string][]Edge // edges grouped by source component
	ins    map[string][]Edge // edges grouped by destination component
	order  []string          // topological order of component names

	numExecutors int
	execBase     map[string]int // component name -> first executor index
}

// Builder accumulates components and edges and validates them into a
// Topology.
type Builder struct {
	name       string
	components []*Component
	edges      []Edge
	err        error
}

// NewBuilder starts a topology definition.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddSpout adds a data source. parallelism is its executor count,
// serviceMS the per-tuple emit overhead, selectivity the tuples emitted per
// arrival (normally 1), and bytes the emitted tuple size.
func (b *Builder) AddSpout(name string, parallelism int, serviceMS, selectivity, bytes float64) *Builder {
	b.add(&Component{Name: name, Kind: Spout, Parallelism: parallelism,
		ServiceMeanMS: serviceMS, Selectivity: selectivity, TupleBytes: bytes})
	return b
}

// AddBolt adds a processing unit.
func (b *Builder) AddBolt(name string, parallelism int, serviceMS, selectivity, bytes float64) *Builder {
	b.add(&Component{Name: name, Kind: Bolt, Parallelism: parallelism,
		ServiceMeanMS: serviceMS, Selectivity: selectivity, TupleBytes: bytes})
	return b
}

func (b *Builder) add(c *Component) {
	if b.err != nil {
		return
	}
	if c.Name == "" {
		b.err = fmt.Errorf("topology: empty component name")
		return
	}
	if c.Parallelism <= 0 {
		b.err = fmt.Errorf("topology: component %q has parallelism %d", c.Name, c.Parallelism)
		return
	}
	if c.ServiceMeanMS < 0 || c.Selectivity < 0 || c.TupleBytes < 0 {
		b.err = fmt.Errorf("topology: component %q has negative cost parameters", c.Name)
		return
	}
	for _, existing := range b.components {
		if existing.Name == c.Name {
			b.err = fmt.Errorf("topology: duplicate component %q", c.Name)
			return
		}
	}
	b.components = append(b.components, c)
}

// Connect adds a stream from one component to another.
func (b *Builder) Connect(from, to string, g Grouping) *Builder {
	if b.err != nil {
		return b
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Grouping: g})
	return b
}

// Build validates the graph and returns the topology. Validation enforces:
// at least one spout, all edge endpoints exist, spouts have no inputs,
// the graph is acyclic, and every bolt is reachable from some spout.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Topology{
		Name:       b.name,
		Components: b.components,
		Edges:      b.edges,
		byName:     map[string]*Component{},
		outs:       map[string][]Edge{},
		ins:        map[string][]Edge{},
		execBase:   map[string]int{},
	}
	for _, c := range t.Components {
		t.byName[c.Name] = c
	}
	hasSpout := false
	for _, c := range t.Components {
		if c.Kind == Spout {
			hasSpout = true
		}
	}
	if !hasSpout {
		return nil, fmt.Errorf("topology %q: no spout", t.Name)
	}
	for _, e := range t.Edges {
		if _, ok := t.byName[e.From]; !ok {
			return nil, fmt.Errorf("topology %q: edge from unknown component %q", t.Name, e.From)
		}
		to, ok := t.byName[e.To]
		if !ok {
			return nil, fmt.Errorf("topology %q: edge to unknown component %q", t.Name, e.To)
		}
		if to.Kind == Spout {
			return nil, fmt.Errorf("topology %q: spout %q cannot have inputs", t.Name, e.To)
		}
		t.outs[e.From] = append(t.outs[e.From], e)
		t.ins[e.To] = append(t.ins[e.To], e)
	}
	order, err := t.topoSort()
	if err != nil {
		return nil, err
	}
	t.order = order
	// Reachability: every bolt must be downstream of a spout.
	reach := map[string]bool{}
	for _, c := range t.Components {
		if c.Kind == Spout {
			reach[c.Name] = true
		}
	}
	for _, name := range order {
		if !reach[name] {
			continue
		}
		for _, e := range t.outs[name] {
			reach[e.To] = true
		}
	}
	for _, c := range t.Components {
		if !reach[c.Name] {
			return nil, fmt.Errorf("topology %q: component %q unreachable from any spout", t.Name, c.Name)
		}
	}
	// Number executors in component order: a component's tasks hold the
	// global indices [execBase, execBase+Parallelism).
	for _, c := range t.Components {
		t.execBase[c.Name] = t.numExecutors
		t.numExecutors += c.Parallelism
	}
	return t, nil
}

// topoSort returns component names in topological order, or an error if the
// graph has a cycle.
func (t *Topology) topoSort() ([]string, error) {
	indeg := map[string]int{}
	for _, c := range t.Components {
		indeg[c.Name] = 0
	}
	for _, e := range t.Edges {
		indeg[e.To]++
	}
	var frontier []string
	for name, d := range indeg {
		if d == 0 {
			frontier = append(frontier, name)
		}
	}
	sort.Strings(frontier) // deterministic order
	var order []string
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		order = append(order, n)
		var next []string
		for _, e := range t.outs[n] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				next = append(next, e.To)
			}
		}
		sort.Strings(next)
		frontier = append(frontier, next...)
	}
	if len(order) != len(t.Components) {
		return nil, fmt.Errorf("topology %q: cycle detected", t.Name)
	}
	return order, nil
}

// Component returns the named component, or nil.
func (t *Topology) Component(name string) *Component { return t.byName[name] }

// Out returns the outgoing edges of a component.
func (t *Topology) Out(name string) []Edge { return t.outs[name] }

// In returns the incoming edges of a component.
func (t *Topology) In(name string) []Edge { return t.ins[name] }

// Order returns component names in topological order.
func (t *Topology) Order() []string { return t.order }

// NumExecutors returns N, the number of schedulable threads.
func (t *Topology) NumExecutors() int { return t.numExecutors }

// ExecutorRange returns the global index range [lo, hi) of a component's
// executors.
func (t *Topology) ExecutorRange(name string) (lo, hi int) {
	c := t.byName[name]
	if c == nil {
		panic(fmt.Sprintf("topology: unknown component %q", name))
	}
	lo = t.execBase[name]
	return lo, lo + c.Parallelism
}

// Spouts returns the spout components.
func (t *Topology) Spouts() []*Component {
	var out []*Component
	for _, c := range t.Components {
		if c.Kind == Spout {
			out = append(out, c)
		}
	}
	return out
}
