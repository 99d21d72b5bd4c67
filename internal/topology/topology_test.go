package topology

import (
	"strings"
	"testing"
)

func buildChain(t *testing.T) *Topology {
	t.Helper()
	top, err := NewBuilder("chain").
		AddSpout("spout", 2, 0.05, 1, 100).
		AddBolt("split", 3, 0.2, 2, 60).
		AddBolt("count", 3, 0.1, 1, 40).
		AddBolt("db", 2, 0.3, 0, 0).
		Connect("spout", "split", Shuffle).
		Connect("split", "count", Fields).
		Connect("count", "db", Shuffle).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBuildChain(t *testing.T) {
	top := buildChain(t)
	if top.NumExecutors() != 10 {
		t.Fatalf("N=%d want 10", top.NumExecutors())
	}
	if got := top.Component("split").Parallelism; got != 3 {
		t.Fatalf("split parallelism %d", got)
	}
	lo, hi := top.ExecutorRange("count")
	if lo != 5 || hi != 8 {
		t.Fatalf("count range [%d,%d) want [5,8)", lo, hi)
	}
	if lo, hi := top.ExecutorRange("db"); lo != 8 || hi != 10 {
		t.Fatalf("db range [%d,%d) want [8,10)", lo, hi)
	}
	if len(top.Spouts()) != 1 || top.Spouts()[0].Name != "spout" {
		t.Fatal("Spouts() wrong")
	}
}

func TestTopoOrder(t *testing.T) {
	top := buildChain(t)
	order := top.Order()
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range top.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %s->%s violates topo order %v", e.From, e.To, order)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Topology, error)
		errPart string
	}{
		{"no spout", func() (*Topology, error) {
			return NewBuilder("x").AddBolt("b", 1, 1, 1, 1).Build()
		}, "no spout"},
		{"unknown edge target", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 1, 1, 1, 1).Connect("s", "ghost", Shuffle).Build()
		}, "unknown component"},
		{"unknown edge source", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 1, 1, 1, 1).AddBolt("b", 1, 1, 1, 1).
				Connect("ghost", "b", Shuffle).Build()
		}, "unknown component"},
		{"edge into spout", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 1, 1, 1, 1).AddBolt("b", 1, 1, 1, 1).
				Connect("s", "b", Shuffle).Connect("b", "s", Shuffle).Build()
		}, "cannot have inputs"},
		{"cycle", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 1, 1, 1, 1).
				AddBolt("a", 1, 1, 1, 1).AddBolt("b", 1, 1, 1, 1).
				Connect("s", "a", Shuffle).Connect("a", "b", Shuffle).Connect("b", "a", Shuffle).Build()
		}, "cycle"},
		{"unreachable bolt", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 1, 1, 1, 1).AddBolt("orphan", 1, 1, 1, 1).Build()
		}, "unreachable"},
		{"duplicate name", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 1, 1, 1, 1).AddBolt("s", 1, 1, 1, 1).Build()
		}, "duplicate"},
		{"zero parallelism", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 0, 1, 1, 1).Build()
		}, "parallelism"},
		{"negative cost", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("s", 1, -1, 1, 1).Build()
		}, "negative"},
		{"empty name", func() (*Topology, error) {
			return NewBuilder("x").AddSpout("", 1, 1, 1, 1).Build()
		}, "empty"},
	}
	for _, c := range cases {
		_, err := c.build()
		if err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.errPart)
		}
	}
}

func TestKindAndGroupingStrings(t *testing.T) {
	if Spout.String() != "spout" || Bolt.String() != "bolt" {
		t.Fatal("Kind strings")
	}
	for g, want := range map[Grouping]string{Shuffle: "shuffle", Fields: "fields", All: "all", Global: "global"} {
		if g.String() != want {
			t.Fatalf("grouping %d string %q", g, g.String())
		}
	}
}

func TestInOutEdges(t *testing.T) {
	top := buildChain(t)
	if len(top.Out("spout")) != 1 || top.Out("spout")[0].To != "split" {
		t.Fatal("Out wrong")
	}
	if len(top.In("db")) != 1 || top.In("db")[0].From != "count" {
		t.Fatal("In wrong")
	}
	if len(top.Out("db")) != 0 {
		t.Fatal("sink should have no outs")
	}
}

func TestExecutorRangePanicsOnUnknown(t *testing.T) {
	top := buildChain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	top.ExecutorRange("nope")
}

func TestMultiSpout(t *testing.T) {
	top, err := NewBuilder("multi").
		AddSpout("s1", 2, 0.1, 1, 50).
		AddSpout("s2", 3, 0.1, 1, 50).
		AddBolt("join", 2, 0.2, 1, 50).
		Connect("s1", "join", Shuffle).
		Connect("s2", "join", Fields).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Spouts()) != 2 {
		t.Fatal("want 2 spouts")
	}
	if len(top.In("join")) != 2 {
		t.Fatal("join should have 2 inputs")
	}
	if top.NumExecutors() != 7 {
		t.Fatalf("N=%d", top.NumExecutors())
	}
}
