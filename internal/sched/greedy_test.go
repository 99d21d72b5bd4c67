package sched

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
)

func TestGreedyValidAndDeterministic(t *testing.T) {
	top, cl, ev := testSystem(t, 400)
	g := &Greedy{Top: top, Cl: cl}
	if g.Name() != "Greedy" {
		t.Fatal("name")
	}
	a, err := g.Schedule(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != ev.N() {
		t.Fatalf("len %d want %d", len(a), ev.N())
	}
	for i, m := range a {
		if m < 0 || m >= ev.M() {
			t.Fatalf("executor %d on invalid machine %d", i, m)
		}
	}
	b, err := g.Schedule(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("greedy not deterministic: %v vs %v", a, b)
	}
}

func TestGreedySpreadsLoad(t *testing.T) {
	top, cl, ev := testSystem(t, 400)
	g := &Greedy{Top: top, Cl: cl}
	a, err := g.Schedule(ev)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, ev.M())
	for _, m := range a {
		counts[m]++
	}
	for m, c := range counts {
		if c == ev.N() {
			t.Fatalf("all executors piled on machine %d", m)
		}
	}
	used := 0
	for _, c := range counts {
		if c > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("greedy used %d machine(s): %v", used, counts)
	}
}

func TestGreedyPrefersFastMachines(t *testing.T) {
	top, cl, ev := testSystem(t, 400)
	cl.Machines[2].SpeedFactor = 3.0 // one machine much faster
	g := &Greedy{Top: top, Cl: cl}
	a, err := g.Schedule(ev)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, ev.M())
	for _, m := range a {
		counts[m]++
	}
	for m, c := range counts {
		if m != 2 && counts[2] < c {
			t.Fatalf("fast machine 2 got %d executors, slower machine %d got %d: %v", counts[2], m, c, counts)
		}
	}
}

func TestGreedyDimensionMismatch(t *testing.T) {
	top, _, ev := testSystem(t, 400)
	g := &Greedy{Top: top, Cl: cluster.NewUniform(2)} // env reports M=4
	if _, err := g.Schedule(ev); err == nil {
		t.Fatal("mismatched cluster size should fail")
	}
}
