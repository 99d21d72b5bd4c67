package cluster

import (
	"testing"
	"testing/quick"
)

func TestNewUniform(t *testing.T) {
	c := NewUniform(10)
	if c.Size() != 10 {
		t.Fatalf("Size=%d", c.Size())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	m := c.Machines[3]
	if m.Slots != 10 || m.Cores != 2 || m.NetMbps != 1000 {
		t.Fatalf("machine defaults wrong: %+v", m)
	}
	if c.SerializeMS <= 0 {
		t.Fatal("serialization cost should default on")
	}
	if m.Name != "machine-3" {
		t.Fatalf("name %q", m.Name)
	}
}

func TestValidateErrors(t *testing.T) {
	c := &Cluster{}
	if err := c.Validate(); err == nil {
		t.Fatal("empty cluster should fail validation")
	}
	c = NewUniform(2)
	c.Machines[1].Cores = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero cores should fail validation")
	}
}

func TestTransferMS(t *testing.T) {
	c := NewUniform(3)
	// Same machine: intra-process constant.
	if got := c.TransferMS(1, 1, 1e6); got != c.IntraProcessMS {
		t.Fatalf("same-machine transfer %v", got)
	}
	// Cross machine: latency + wire time. 1000 bytes at 1 Gbps = 8e-6 s = 0.008 ms.
	got := c.TransferMS(0, 1, 1000)
	want := c.NetworkMS + 0.008
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cross transfer %v want %v", got, want)
	}
	// Slower destination NIC dominates.
	c.Machines[2].NetMbps = 100
	if c.TransferMS(0, 2, 1000) <= c.TransferMS(0, 1, 1000) {
		t.Fatal("slower NIC should raise transfer time")
	}
}

func TestAssignmentCloneAndEqual(t *testing.T) {
	a := FromSlice([]int{0, 1, 2, 1})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.MachineOf[0] = 2
	if a.Equal(b) {
		t.Fatal("Equal after mutation")
	}
	if a.MachineOf[0] != 0 {
		t.Fatal("clone aliased original")
	}
	if a.Equal(FromSlice([]int{0, 1})) {
		t.Fatal("different lengths cannot be equal")
	}
}

func TestCounts(t *testing.T) {
	a := FromSlice([]int{0, 1, 1, 2, 1})
	counts := a.Counts(4)
	want := []int{1, 3, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("Counts=%v want %v", counts, want)
		}
	}
}

func TestAssignmentValidate(t *testing.T) {
	c := NewUniform(2)
	if err := FromSlice([]int{0, 1, 0}).Validate(c); err != nil {
		t.Fatal(err)
	}
	if err := FromSlice([]int{0, 5}).Validate(c); err == nil {
		t.Fatal("out-of-range machine should fail")
	}
	if err := FromSlice([]int{-1}).Validate(c); err == nil {
		t.Fatal("negative machine should fail")
	}
}

func TestMultiAssignmentProcesses(t *testing.T) {
	c := NewUniform(3)
	var ma MultiAssignment
	ma.Add("cq", []int{0, 0, 1})
	ma.Add("wc", []int{1, 2, 2, 1})
	procs := ma.Processes(c)
	want := []int{1, 2, 1} // cq on {0,1}, wc on {1,2}
	for i := range want {
		if procs[i] != want[i] {
			t.Fatalf("Processes=%v want %v", procs, want)
		}
	}
	if err := ma.Validate(c); err != nil {
		t.Fatal(err)
	}
}

func TestMultiAssignmentValidate(t *testing.T) {
	c := NewUniform(2)
	var ma MultiAssignment
	ma.Add("a", []int{0, 3})
	if err := ma.Validate(c); err == nil {
		t.Fatal("out-of-range machine should fail")
	}
	ma = MultiAssignment{}
	ma.Add("a", []int{0})
	ma.Add("a", []int{1})
	if err := ma.Validate(c); err == nil {
		t.Fatal("duplicate app name should fail")
	}
	ma = MultiAssignment{}
	ma.Add("", []int{0})
	if err := ma.Validate(c); err == nil {
		t.Fatal("unnamed app should fail")
	}
	// Slot exhaustion: each app takes one worker process on machine 0.
	ma = MultiAssignment{}
	c.Machines[0].Slots = 2
	ma.Add("a", []int{0})
	ma.Add("b", []int{0, 1})
	if err := ma.Validate(c); err != nil {
		t.Fatal(err)
	}
	ma.Add("c", []int{0})
	if err := ma.Validate(c); err == nil {
		t.Fatal("three apps on a 2-slot machine should fail")
	}
}

// Property: Counts always sums to N.
func TestAssignmentProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		const m = 5
		av := make([]int, len(raw))
		for i, r := range raw {
			av[i] = int(r) % m
		}
		a := FromSlice(av)
		sum := 0
		for _, c := range a.Counts(m) {
			sum += c
		}
		return sum == a.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
