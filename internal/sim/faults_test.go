package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

func faultSim(t *testing.T, ackTimeoutMS float64) *Sim {
	t.Helper()
	top := chainTopology(t)
	cl := cluster.NewUniform(3)
	arr := map[string]workload.ArrivalProcess{"spout": workload.ConstantRate{PerSecond: 150}}
	cfg := DefaultConfig(top, cl, arr, 21)
	cfg.WarmupAmplitude = 0
	cfg.MoveOutageMS = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ackTimeoutMS > 0 {
		s.EnableAckTimeout(ackTimeoutMS)
	}
	if err := s.Deploy(roundRobin(top.NumExecutors(), 3)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNoReplaysWithoutFaults(t *testing.T) {
	s := faultSim(t, 30_000) // generous deadline, healthy cluster
	s.RunUntil(30_000)
	if s.Replayed() != 0 {
		t.Fatalf("healthy run replayed %d tuples", s.Replayed())
	}
	if s.Completed() == 0 {
		t.Fatal("no completions")
	}
}

func TestMachineFailureTriggersReplays(t *testing.T) {
	s := faultSim(t, 5_000)
	s.RunUntil(20_000)
	before := s.Completed()
	s.FailMachine(1, 10_000)
	s.RunUntil(60_000)
	if s.Replayed() == 0 {
		t.Fatal("machine failure with ack timeouts should replay lost tuples")
	}
	if s.Completed() <= before {
		t.Fatal("pipeline did not recover after machine failure")
	}
	// After recovery, in-flight set must not leak.
	if s.Outstanding() > 1000 {
		t.Fatalf("%d ack entries outstanding after recovery", s.Outstanding())
	}
}

func TestMachineFailureWithoutTimeoutDropsTuples(t *testing.T) {
	s := faultSim(t, 0)
	// Fail repeatedly so some tuples are reliably in flight on the failed
	// machine at a failure instant.
	for i := 0; i < 10; i++ {
		s.RunUntil(float64(5_000 + i*3_000))
		s.FailMachine(i%3, 2_000)
	}
	s.RunUntil(60_000)
	if s.Replayed() != 0 {
		t.Fatal("replays should not occur with timeouts disabled")
	}
	if s.Dropped() == 0 {
		t.Fatal("a failure without ack timeouts should drop tuples")
	}
	if s.Completed() == 0 {
		t.Fatal("surviving machines should keep completing tuples")
	}
}

func TestTightAckDeadlineReplaysSlowTuples(t *testing.T) {
	// A deadline near the typical end-to-end latency forces replays of the
	// slower tuples even on a healthy cluster (kept short: every replay
	// re-enters the pipeline).
	s := faultSim(t, 1.5)
	s.RunUntil(5_000)
	if s.Replayed() == 0 {
		t.Fatal("near-latency ack deadline should trigger replays")
	}
	if s.Completed() == 0 {
		t.Fatal("most tuples should still complete")
	}
}

func TestFailedMachineProcessesNothingWhileDown(t *testing.T) {
	s := faultSim(t, 5_000)
	s.RunUntil(10_000)
	s.FailMachine(2, 20_000)
	s.RunUntil(15_000)
	for i := range s.execs {
		e := &s.execs[i]
		if e.machine == 2 && e.busy {
			t.Fatalf("executor %d busy on failed machine", i)
		}
	}
	s.RunUntil(60_000)
	if s.Completed() == 0 {
		t.Fatal("cluster should keep working")
	}
}

func TestScheduledFailureMatchesImperative(t *testing.T) {
	// A declaratively scheduled failure must reproduce the imperative
	// two-phase run exactly: RunUntil(T) pops every event with t ≤ T, and
	// continuous-time event stamps never land exactly on the integer
	// deadline, so the fault fires at the same point of the event sequence
	// either way.
	decl := faultSim(t, 5_000)
	if err := decl.ScheduleFailure(1, 20_000, 10_000); err != nil {
		t.Fatal(err)
	}
	decl.RunUntil(60_000)

	imp := faultSim(t, 5_000)
	imp.RunUntil(20_000)
	imp.FailMachine(1, 10_000)
	imp.RunUntil(60_000)

	if decl.Completed() != imp.Completed() || decl.Replayed() != imp.Replayed() ||
		decl.Emitted() != imp.Emitted() {
		t.Fatalf("declarative (c=%d r=%d e=%d) diverged from imperative (c=%d r=%d e=%d)",
			decl.Completed(), decl.Replayed(), decl.Emitted(),
			imp.Completed(), imp.Replayed(), imp.Emitted())
	}
	if decl.Replayed() == 0 {
		t.Fatal("scheduled failure triggered no replays")
	}
}

func TestScheduleFailureValidation(t *testing.T) {
	s := faultSim(t, 0)
	if err := s.ScheduleFailure(99, 1_000, 500); err == nil {
		t.Fatal("invalid machine should fail")
	}
	if err := s.ScheduleFailure(0, 1_000, -1); err == nil {
		t.Fatal("negative outage should fail")
	}
	s.RunUntil(5_000)
	if err := s.ScheduleFailure(0, 1_000, 500); err == nil {
		t.Fatal("scheduling in the past should fail")
	}
}

func TestStepPrimitivesMatchRunUntil(t *testing.T) {
	// Driving the exported step primitives by hand must be
	// indistinguishable from RunUntil — they are the same loop decomposed.
	a := faultSim(t, 0)
	b := faultSim(t, 0)
	a.RunUntil(10_000)
	for b.HasPendingEvents() && b.PeekNextEventTime() <= 10_000 {
		b.ProcessNextEvent()
	}
	b.AdvanceTo(10_000)
	if a.Completed() != b.Completed() || a.Emitted() != b.Emitted() || a.Now() != b.Now() {
		t.Fatalf("primitives diverged: RunUntil (c=%d e=%d now=%v) manual (c=%d e=%d now=%v)",
			a.Completed(), a.Emitted(), a.Now(), b.Completed(), b.Emitted(), b.Now())
	}
	if got := a.AvgOverLastWindows(3) - b.AvgOverLastWindows(3); got != 0 {
		t.Fatalf("window metrics diverged by %v", got)
	}
}

func TestReplayLatencyMeasuredFromReplayEmission(t *testing.T) {
	// Replayed tuples must not poison the latency metric with the full
	// timeout span: stabilized average should stay far below the deadline.
	s := faultSim(t, 2_000)
	s.RunUntil(10_000)
	s.FailMachine(1, 3_000)
	s.RunUntil(60_000)
	avg := s.AvgOverLastWindows(5)
	if avg <= 0 || avg > 500 {
		t.Fatalf("post-recovery stabilized latency %v implausible", avg)
	}
}
