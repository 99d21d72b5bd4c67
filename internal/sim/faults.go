package sim

import "fmt"

// Fault-tolerance mechanics of §2.1: "if a message ID is marked failure due
// to acknowledgment timeout, data processing will be recovered by replaying
// the corresponding data source tuple", and "the master monitors heartbeat
// signals from all worker processes periodically [and] re-schedules them
// when it discovers a failure."
//
// The simulator reproduces both: an optional ack timeout that replays root
// tuples whose trees did not complete in time, and machine-failure
// injection that drops in-flight work on a machine until it recovers.

// EnableAckTimeout turns on tuple-replay fault tolerance: any root tuple
// not fully acked within timeoutMS of its (re-)emission is marked failed
// and re-emitted at its originating spout executor. Latency for a replayed
// tuple is measured from the replay emission, matching how Storm reports
// complete latency for re-played tuples. Must be called before Deploy.
func (s *Sim) EnableAckTimeout(timeoutMS float64) {
	s.ackTimeoutMS = timeoutMS
}

// Replayed returns the number of root-tuple replays triggered by ack
// timeouts or machine failures.
func (s *Sim) Replayed() int64 { return s.replays }

// FailMachine injects a machine failure at the current simulation time: the
// machine drops every queued and in-flight tuple (their ack trees will time
// out and replay if ack timeouts are enabled) and its executors stay down
// for downMS. This models a worker-process crash detected by the master's
// heartbeat monitoring.
func (s *Sim) FailMachine(machine int, downMS float64) {
	s.failMachine(machine, downMS)
}

// ScheduleFailure declares a machine failure ahead of time: at simulated
// time atMS the machine fails exactly as FailMachine would at that moment.
// This is what scenario specs use — faults become part of the seeded event
// schedule instead of requiring an imperative call between RunUntil
// chunks (which could only land on chunk boundaries). atMS must not be in
// the past.
func (s *Sim) ScheduleFailure(machine int, atMS, downMS float64) error {
	if machine < 0 || machine >= s.cl.Size() {
		return fmt.Errorf("sim: ScheduleFailure: invalid machine %d (cluster has %d)", machine, s.cl.Size())
	}
	if atMS < s.now {
		return fmt.Errorf("sim: ScheduleFailure: time %.0fms already passed (now %.0fms)", atMS, s.now)
	}
	if downMS < 0 {
		return fmt.Errorf("sim: ScheduleFailure: negative outage %.0fms", downMS)
	}
	// The event struct is reused unchanged: exec carries the machine index
	// and tup.emitMS the outage duration (see the evFail case in step).
	s.push(event{t: atMS, kind: evFail, exec: int32(machine), tup: tupleRef{emitMS: downMS}})
	return nil
}

// failMachine is the shared implementation behind FailMachine and evFail:
// mark the machine down until now+downMS, orphan this topology's queued
// tuples on it, and pause its executors. In-flight services are handled at
// their evFinish (the failedUntil check there discards results produced on
// a machine that failed mid-service). Under shared ClusterState the
// failedUntil write is idempotent across co-resident topologies — each
// schedules the same failure and orphans its own tuples.
func (s *Sim) failMachine(machine int, downMS float64) {
	until := s.now + downMS
	if until > s.failedUntil[machine] {
		s.failedUntil[machine] = until
	}
	for i := range s.execs {
		e := &s.execs[i]
		if e.machine != machine {
			continue
		}
		// Queued tuples are lost; their trees can no longer complete.
		for i := 0; i < e.queue.len(); i++ {
			s.orphanTuple(*e.queue.at(i))
		}
		e.queue.reset()
		if until > e.pausedUntil {
			e.pausedUntil = until
		}
		s.push(event{t: until, kind: evResume, exec: int32(i)})
	}
}

// orphanTuple removes a tuple's contribution from its ack tree and marks
// the tree failed. With ack timeouts enabled the entry is kept so the
// deadline check replays the root; without them a fully-accounted failed
// tree is dropped.
func (s *Sim) orphanTuple(tup tupleRef) {
	ack := s.acks.get(tup.root)
	if ack == nil {
		return
	}
	ack.pending--
	ack.failed = true
	if ack.pending <= 0 && s.ackTimeoutMS <= 0 {
		s.freeAck(tup.root, ack)
		s.dropped++
	}
}

// checkAck handles an evAckCheck event: any root still outstanding (slow or
// failed) at its deadline is replayed at its spout executor; completed
// roots have already left the ack table.
func (s *Sim) checkAck(root int64, spoutExec, comp int) {
	ack := s.acks.get(root)
	if ack == nil {
		return // completed in time
	}
	s.freeAck(root, ack)
	s.replayRoot(spoutExec, comp)
}

// replayRoot re-emits a fresh root tuple at the spout executor.
func (s *Sim) replayRoot(spoutExec, comp int) {
	s.replays++
	root := s.nextRoot
	s.nextRoot++
	tup := tupleRef{root: root, comp: int32(comp), key: s.rng.Uint64(), emitMS: s.now}
	s.acks.put(root, s.newAck(s.now))
	if s.ackTimeoutMS > 0 {
		s.push(event{t: s.now + s.ackTimeoutMS, kind: evAckCheck, exec: int32(spoutExec), tup: tupleRef{root: root, comp: int32(comp)}})
	}
	s.execs[spoutExec].queue.pushBack(tup)
	s.tryStartService(spoutExec)
}

// Dropped returns roots lost to failures with ack timeouts disabled.
func (s *Sim) Dropped() int64 { return s.dropped }
