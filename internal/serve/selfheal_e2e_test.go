package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// The self-healing harness: automatic rejoin of a deposed leader through
// the lagged-follower resync path, follower reads from continuously-warm
// replicated weights, and the retarget error surface the gateway's
// supervision loop leans on. The process-level version of this story —
// SIGKILL, SIGSTOP, torn TCP, an agentfleet gateway doing the healing —
// runs in CI as `loadgen -chaos`; these tests pin the serve-layer
// mechanics in isolation.

// replicaTailerAddr reports where the node's tailer currently points.
func replicaTailerAddr(s *Server) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repl == nil {
		return ""
	}
	return s.repl.tailer.Addr()
}

// modelChecksums fetches the live trainer checksums for the golden shape.
func modelChecksums(t testing.TB, s *Server) (uint64, uint64) {
	t.Helper()
	s.mu.Lock()
	mdl := s.models[modelKey{durN, durM, durSpouts}]
	s.mu.Unlock()
	if mdl == nil || mdl.learner == nil {
		t.Fatal("no learning model for the golden shape")
	}
	return mdl.learner.checksums()
}

// replBarrier flushes the leader and waits until the follower applied
// every flushed record.
func replBarrier(t testing.TB, leader, follower *Server) {
	t.Helper()
	if err := leader.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	recs := leader.dur.FlushedPos().Recs
	waitCond(t, fmt.Sprintf("follower to apply %d records", recs), func() bool {
		tl := followerTailer(follower)
		return tl != nil && tl.AppliedRecs() >= recs
	})
}

// TestRejoinGolden is the serve-level self-healing acceptance run:
//
//  1. Leader A learns under sessions while shipping to follower B; A
//     dies without flushing and B is promoted — every token resumes.
//  2. A restarts from its stale data dir as a stray serving leader (what
//     an init system produces), is demoted and REJOINED as a tailing
//     follower of B: state wiped, resynced from B's reset snapshot under
//     B's higher generation, weights bitwise B's snapshot barrier.
//  3. B dies; the rejoined A is promoted — the second failover lands on
//     the node that was deposed in the first — and every token resumes
//     again, at a generation that only ever moved forward.
func TestRejoinGolden(t *testing.T) {
	replA, replB := pickAddr(t), pickAddr(t)
	dirA, dirB := t.TempDir(), t.TempDir()

	cfgA := durableConfig(dirA, true)
	cfgA.ReplListen = replA
	sA, addrA, crashA := startDurable(t, cfgA)

	cfgB := durableConfig(dirB, true)
	cfgB.ReplListen = replB
	cfgB.ReplicateFrom = replA
	sB, addrB, crashB := startDurable(t, cfgB)

	// ---- Phase 1: learn on A, ship to B, crash A, promote B.
	clients := dialDurable(t, addrA, durSessions, false)
	envs := make([]*goldenEnv, durSessions)
	for i := range envs {
		envs[i] = newGoldenEnv(1000+int64(i), durM, durSpouts)
	}
	var streams strings.Builder
	for epoch := 1; epoch <= 20; epoch++ {
		stepAll(t, sA, clients, envs, &streams, epoch)
		if epoch == 10 {
			if err := sA.SnapshotNow(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
		}
	}
	replBarrier(t, sA, sB)
	crashA()
	if err := sB.Promote(); err != nil {
		t.Fatalf("promote B: %v", err)
	}
	genB := sB.mGen.Value()
	clients = dialDurable(t, addrB, durSessions, true)
	for epoch := 21; epoch <= 25; epoch++ {
		stepAll(t, sB, clients, envs, &streams, epoch)
	}

	// ---- Phase 2: A restarts as a stray leader and is healed in.
	cfgA2 := durableConfig(dirA, true)
	cfgA2.ReplListen = replA
	sA2, addrA2, crashA2 := startDurable(t, cfgA2)
	// Prove the stray-leader premise — and synchronize on A2 actually being
	// up (startDurable returns mid-recovery): it accepts a full session and
	// resumes the token from its STALE WAL, exactly the split-brain hazard
	// the gateway's heal sequence exists to close.
	stray := NewSession(ClientConfig{
		Addr:  addrA2,
		Hello: HelloMsg{Topology: "durable", N: durN, M: durM, Spouts: durSpouts, Token: "d0"},
	})
	if err := stray.Connect(context.Background()); err != nil {
		t.Fatalf("stray A2 refused a session: %v", err)
	}
	if !stray.Resumed() {
		t.Fatal("stray A2 did not resume from its stale WAL")
	}
	stray.Close()
	if !sA2.serving() {
		t.Fatal("restarted A is not serving — the stray-leader premise is gone")
	}
	// The gateway's heal sequence, verbatim: demote, then rejoin at B.
	if err := sA2.Demote(); err != nil {
		t.Fatalf("demote stray A: %v", err)
	}
	if err := sA2.Rejoin(replB); err != nil {
		t.Fatalf("rejoin A at B: %v", err)
	}
	if sA2.serving() {
		t.Fatal("rejoined A still serving")
	}
	if !sA2.replicating.Load() {
		t.Fatal("rejoined A not replicating")
	}

	// New acknowledged work on B must reach the rejoined A; the snapshot
	// barrier must propagate B's weights bitwise.
	for epoch := 26; epoch <= 30; epoch++ {
		stepAll(t, sB, clients, envs, &streams, epoch)
	}
	// Snapshots-applied count before the barrier snapshot. Rejoin returns
	// before its resync lands, so first wait for the reset snapshot: counted
	// late, it would pass for the barrier's below.
	waitCond(t, "rejoined A to apply the reset snapshot", func() bool {
		return sA2.reg.Counter("serve_repl_snapshots_applied_total").Value() >= 1
	})
	snapsBefore := sA2.reg.Counter("serve_repl_snapshots_applied_total").Value()
	if err := sB.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	replBarrier(t, sB, sA2)
	// The record barrier above is not enough here: A2 may have tailed all
	// of B's records live, leaving nothing to apply, while the snapshot
	// frame — which is what installs B's weights into A2's learner — is
	// still in flight. Wait for it to land before comparing.
	waitCond(t, "rejoined A to apply the barrier snapshot", func() bool {
		return sA2.reg.Counter("serve_repl_snapshots_applied_total").Value() > snapsBefore
	})
	bActor, bCritic := modelChecksums(t, sB)
	aActor, aCritic := modelChecksums(t, sA2)
	if aActor != bActor || aCritic != bCritic {
		t.Fatalf("rejoined A's weights diverged: %016x/%016x vs B's %016x/%016x",
			aActor, aCritic, bActor, bCritic)
	}
	if got := sA2.mGen.Value(); got != genB {
		t.Fatalf("rejoined A at generation %d, leader at %d", got, genB)
	}

	// ---- Phase 3: B dies; the rejoined A takes over. Full circle.
	for i := range clients {
		clients[i].Close()
	}
	crashB()
	if err := sA2.Promote(); err != nil {
		t.Fatalf("promote rejoined A: %v", err)
	}
	if got := sA2.mGen.Value(); got <= genB {
		t.Fatalf("generation did not advance on second failover: %d after %d", got, genB)
	}
	clients = dialDurable(t, addrA2, durSessions, true)
	for epoch := 31; epoch <= 35; epoch++ {
		stepAll(t, sA2, clients, envs, &streams, epoch)
	}
	for i := range clients {
		clients[i].Close()
	}
	crashA2()
}

// TestRejoinRefusalsAndRetarget pins the rejoin state machine's edges:
// a serving leader refuses (demote first), an empty address refuses, and
// on a node already tailing undemoted Rejoin degenerates to an
// idempotent retarget instead of a state wipe.
func TestRejoinRefusalsAndRetarget(t *testing.T) {
	replA := pickAddr(t)
	cfgA := durableConfig(t.TempDir(), false)
	cfgA.ReplListen = replA
	sA, _, downA := startDurable(t, cfgA)
	defer downA()

	if err := sA.Rejoin(pickAddr(t)); err == nil || !strings.Contains(err.Error(), "demote first") {
		t.Fatalf("serving leader rejoin: %v, want demote-first refusal", err)
	}
	if err := sA.Rejoin(""); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty-address rejoin: %v, want refusal", err)
	}

	cfgB := durableConfig(t.TempDir(), false)
	cfgB.ReplicateFrom = replA
	sB, _, downB := startDurable(t, cfgB)
	defer downB()
	waitCond(t, "follower tailing", func() bool { return followerTailer(sB) != nil })

	// Same address: a no-op, not a wipe.
	if err := sB.Rejoin(replA); err != nil {
		t.Fatalf("idempotent rejoin: %v", err)
	}
	if got := replicaTailerAddr(sB); got != replA {
		t.Fatalf("tailer points at %s after idempotent rejoin, want %s", got, replA)
	}
	// Different address: a retarget of the live tailer.
	other := pickAddr(t)
	if err := sB.Rejoin(other); err != nil {
		t.Fatalf("rejoin-as-retarget: %v", err)
	}
	if got := replicaTailerAddr(sB); got != other {
		t.Fatalf("tailer points at %s after rejoin-as-retarget, want %s", got, other)
	}
	if err := sB.RetargetReplication(replA); err != nil {
		t.Fatalf("retarget back: %v", err)
	}
}

// TestRetargetReplicationErrors drives RetargetReplication through its
// error surface and its recovery promise: a retarget at an unreachable
// address is not fatal — the tailer keeps retrying — and a later
// retarget back to a live leader resumes replication where it left off.
func TestRetargetReplicationErrors(t *testing.T) {
	replA := pickAddr(t)
	cfgA := durableConfig(t.TempDir(), false)
	cfgA.ReplListen = replA
	sA, addrA, downA := startDurable(t, cfgA)
	defer downA()

	if err := sA.RetargetReplication(pickAddr(t)); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("retarget on a leader: %v, want not-a-replica refusal", err)
	}

	cfgB := durableConfig(t.TempDir(), false)
	cfgB.ReplicateFrom = replA
	sB, _, downB := startDurable(t, cfgB)
	defer downB()
	waitCond(t, "follower tailing", func() bool { return followerTailer(sB) != nil })

	if err := sB.RetargetReplication(""); err == nil || !strings.Contains(err.Error(), "empty address") {
		t.Fatalf("empty retarget: %v, want refusal", err)
	}

	// An unreachable new leader: the retarget itself succeeds (the tailer
	// dials asynchronously, with backoff) — twice, idempotently.
	dead := pickAddr(t)
	if err := sB.RetargetReplication(dead); err != nil {
		t.Fatalf("retarget to unreachable: %v", err)
	}
	if err := sB.RetargetReplication(dead); err != nil {
		t.Fatalf("double retarget: %v", err)
	}

	// Acknowledged work lands on A while B points into the void…
	clients := dialDurable(t, addrA, 1, false)
	envs := []*goldenEnv{newGoldenEnv(7, durM, durSpouts)}
	var streams strings.Builder
	for epoch := 1; epoch <= 5; epoch++ {
		stepAll(t, sA, clients, envs, &streams, epoch)
	}
	// …and arrives once B is pointed home again.
	if err := sB.RetargetReplication(replA); err != nil {
		t.Fatalf("retarget back to live leader: %v", err)
	}
	replBarrier(t, sA, sB)
	clients[0].Close()

	// A retarget racing a promotion loses: once promoting, the node is no
	// longer anyone's follower.
	if err := sB.Promote(); err != nil {
		t.Fatalf("promote B: %v", err)
	}
	if err := sB.RetargetReplication(replA); err == nil || !strings.Contains(err.Error(), "already promoted") {
		t.Fatalf("retarget after promote: %v, want already-promoted refusal", err)
	}
}

// TestFollowerReads pins the follower-read contract: an unpromoted
// follower sheds full sessions but answers ReadOnly hellos from its
// continuously-warm replicated weights — including a warm start seeded
// from a replicated session token — and never issues resumption state.
func TestFollowerReads(t *testing.T) {
	replA := pickAddr(t)
	cfgA := durableConfig(t.TempDir(), false)
	cfgA.ReplListen = replA
	sA, addrA, downA := startDurable(t, cfgA)
	defer downA()
	cfgB := durableConfig(t.TempDir(), false)
	cfgB.ReplicateFrom = replA
	sB, addrB, downB := startDurable(t, cfgB)
	defer downB()

	// A full session learns on the leader; its state replicates to B.
	clients := dialDurable(t, addrA, 1, false) // token "d0"
	envs := []*goldenEnv{newGoldenEnv(42, durM, durSpouts)}
	var streams strings.Builder
	for epoch := 1; epoch <= 8; epoch++ {
		stepAll(t, sA, clients, envs, &streams, epoch)
	}
	replBarrier(t, sA, sB)

	ctx := context.Background()
	hello := HelloMsg{Topology: "ro", N: durN, M: durM, Spouts: durSpouts}

	// Full sessions are shed by the unpromoted follower.
	full := NewSession(ClientConfig{Addr: addrB, Hello: hello, MaxAttempts: 1})
	if err := full.Connect(ctx); err == nil {
		full.Close()
		t.Fatal("full session connected to an unpromoted follower")
	}

	// A cold read-only session is served — and gets no token back:
	// there is nothing resumable to come back to.
	roHello := hello
	roHello.ReadOnly = true
	ro := NewSession(ClientConfig{Addr: addrB, Hello: roHello})
	if err := ro.Connect(ctx); err != nil {
		t.Fatalf("read-only connect to follower: %v", err)
	}
	defer ro.Close()
	if ro.Resumed() {
		t.Fatal("cold read-only session claims a warm start")
	}
	if ro.Token() != "" {
		t.Fatalf("read-only session was issued token %q", ro.Token())
	}
	meas, _ := envs[0].measure(ro.Assign())
	assign, err := ro.Step(ctx, meas)
	if err != nil {
		t.Fatalf("read-only step on follower: %v", err)
	}
	if len(assign) != durN {
		t.Fatalf("read-only step returned %d assignments, want %d", len(assign), durN)
	}

	// A read-only hello presenting the leader session's token warm-starts
	// from the replicated state: same current assignment, flagged resumed.
	warmHello := roHello
	warmHello.Token = "d0"
	warm := NewSession(ClientConfig{Addr: addrB, Hello: warmHello})
	if err := warm.Connect(ctx); err != nil {
		t.Fatalf("warm read-only connect: %v", err)
	}
	defer warm.Close()
	if !warm.Resumed() {
		t.Fatal("warm read-only session did not seed from the replicated token")
	}
	if got, want := fmt.Sprint(warm.Assign()), fmt.Sprint(clients[0].Assign()); got != want {
		t.Fatalf("warm read-only assignment %s, leader session's %s", got, want)
	}
	if _, err := warm.Step(ctx, meas); err != nil {
		t.Fatalf("warm read-only step: %v", err)
	}

	// An unknown token is a cold start, never an error — the same
	// degradation rule as resumption after TTL eviction.
	staleHello := roHello
	staleHello.Token = "never-issued"
	stale := NewSession(ClientConfig{Addr: addrB, Hello: staleHello})
	if err := stale.Connect(ctx); err != nil {
		t.Fatalf("unknown-token read-only connect: %v", err)
	}
	defer stale.Close()
	if stale.Resumed() {
		t.Fatal("unknown token produced a warm start")
	}
	clients[0].Close()
}

// BenchmarkFollowerReadStep measures the follower-read serving path: one
// inference-only session stepping against an undemoted replica whose
// weights are continuously warm from the leader's ship stream. This is
// the per-request cost a gateway-routed read-only client sees (minus the
// gateway splice), dominated by one policy forward pass plus the batch
// window.
func BenchmarkFollowerReadStep(b *testing.B) {
	replA := pickAddr(b)
	cfgA := durableConfig(b.TempDir(), false)
	cfgA.ReplListen = replA
	sA, addrA, downA := startDurable(b, cfgA)
	defer downA()

	cfgB := durableConfig(b.TempDir(), false)
	cfgB.ReplicateFrom = replA
	sB, addrB, downB := startDurable(b, cfgB)
	defer downB()

	// Create the model on the leader and ship a few learned epochs so the
	// follower serves real replicated weights, not a cold init.
	clients := dialDurable(b, addrA, 1, false)
	envs := []*goldenEnv{newGoldenEnv(1, durM, durSpouts)}
	var streams strings.Builder
	for epoch := 1; epoch <= 4; epoch++ {
		stepAll(b, sA, clients, envs, &streams, epoch)
	}
	replBarrier(b, sA, sB)

	ro := NewSession(ClientConfig{
		Addr:  addrB,
		Hello: HelloMsg{Topology: "durable", N: durN, M: durM, Spouts: durSpouts, ReadOnly: true},
	})
	if err := ro.Connect(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer ro.Close()
	meas, _ := envs[0].measure(ro.Assign())

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ro.Step(context.Background(), meas); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	clients[0].Close()
}
