package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/parallel"
	"repro/internal/rl"
)

// HelloMsg opens a session: the scheduler announces its topology shape so
// the daemon can route it to (or create) the matching model. It is the
// only message the daemon reads before entering the measurement→solution
// loop. The definition moved to internal/core (next to the other wire
// messages and both framings' codecs); the alias keeps the serve package's
// public surface unchanged.
type HelloMsg = core.HelloMsg

// Config holds the daemon's knobs.
type Config struct {
	// MaxSessions caps concurrent scheduler sessions; connections beyond
	// the cap are told to retry and closed (admission control).
	MaxSessions int
	// QueueDepth bounds each model's pending-inference queue; a session
	// whose enqueue would block instead receives an explicit retry reply
	// (load shedding) so backpressure is visible to the scheduler rather
	// than silently queueing without bound.
	QueueDepth int
	// MaxBatch caps the micro-batch size (1 forces per-request inference).
	MaxBatch int
	// IdleTimeout bounds how long a session may sit between measurements
	// before the daemon reclaims the connection.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write.
	WriteTimeout time.Duration
	// MaxLineBytes bounds one wire frame in either framing (an NDJSON
	// line, or a binary frame's payload); longer frames are a protocol
	// error and close the session.
	MaxLineBytes int
	// AcceptShards is how many goroutines accept connections from the
	// listener in parallel. One accepting goroutine serializes the TCP
	// handshake tail (and the kernel wakes exactly one blocked acceptor
	// per connection, so there is no thundering herd); with thousands of
	// short-lived sessions the single acceptor becomes the admission
	// bottleneck. 0 takes GOMAXPROCS.
	AcceptShards int
	// K is the K-NN candidate count of the decision rule.
	K int
	// Seed seeds each model's randomly initialized networks.
	Seed int64
	// MaxExecutors/MaxMachines/MaxSpouts bound acceptable hello shapes, so
	// a bogus client cannot make the daemon allocate a gigantic model.
	MaxExecutors int
	MaxMachines  int
	MaxSpouts    int

	// SessionTTL bounds how long a detached session's resumable state is
	// kept before eviction; a client resuming after eviction gets a fresh
	// session under its old token.
	SessionTTL time.Duration
	// MaxTrackedSessions caps the resumption table (live + detached);
	// beyond it, expired then oldest-detached entries are evicted first
	// and, with every slot live, new sessions are shed with a retry.
	// Defaults to 4× MaxSessions.
	MaxTrackedSessions int

	// Learn enables online learning: sessions feed transitions into a
	// per-model sharded replay buffer and a trainer runs batched
	// actor-critic updates against a double-buffered weight set that the
	// inference path swaps in between micro-batches.
	Learn bool
	// TrainInterval is the background trainer's cadence; zero takes the
	// default (100ms). A negative value disables the background
	// goroutine; training then only happens through explicit TrainNow
	// calls — the deterministic mode the golden end-to-end harness
	// drives.
	TrainInterval time.Duration
	// TrainBatch is the mini-batch size H (default: the paper's 32).
	TrainBatch int
	// UpdatesPerRound is how many mini-batch updates one train round runs
	// before publishing weights (default 4).
	UpdatesPerRound int
	// ReplayPerSession caps each session's replay shard (default 256).
	ReplayPerSession int
	// Explore is the per-session ε-decay exploration schedule applied to
	// proto-actions while learning (zero value takes a conservative
	// serving default when Learn is set; ignored otherwise).
	Explore rl.EpsilonSchedule
	// CheckpointDir, when set with CheckpointEvery > 0, makes the daemon
	// periodically write each learning model's actor/critic weights there
	// (cmd/train checkpoint format, atomic rename).
	CheckpointDir   string
	CheckpointEvery time.Duration

	// DataDir, when set, makes the daemon crash-safe: session lifecycle,
	// distilled transitions and exploration/normalizer state are journaled
	// to a CRC-framed WAL under DataDir, compacted into atomic snapshots
	// (session table + replay shards + learned weights), and recovered on
	// the next start — a restarted daemon accepts the resumption tokens it
	// issued before dying and keeps its learned weights as of the last
	// snapshot. All journal writes are asynchronous; the serving and
	// training paths never block on fsync.
	DataDir string
	// FsyncInterval bounds how much acknowledged state a crash can lose
	// (default 100ms; negative = fsync every record).
	FsyncInterval time.Duration
	// SnapshotEvery is the WAL compaction cadence (default 1m). A final
	// snapshot is always written on orderly drain.
	SnapshotEvery time.Duration
	// WALBuffer is the async journal queue depth (default 8192 records);
	// records beyond it are dropped and counted, never blocked on.
	WALBuffer int
	// crashOnDrain (tests only) skips the final snapshot AND the journal
	// flush on shutdown, so in-process tests can exercise the same state a
	// SIGKILL would leave on disk.
	crashOnDrain bool

	// ReplListen, when set, serves WAL shipping on this address so
	// follower daemons can replicate (leaders and promoted followers
	// only; requires DataDir).
	ReplListen string
	// ReplicateFrom, when set, runs the daemon as a replica of the leader
	// shipping on that address: it tails the leader's WAL into a warm
	// session table and a byte-exact mirror under DataDir, sheds every
	// session connection with a retry, and serves only after Promote()
	// (the /promote endpoint). Requires DataDir.
	ReplicateFrom string
}

// DefaultConfig returns production defaults.
func DefaultConfig() Config {
	return Config{
		MaxSessions:  4096,
		QueueDepth:   1024,
		MaxBatch:     64,
		IdleTimeout:  2 * time.Minute,
		WriteTimeout: 10 * time.Second,
		MaxLineBytes: 1 << 20,
		K:            8,
		MaxExecutors: 512,
		MaxMachines:  128,
		MaxSpouts:    64,

		SessionTTL:       10 * time.Minute,
		TrainInterval:    100 * time.Millisecond,
		TrainBatch:       32,
		UpdatesPerRound:  4,
		ReplayPerSession: 256,
		FsyncInterval:    100 * time.Millisecond,
		SnapshotEvery:    time.Minute,
		WALBuffer:        8192,
		// Serving exploration is deliberately tamer than offline training:
		// live sessions pay for every exploratory deployment.
		Explore: rl.EpsilonSchedule{Start: 0.3, End: 0.02, Decay: 300, Kind: rl.ExpDecay},
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxSessions <= 0 {
		c.MaxSessions = d.MaxSessions
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = d.IdleTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = d.MaxLineBytes
	}
	if c.AcceptShards <= 0 {
		c.AcceptShards = runtime.GOMAXPROCS(0)
	}
	if c.K <= 0 {
		c.K = d.K
	}
	if c.MaxExecutors <= 0 {
		c.MaxExecutors = d.MaxExecutors
	}
	if c.MaxMachines <= 0 {
		c.MaxMachines = d.MaxMachines
	}
	if c.MaxSpouts <= 0 {
		c.MaxSpouts = d.MaxSpouts
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = d.SessionTTL
	}
	if c.MaxTrackedSessions <= 0 {
		c.MaxTrackedSessions = 4 * c.MaxSessions
	}
	if c.TrainInterval == 0 {
		c.TrainInterval = d.TrainInterval
	}
	if c.TrainBatch <= 0 {
		c.TrainBatch = d.TrainBatch
	}
	if c.UpdatesPerRound <= 0 {
		c.UpdatesPerRound = d.UpdatesPerRound
	}
	if c.ReplayPerSession <= 0 {
		c.ReplayPerSession = d.ReplayPerSession
	}
	if c.Learn && c.Explore == (rl.EpsilonSchedule{}) {
		c.Explore = d.Explore
	}
	if c.FsyncInterval == 0 {
		c.FsyncInterval = d.FsyncInterval
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = d.SnapshotEvery
	}
	if c.WALBuffer <= 0 {
		c.WALBuffer = d.WALBuffer
	}
	return c
}

// modelKey identifies a model by topology shape; sessions with the same
// shape share one model and therefore one inference batch stream.
type modelKey struct{ n, m, spouts int }

// Server is the multi-tenant agent daemon: a session manager over a
// net.Listener plus one inference batcher (and, when learning, one
// trainer) per topology shape.
type Server struct {
	cfg Config
	reg *Registry

	started time.Time
	active  atomic.Int64 // current sessions (admission control)

	sessions *sessionTable

	// trainSem bounds concurrent per-model train rounds so background
	// training never oversubscribes the cores the inference batch loops
	// run on.
	trainSem *parallel.Sem
	// gemmSem is the pool that large per-model GEMMs (inference
	// micro-batches, training passes) shard their row bands across: one
	// worker per GOMAXPROCS. Sharding is bitwise invariant, so the pool
	// size trades only latency; set GOMAXPROCS to use fewer cores.
	gemmSem *parallel.Sem

	mu     sync.Mutex
	models map[modelKey]*model

	// snapSums records, per model key ("NxM/S"), the actor/critic weight
	// checksums of the last snapshot this node captured (leader) or
	// applied (follower, restart recovery). /checksums exposes it so an
	// external harness can assert bitwise convergence across a group: a
	// follower at lag zero must report exactly the sums of the leader's
	// last snapshot barrier. Guarded by mu.
	snapSums map[string][2]uint64

	// dur, when non-nil, is the open durability log (Config.DataDir); the
	// journaling hooks and the snapshot/recovery paths live in persist.go.
	// On a replica it stays nil until Promote opens the mirror.
	dur *durable.Log

	// repl is the follower machinery (replica mode only); promoting
	// latches the one allowed Promote call per role epoch (Rejoin resets
	// it when the node re-enters the group as a follower).
	repl      *replicaState
	promoting atomic.Bool

	// replicating is true while the node is an unpromoted follower: set
	// at construction for ReplicateFrom daemons, cleared by Promote, set
	// again by Rejoin. serving() is !demoted && !replicating.
	replicating atomic.Bool

	// demoted fences a deposed leader (Demote): accepted connections are
	// shed and the live ones severed, so a stalled-but-alive node the
	// gateway failed over from cannot keep mutating session state that
	// the promoted follower will never see.
	demoted atomic.Bool

	// connsMu/liveConns track accepted session connections so Demote can
	// sever them; entries live exactly as long as their handler goroutine.
	connsMu   sync.Mutex
	liveConns map[net.Conn]struct{}

	// run state, owned by Serve. ctx is the "batch loops live" context —
	// models auto-start batch loops only once it is set. A follower sets
	// it too (read-only sessions are served from continuously-warm
	// weights), so on every role it equals roleCtx once the role is up.
	// ctxRun is set for the whole Serve call so role transitions can
	// derive fresh role epochs under it.
	ctx    context.Context
	ctxRun context.Context
	wg     sync.WaitGroup

	// Role epoch: everything a role transition must tear down — batch
	// loops, background loops, the ship server, the tailer — runs under
	// roleCtx and registers on roleWG (in addition to wg). Promote is an
	// in-place upgrade (loops keep running); only Rejoin ends an epoch:
	// cancel roleCancel, wait roleWG, start the next epoch as a follower.
	// roleMu serializes role transitions; the context fields are guarded
	// by mu (readers) and only rewritten under roleMu.
	roleMu     sync.Mutex
	roleCtx    context.Context
	roleCancel context.CancelFunc
	roleWG     *sync.WaitGroup

	// metric handles (hot path: no map lookups)
	mSessions     *Gauge
	mSessionsPeak *Gauge
	mAccepted     *Counter
	mRejected     *Counter
	mRequests     *Counter
	mShed         *Counter
	mProtoErrs    *Counter
	mDeployErrs   *Counter
	mBatches      *Counter
	mBatchedReqs  *Counter
	mLatency      *Histogram
	mInference    *Histogram
	mResumed      *Counter
	mResumeRej    *Counter
	mStaleMeas    *Counter
	mTransitions  *Counter
	mTrainUpdates *Counter
	mPublished    *Counter
	mSwaps        *Counter
	mCheckpoints  *Counter
	mCkptErrs     *Counter
	mTrainLatency *Histogram
	mGemmShards   *Counter
	mSnapErrs     *Counter
	mRecSessions  *Gauge
	mRecModels    *Gauge
	mRecoveryMS   *Gauge
	mReplLag      *Gauge
	mPromotions   *Counter
	mPromoteRej   *Counter
	mDemotions    *Counter
	mRole         *Gauge
	mBinSessions  *Counter
	mNDJSessions  *Counter
	mRejoins      *Counter
	mRejoinErrs   *Counter
	mROSessions   *Counter
	mROActive     *Gauge
	mGen          *Gauge

	// testGate, when non-nil, is received from before each micro-batch is
	// gathered — test-only hook to hold the batcher and force queue
	// buildup deterministically.
	testGate chan struct{}
}

// New builds a Server with zero Config fields defaulted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := NewRegistry()
	s := &Server{
		cfg:           cfg,
		reg:           reg,
		started:       time.Now(),
		trainSem:      parallel.NewSem(runtime.GOMAXPROCS(0) - 1),
		gemmSem:       parallel.NewSem(runtime.GOMAXPROCS(0) - 1),
		models:        map[modelKey]*model{},
		snapSums:      map[string][2]uint64{},
		liveConns:     map[net.Conn]struct{}{},
		mSessions:     reg.Gauge("serve_sessions"),
		mSessionsPeak: reg.Gauge("serve_sessions_peak"),
		mAccepted:     reg.Counter("serve_sessions_accepted_total"),
		mRejected:     reg.Counter("serve_sessions_rejected_total"),
		mRequests:     reg.Counter("serve_requests_total"),
		mShed:         reg.Counter("serve_requests_shed_total"),
		mProtoErrs:    reg.Counter("serve_protocol_errors_total"),
		mDeployErrs:   reg.Counter("serve_deploy_errors_total"),
		mBatches:      reg.Counter("serve_inference_batches_total"),
		mBatchedReqs:  reg.Counter("serve_inference_requests_total"),
		mLatency:      reg.Histogram("serve_request_latency"),
		mInference:    reg.Histogram("serve_inference_batch_latency"),
		mResumed:      reg.Counter("serve_sessions_resumed_total"),
		mResumeRej:    reg.Counter("serve_resume_rejected_total"),
		mStaleMeas:    reg.Counter("serve_stale_measurements_total"),
		mTransitions:  reg.Counter("serve_transitions_total"),
		mTrainUpdates: reg.Counter("serve_train_updates_total"),
		mPublished:    reg.Counter("serve_weights_published_total"),
		mSwaps:        reg.Counter("serve_weight_swaps_total"),
		mCheckpoints:  reg.Counter("serve_checkpoints_total"),
		mCkptErrs:     reg.Counter("serve_checkpoint_errors_total"),
		mTrainLatency: reg.Histogram("serve_train_round_latency"),
		mGemmShards:   reg.Counter("serve_gemm_shards_total"),
		mSnapErrs:     reg.Counter("serve_snapshot_errors_total"),
		mRecSessions:  reg.Gauge("serve_recovered_sessions"),
		mRecModels:    reg.Gauge("serve_recovered_models"),
		mRecoveryMS:   reg.Gauge("serve_recovery_ms"),
		mReplLag:      reg.Gauge("serve_repl_lag_records"),
		mPromotions:   reg.Counter("serve_promotions_total"),
		mPromoteRej:   reg.Counter("serve_promotions_rejected_total"),
		mDemotions:    reg.Counter("serve_demotions_total"),
		mRole:         reg.Gauge("serve_role"),
		mBinSessions:  reg.Counter("serve_sessions_binary_total"),
		mNDJSessions:  reg.Counter("serve_sessions_ndjson_total"),
		mRejoins:      reg.Counter("serve_rejoins_total"),
		mRejoinErrs:   reg.Counter("serve_rejoin_errors_total"),
		mROSessions:   reg.Counter("serve_readonly_sessions_total"),
		mROActive:     reg.Gauge("serve_readonly_active"),
		mGen:          reg.Gauge("serve_repl_generation"),
	}
	if cfg.ReplicateFrom == "" {
		s.mRole.Set(1) // leader; a replica moves 0→1 at promotion
	} else {
		s.replicating.Store(true)
	}
	s.sessions = newSessionTable(cfg.SessionTTL, cfg.MaxTrackedSessions, cfg.Seed, nil)
	reg.Gauge("serve_accept_shards").Set(int64(cfg.AcceptShards))
	reg.Gauge("serve_session_shards").Set(int64(len(s.sessions.shards)))
	s.sessions.onEvict = func(st *sessionState, gen uint64) {
		s.mu.Lock()
		mdl := s.models[st.key]
		s.mu.Unlock()
		if mdl != nil && mdl.learner != nil {
			mdl.learner.dropShard(st.token)
		}
		if s.dur != nil {
			// Tombstone the eviction so recovery does not resurrect the
			// session (evicted state is only dropped by replay when the
			// tombstone postdates it). A tombstone lost to backpressure is
			// not a bounded data loss but a permanent resurrection bug, so
			// unlike epoch records it blocks until the buffer has room —
			// safe here because onEvict runs outside the table lock.
			s.dur.AppendBlocking(&durable.Record{
				T:     durable.RecEvict,
				Token: st.token,
				Key:   durable.SessionKey{N: st.key.n, M: st.key.m, Spouts: st.key.spouts},
				Gen:   gen,
			})
		}
	}
	return s
}

// Preload creates (or returns) the model for a topology shape before any
// session arrives, so trained weights can be installed on its policy. It
// must be called before Serve: once the server is running, the model's
// batch loop reads the policy's networks concurrently, so a late
// SetNetworks would race — Preload refuses rather than hand out a policy
// it is no longer safe to mutate.
func (s *Server) Preload(n, m, spouts int) (*Policy, error) {
	if err := s.validShape(n, m, spouts); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx != nil {
		return nil, errors.New("serve: Preload after Serve started")
	}
	key := modelKey{n, m, spouts}
	mdl, ok := s.models[key]
	if !ok {
		mdl = newModel(s, key)
		s.models[key] = mdl
		s.reg.Gauge("serve_models").Set(int64(len(s.models)))
	}
	return mdl.pol, nil
}

func (s *Server) validShape(n, m, spouts int) error {
	switch {
	case n < 1 || n > s.cfg.MaxExecutors:
		return fmt.Errorf("executors %d out of range [1,%d]", n, s.cfg.MaxExecutors)
	case m < 1 || m > s.cfg.MaxMachines:
		return fmt.Errorf("machines %d out of range [1,%d]", m, s.cfg.MaxMachines)
	case spouts < 1 || spouts > s.cfg.MaxSpouts:
		return fmt.Errorf("spouts %d out of range [1,%d]", spouts, s.cfg.MaxSpouts)
	}
	return nil
}

// model returns the model for key, creating (and, once Serve is running,
// starting) it on first use.
func (s *Server) model(key modelKey) *model {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[key]
	if !ok {
		m = newModel(s, key)
		s.models[key] = m
		s.reg.Gauge("serve_models").Set(int64(len(s.models)))
		if s.ctx != nil {
			m.start()
		}
	}
	return m
}

// Serve accepts scheduler sessions on l until the listener closes or ctx
// is cancelled, serving every session concurrently. Temporary accept
// errors back off and retry. On return all sessions and batch loops have
// drained.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	isReplica := s.cfg.ReplicateFrom != ""
	// Durability first: recovery creates models and session state, which
	// must exist (with their restored weights installed) before any batch
	// loop starts or any connection lands. A replica defers this to
	// Promote — until then the data dir is the tailer's mirror.
	if !isReplica && s.cfg.DataDir != "" && s.dur == nil {
		if err := s.openDurable(); err != nil {
			return err
		}
	}
	// The final snapshot must run after every session goroutine has
	// drained (deferred before wg.Wait so it executes after it); it turns
	// an orderly shutdown into a recovery that loses nothing. s.dur is
	// read under the lock because promotion installs it concurrently.
	defer func() {
		s.mu.Lock()
		dur := s.dur
		s.mu.Unlock()
		if dur == nil {
			return
		}
		if s.cfg.crashOnDrain {
			dur.Crash()
			return
		}
		if err := s.SnapshotNow(); err != nil {
			s.mSnapErrs.Inc()
			log.Printf("serve: final snapshot: %v", err)
		}
		if err := dur.Close(); err != nil {
			log.Printf("serve: closing durability log: %v", err)
		}
	}()

	sctx, cancel := context.WithCancel(ctx)
	// First role epoch: leader or follower, everything role-scoped runs
	// under roleCtx so a later Rejoin can tear it down without ending
	// Serve (sessions and accept loops live under sctx).
	roleCtx, roleCancel := context.WithCancel(sctx)
	s.mu.Lock()
	s.ctxRun = sctx
	s.roleCtx = roleCtx
	s.roleCancel = roleCancel
	s.roleWG = &sync.WaitGroup{}
	s.mu.Unlock()
	if isReplica {
		if err := s.startReplica(roleCtx); err != nil {
			cancel()
			return err
		}
	} else if err := s.activate(roleCtx); err != nil {
		cancel()
		s.wg.Wait()
		return err
	}
	defer s.wg.Wait()
	defer cancel()

	// Close the listener when ctx ends so Accept unblocks.
	stop := context.AfterFunc(sctx, func() { l.Close() })
	defer stop()

	// Per-core accept sharding: AcceptShards goroutines block in Accept on
	// the shared listener, so connection admission (handshake tail, session
	// goroutine spawn, admission check) runs in parallel instead of
	// serializing on one acceptor. A fatal accept error on any shard closes
	// the listener, which unblocks the siblings; the first such error is
	// the Serve result, exactly as with one acceptor.
	shards := s.cfg.AcceptShards
	errc := make(chan error, shards)
	for i := 0; i < shards; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			err := s.acceptLoop(sctx, l)
			if err != nil {
				l.Close()
			}
			errc <- err
		}()
	}
	var first error
	for i := 0; i < shards; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// acceptLoop is one accept shard: accept, spawn the session goroutine,
// repeat. Returns nil on orderly shutdown (context cancelled or listener
// closed), the fatal accept error otherwise.
func (s *Server) acceptLoop(sctx context.Context, l net.Listener) error {
	for {
		conn, err := core.AcceptRetry(l)
		if err != nil {
			if sctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.trackConn(conn)
			defer s.untrackConn(conn)
			// Serving-state gating happens inside handleConn, after the
			// hello: a follower sheds full sessions but accepts read-only
			// ones (follower reads), and only the hello says which is which.
			s.handleConn(sctx, conn)
		}()
	}
}

// activate turns the server live: batch loops for every existing model,
// the background janitor/snapshot/train/checkpoint loops, and — with
// ReplListen set — the WAL shipping server for followers. Runs at Serve
// start on a leader, at Promote on a replica. On a follower serving
// read-only sessions the batch loops are already running (m.start is
// idempotent); activate then only adds the leader-side loops.
func (s *Server) activate(sctx context.Context) error {
	s.mu.Lock()
	s.ctx = sctx
	for _, m := range s.models {
		m.start() // models preloaded before Serve (or recovered/replicated)
	}
	s.mu.Unlock()
	if s.cfg.SessionTTL > 0 {
		s.goLoop(sctx, s.cfg.SessionTTL/2, func() { s.sessions.sweep() })
	}
	if s.dur != nil && s.cfg.SnapshotEvery > 0 {
		s.goLoop(sctx, s.cfg.SnapshotEvery, func() {
			if err := s.SnapshotNow(); err != nil {
				// Keep serving — but a failing compaction means unbounded
				// WAL growth and stale recovered weights, so it must be
				// visible to operators, not just logged.
				s.mSnapErrs.Inc()
				log.Printf("serve: periodic snapshot to %s: %v", s.cfg.DataDir, err)
			}
		})
	}
	if s.cfg.Learn && s.cfg.TrainInterval > 0 {
		s.goLoop(sctx, s.cfg.TrainInterval, func() { s.TrainNow() })
	}
	if s.cfg.Learn && s.cfg.CheckpointDir != "" && s.cfg.CheckpointEvery > 0 {
		s.goLoop(sctx, s.cfg.CheckpointEvery, func() {
			if err := s.Checkpoint(s.cfg.CheckpointDir); err != nil {
				// Keep serving, but never fail to persist silently.
				log.Printf("serve: periodic checkpoint to %s: %v", s.cfg.CheckpointDir, err)
			}
		})
	}
	if s.cfg.ReplListen != "" && s.dur != nil {
		if err := s.startShipServer(sctx); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) trackConn(c net.Conn) {
	s.connsMu.Lock()
	s.liveConns[c] = struct{}{}
	s.connsMu.Unlock()
}

func (s *Server) untrackConn(c net.Conn) {
	s.connsMu.Lock()
	delete(s.liveConns, c)
	s.connsMu.Unlock()
}

// Demote fences a deposed leader (the gateway's /demote call after a
// failover reaches a node that was stalled, not dead): stop accepting
// sessions — new connections shed with a retry — and sever the live ones,
// so their clients re-dial the gateway and land on the promoted node.
// Nothing on disk is destroyed; Rejoin (the gateway drives it via POST
// /rejoin) resets the node's state through the follower resync path and
// re-enters it as a tailing follower of the new leader — no operator. A
// demoted node refuses Promote, and Demote on a node that is not serving
// is an error unless it is already demoted (idempotent retries converge).
func (s *Server) Demote() error {
	if s.demoted.Load() {
		return nil
	}
	if !s.serving() {
		return errors.New("serve: demote: not a serving leader")
	}
	if !s.demoted.CompareAndSwap(false, true) {
		return nil
	}
	s.connsMu.Lock()
	n := len(s.liveConns)
	for c := range s.liveConns {
		c.Close()
	}
	s.connsMu.Unlock()
	s.mDemotions.Inc()
	s.mRole.Set(0)
	log.Printf("serve: demoted: fenced %d live sessions; shedding all traffic until operator rejoin", n)
	return nil
}

// goLoop runs fn every period under the server's run group AND the
// current role epoch's group until ctx ends (janitor, background
// trainer, checkpointer) — Rejoin waits for the role group, Serve's
// drain waits for the run group.
func (s *Server) goLoop(ctx context.Context, period time.Duration, fn func()) {
	s.mu.Lock()
	rwg := s.roleWG
	s.mu.Unlock()
	s.wg.Add(1)
	if rwg != nil {
		rwg.Add(1)
	}
	go func() {
		defer s.wg.Done()
		if rwg != nil {
			defer rwg.Done()
		}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-ctx.Done():
				return
			}
		}
	}()
}

// learningModels snapshots the models that have a trainer, in
// deterministic key order.
func (s *Server) learningModels() []*model {
	s.mu.Lock()
	models := make([]*model, 0, len(s.models))
	for _, m := range s.models {
		if m.learner != nil {
			models = append(models, m)
		}
	}
	s.mu.Unlock()
	sort.Slice(models, func(i, j int) bool {
		a, b := models[i].key, models[j].key
		if a.n != b.n {
			return a.n < b.n
		}
		if a.m != b.m {
			return a.m < b.m
		}
		return a.spouts < b.spouts
	})
	return models
}

// TrainNow runs one training round (UpdatesPerRound mini-batch updates
// followed by a weight publication) on every learning model, bounded by
// the shared training semaphore, and returns the total updates performed.
// The background trainer calls it on its interval; deterministic
// harnesses call it explicitly between lockstep epochs — each model's
// round depends only on its replay contents and trainer RNG state, so the
// outcome is schedule-independent either way.
func (s *Server) TrainNow() int {
	models := s.learningModels()
	if len(models) == 0 {
		return 0
	}
	var total atomic.Int64
	parallel.ForEachSem(context.Background(), s.trainSem, len(models), len(models), func(_ context.Context, i int) error {
		total.Add(int64(models[i].learner.trainRound(s.cfg.UpdatesPerRound)))
		return nil
	})
	return int(total.Load())
}

// Checkpoint writes every learning model's current actor/critic weights
// into dir (cmd/train format, atomic rename), returning the first error.
// Every per-model failure increments serve_checkpoint_errors_total — a
// periodic checkpoint that quietly stops persisting is silent durability
// loss, which operators must be able to alert on.
func (s *Server) Checkpoint(dir string) error {
	var first error
	for _, m := range s.learningModels() {
		if err := m.learner.checkpoint(dir); err != nil {
			s.mCkptErrs.Inc()
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// Handler returns the HTTP control surface: /metrics (text exposition),
// /healthz (JSON liveness with session/model counts), and the standard
// pprof endpoints under /debug/pprof/ (profiling a live daemon is how
// the WAL overhead numbers in PERFORMANCE.md §7 were attributed).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/heap", func(w http.ResponseWriter, r *http.Request) {
		pprof.Handler("heap").ServeHTTP(w, r)
	})
	mux.Handle("/metrics", s.reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		nModels := len(s.models)
		s.mu.Unlock()
		role := "leader"
		switch {
		case s.demoted.Load():
			role = "demoted"
		case !s.serving():
			role = "replica"
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":           "ok",
			"role":             role,
			"uptime_seconds":   time.Since(s.started).Seconds(),
			"sessions":         s.active.Load(),
			"models":           nModels,
			"repl_lag_records": s.mReplLag.Value(),
			"generation":       s.mGen.Value(),
		})
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		err := s.Promote()
		w.Header().Set("Content-Type", "application/json")
		if err != nil && !s.serving() {
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		// Success — or an idempotent re-promote of a node already serving
		// (the gateway retries promotion until the role flips).
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "leader"})
	})
	mux.HandleFunc("/demote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := s.Demote(); err != nil {
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "demoted"})
	})
	mux.HandleFunc("/rejoin", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		addr := r.FormValue("addr")
		if err := s.Rejoin(addr); err != nil {
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "rejoining", "addr": addr})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := s.SnapshotNow(); err != nil {
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "snapshotted"})
	})
	mux.HandleFunc("/checksums", func(w http.ResponseWriter, _ *http.Request) {
		// live: the trainer networks as they are right now (a leader's keep
		// moving while it trains; a follower's are frozen at the last
		// applied snapshot). snapshot: the sums recorded at the last
		// snapshot barrier this node captured or applied. A chaos harness
		// quiesces load, snapshots the leader, waits for follower lag zero,
		// then requires follower live == follower snapshot == leader
		// snapshot.
		s.mu.Lock()
		snapshot := make(map[string][2]string, len(s.snapSums))
		for k, sums := range s.snapSums {
			snapshot[k] = [2]string{fmt.Sprintf("%016x", sums[0]), fmt.Sprintf("%016x", sums[1])}
		}
		s.mu.Unlock()
		live := map[string][2]string{}
		for _, m := range s.learningModels() {
			a, c := m.learner.checksums()
			live[fmt.Sprintf("%dx%d/%d", m.key.n, m.key.m, m.key.spouts)] =
				[2]string{fmt.Sprintf("%016x", a), fmt.Sprintf("%016x", c)}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"live": live, "snapshot": snapshot})
	})
	mux.HandleFunc("/retarget", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		addr := r.FormValue("addr")
		if err := s.RetargetReplication(addr); err != nil {
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "retargeted", "addr": addr})
	})
	return mux
}
