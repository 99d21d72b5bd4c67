package serve

import (
	"context"
	"log"
	"time"

	"repro/internal/mat"
	"repro/internal/nn"
)

// inferReq is one state→action request travelling from a session goroutine
// to its model's batch loop. The session owns state, noise and result; the
// batcher writes result and closes done, which publishes the write.
type inferReq struct {
	state []float64
	// noise, when non-nil, is the session's exploration perturbation
	// (ε·U[0,1) per element), added to the actor's proto-action before the
	// K-NN step. Drawn session-side from the session's own RNG so the
	// exploration stream is deterministic per session regardless of how
	// requests get batched.
	noise  []float64
	result []int
	// failed is set (before done closes) when the batch loop drained this
	// request on exit instead of serving it — a role transition tore the
	// loop down; the session sheds with a retry instead of using a result
	// that was never computed.
	failed bool
	done   chan struct{}
}

// model is one topology shape's serving state: the policy (networks +
// action space + scratch, confined to the batch loop goroutine), the
// bounded request queue that sessions feed, and — when learning — the
// trainer plus the double-buffered weight publication slots.
type model struct {
	srv   *Server
	key   modelKey
	pol   *Policy
	queue chan *inferReq

	// learner trains this model online; nil when the daemon is frozen.
	learner *modelLearner
	// running marks the batch loop as launched (guarded by srv.mu); start
	// is idempotent so a follower's loops survive promotion untouched.
	running bool
	// stopped closes when the batch loop exits, so sessions waiting on a
	// request that will never be served (role teardown) unblock.
	stopped chan struct{}
	// Weight publication is an explicit ownership transfer, so the
	// trainer can never write a pair the batch loop is reading: toServe
	// (cap 1) hands freshly published pairs to the loop — a pending pair
	// the loop has not picked up is reclaimed and replaced by the next
	// publish; returned (cap = ring size) hands pairs the loop has
	// stopped serving back to the trainer. A pair is therefore always
	// owned by exactly one side: the trainer (free list / being written),
	// in flight in a channel, or serving. Channel handoff provides the
	// happens-before edge for the weight writes.
	toServe  chan *netPair
	returned chan *netPair
	// serving is the ring pair currently installed in the policy (nil
	// while still on the initial networks); owned by the batch loop
	// goroutine.
	serving *netPair

	// gemmPool shards this model's inference GEMM row bands across the
	// server's shared pool; lastShards tracks the pool's counter so the
	// batch loop (its only reader) can publish per-batch deltas to the
	// serve_gemm_shards_total metric.
	gemmPool   *nn.Pool
	lastShards uint64

	// batch-loop scratch
	states *mat.Matrix
	reqs   []*inferReq
	outs   [][]int
	noises [][]float64
}

func newModel(s *Server, key modelKey) *model {
	m := &model{
		srv:      s,
		key:      key,
		pol:      NewPolicy(key.n, key.m, key.spouts, s.cfg.K, s.cfg.Seed+int64(key.n*1_000_003+key.m*1009+key.spouts)),
		queue:    make(chan *inferReq, s.cfg.QueueDepth),
		stopped:  make(chan struct{}),
		gemmPool: nn.NewPool(s.gemmSem),
		// The weight publication channels exist on every model, learner or
		// not: a follower's tailer installs replicated weights into running
		// batch loops through the same single-producer handoff the trainer
		// uses (see restoreModel).
		toServe:  make(chan *netPair, 1),
		returned: make(chan *netPair, pubRingSize),
	}
	m.pol.SetPool(m.gemmPool)
	return m
}

// start launches the batch loop (and builds the trainer) under the
// server's run context and current role epoch. It runs with the server
// lock held, after any Preload has installed checkpoint weights, so the
// trainer clones the weights actually being served. Idempotent: a loop
// started for follower reads keeps running across promotion.
func (m *model) start() {
	if m.running {
		return
	}
	m.running = true
	if err := m.ensureLearner(); err != nil {
		// Shapes come from the policy itself, so this is unreachable;
		// fail safe by serving frozen.
		log.Printf("serve: model %v: online learning disabled: %v", m.key, err)
	}
	ctx := m.srv.ctx
	rwg := m.srv.roleWG
	m.srv.wg.Add(1)
	if rwg != nil {
		rwg.Add(1)
	}
	go func() {
		defer m.srv.wg.Done()
		if rwg != nil {
			defer rwg.Done()
		}
		m.run(ctx)
	}()
}

// failPending drains requests enqueued after the batch loop's own exit
// drain (role teardown, loops already waited): each is completed as
// failed so its session sheds with a retry. Callers must know the loop
// is down — concurrent completion of the same request would double-close
// done.
func (m *model) failPending() {
	for {
		select {
		case r := <-m.queue:
			r.failed = true
			close(r.done)
		default:
			return
		}
	}
}

// ensureLearner builds the trainer if the server learns and this model
// does not have one yet — at start, or earlier during durability
// recovery (the recovered replay shards need a learner to live in before
// the batch loop exists).
func (m *model) ensureLearner() error {
	if !m.srv.cfg.Learn || m.learner != nil {
		return nil
	}
	l, err := newModelLearner(m, m.srv.cfg)
	if err != nil {
		return err
	}
	m.learner = l
	return nil
}

// installPublished swaps in the newest published weight pair, if a
// publisher (the trainer — or, on a follower, the tailer installing a
// shipped snapshot) has produced one since the last batch, and returns
// the pair it stops serving. The returned-send never blocks: on a frozen
// follower nothing drains the channel, and a full one just drops the
// pair (the learner's publish path self-heals a shrunken ring).
func (m *model) installPublished() {
	select {
	case p := <-m.toServe:
		if err := m.pol.SetNetworks(p.actor, p.critic); err != nil {
			// Unreachable (published pairs share the policy's architecture);
			// try to hand the pair back rather than leak a ring slot.
			log.Printf("serve: model %v: rejected published weights: %v", m.key, err)
			select {
			case m.returned <- p:
			default:
			}
			return
		}
		if m.serving != nil {
			select {
			case m.returned <- m.serving:
			default:
			}
		}
		m.serving = p
		m.srv.mSwaps.Inc()
	default:
	}
}

// run is the inference batch loop. It is work-conserving: block for the
// first pending request, take whatever else is already queued (up to
// MaxBatch) without waiting, then serve the whole micro-batch with one
// batched policy pass. Under load batches grow on their own, because
// requests queue while the previous pass runs; an idle server never holds
// a lone request back hoping for a partner.
func (m *model) run(ctx context.Context) {
	defer func() {
		// The loop is exiting (shutdown or role teardown): wake waiters,
		// then fail everything still queued so no session blocks on a
		// request nobody will serve. stopped closes first — a session that
		// races an enqueue past this drain selects on it and sheds.
		close(m.stopped)
		m.failPending()
	}()
	maxBatch := m.srv.cfg.MaxBatch
	for {
		if m.srv.testGate != nil {
			select {
			case <-m.srv.testGate:
			case <-ctx.Done():
				return
			}
		}
		var first *inferReq
		select {
		case first = <-m.queue:
		case <-ctx.Done():
			return
		}
		m.reqs = append(m.reqs[:0], first)
	gather:
		for len(m.reqs) < maxBatch {
			select {
			case r := <-m.queue:
				m.reqs = append(m.reqs, r)
			default:
				break gather
			}
		}
		m.serveBatch(m.reqs)
		if ctx.Err() != nil {
			return
		}
	}
}

// serveBatch runs one batched policy pass and completes every request.
func (m *model) serveBatch(reqs []*inferReq) {
	start := time.Now()
	m.installPublished()
	h := len(reqs)
	sdim := m.pol.StateDim()
	if m.states == nil {
		m.states = &mat.Matrix{}
	}
	m.states.Reshape(h, sdim)
	m.outs = m.outs[:0]
	m.noises = m.noises[:0]
	for i, r := range reqs {
		copy(m.states.Data[i*sdim:(i+1)*sdim], r.state)
		m.outs = append(m.outs, r.result)
		m.noises = append(m.noises, r.noise)
	}
	m.pol.SelectBatchExplore(m.states, m.noises, m.outs)
	for _, r := range reqs {
		close(r.done)
	}
	if cur := m.gemmPool.Shards.Load(); cur != m.lastShards {
		m.srv.mGemmShards.Add(int64(cur - m.lastShards))
		m.lastShards = cur
	}
	m.srv.mBatches.Inc()
	m.srv.mBatchedReqs.Add(int64(h))
	m.srv.mInference.Observe(time.Since(start))
}
