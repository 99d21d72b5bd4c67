package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/actionspace"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/serve"
)

// The serving workloads drive agentd as a separate process over its
// binary wire protocol and read its /metrics, exactly as an operator's
// schedulers and dashboards do.

const (
	// The paper's large shape: 100 executors on 10 machines, 10 spouts.
	shapeN, shapeM, shapeSpouts = 100, 10, 10
	knnK                        = 8 // agentd's default -k
	sessions                    = 2 // one per CPU of the target host
	// latencyLimit is the decision p99 a ladder rung must meet, with no
	// request left unsent, to count towards op_rate_per_s.
	latencyLimit = 50 * time.Millisecond
	setupReps    = 3 // daemon spawns per run; setup_s is their median
	drainLimit   = 20 * time.Second
	warmup       = time.Second
)

// rung is one fixed offered rate of the load ladder and its share of the
// run's measured seconds. The first rung is the nominal rate; the rates
// bracket the knee measured on a 2-CPU host (about 1,500 req/s).
type rung struct {
	rate  float64 // requests per second, over both sessions
	share float64
}

var ladder = []rung{{300, 0.45}, {600, 0.2}, {1400, 0.2}, {2400, 0.15}}

// daemon is one agentd process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	httpAddr string
	dataDir  string
	exited   chan struct{} // closed once Wait returned
	hwmMB    float64       // last VmHWM read
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon spawns agentd with the preloaded weights and returns once
// its session port accepts connections.
func startDaemon(cfg config, dir string, learn bool, actorF, criticF string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", addr, "-http", httpAddr,
		"-n", strconv.Itoa(shapeN), "-m", strconv.Itoa(shapeM), "-spouts", strconv.Itoa(shapeSpouts),
		"-actor", actorF, "-critic", criticF}
	d := &daemon{addr: addr, httpAddr: httpAddr, exited: make(chan struct{})}
	if learn {
		d.dataDir = filepath.Join(dir, "data")
		if err := os.MkdirAll(d.dataDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-learn", "-data-dir", d.dataDir)
	}
	logf, err := os.Create(filepath.Join(dir, "agentd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(filepath.Join(cfg.bin, "agentd"), args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is judged by stop
		close(d.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("agentd exited during start-up (see %s)", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("agentd did not listen on %s within 15s", addr)
		}
	}
}

// readHWM refreshes the daemon's peak resident set from /proc.
func (d *daemon) readHWM() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				d.hwmMB = kb / 1024
			}
		}
	}
}

// stop sends SIGTERM and waits up to drainLimit for the daemon to drain.
// A daemon that does not exit is killed and reported as not drained.
func (d *daemon) stop() (time.Duration, bool) {
	d.readHWM()
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-d.exited:
			return 0, false // it had already died
		default:
		}
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	limit := time.After(drainLimit)
	for {
		select {
		case <-d.exited:
			return time.Since(start), d.cmd.ProcessState.Success()
		case <-tick.C:
			d.readHWM()
		case <-limit:
			d.kill()
			return time.Since(start), false
		}
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may already be gone; Wait below settles it
	<-d.exited
}

// scrape reads the daemon's /metrics as name → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// histMeanUS is a /metrics histogram's mean, in µs, over the interval
// between two scrapes.
func histMeanUS(before, after map[string]float64, name string) float64 {
	n := after[name+"_count"] - before[name+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum_seconds"] - before[name+"_sum_seconds"]) / n * 1e6
}

// request is one decision the generator asked for.
type request struct {
	due, ready, sent, recv time.Time
	work                   []float64
	reply                  []uint8 // machine per executor
}

// rungResult is one rung's outcome.
type rungResult struct {
	rate     float64
	lat      summary // from due time; missed requests count as +Inf
	queue    summary // due time to the session's previous reply, when later, µs
	late     summary // send time minus when the session could send, µs
	lateP99  float64
	rtt      summary // send to reply
	done     int     // replies received for requests due in the rung
	missed   int     // requests due in the rung but never sent
	achieved float64 // replies per second from the rung's start to its last reply
	passed   bool
	before   map[string]float64 // /metrics around the rung
	after    map[string]float64
	span     [sessions][2]int // the rung's requests: g.reqs[i][span[i][0]:span[i][1]]
	// latSamples (ms, +Inf for missed) and lateSamples (µs) are raw.
	latSamples, lateSamples []float64
}

// generator holds the two sessions and everything they exchanged.
type generator struct {
	pool    *serve.Pool
	reqs    [sessions][]request
	initial [sessions][]int
	errs    [sessions]error
	// infeasible counts replies that are not a valid assignment.
	infeasible int
	missed     int // due but never sent, over all rungs
	space      *actionspace.Space
}

// drive runs one rung open loop: session i's requests are due at random
// times at rate/sessions; each is sent at its due time, or as
// soon as the session's previous reply arrives when that is later, and
// is timed from its due time.
func (g *generator) drive(d *daemon, rate float64, dur time.Duration, rungIdx int, seed int64, tr *tracer) (*rungResult, error) {
	res := &rungResult{rate: rate}
	var err error
	if res.before, err = d.scrape(); err != nil {
		return nil, err
	}
	root := tr.begin(fmt.Sprintf("rung.%g", rate), 0)
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(dur)
	first := make([]int, sessions)
	missed := make([]int, sessions)
	bad := make([]int, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		first[i] = len(g.reqs[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rungIdx)*101 + int64(i)))
			sess := g.pool.Session(i)
			meas := core.MeasurementMsg{Workload: make([]float64, shapeSpouts)}
			base := 100 + 900*rng.Float64()
			// A fixed number of requests at uniformly random times: Poisson
			// arrivals conditioned on their count, so every run offers
			// exactly the rung's load.
			dues := make([]time.Duration, int(math.Round(rate/sessions*dur.Seconds())))
			for k := range dues {
				dues[k] = time.Duration(rng.Int63n(int64(dur)))
			}
			sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
			for _, off := range dues {
				due := start.Add(off)
				for j := range meas.Workload {
					meas.Workload[j] = base * (0.8 + 0.4*rng.Float64())
				}
				meas.AvgTupleTimeMS = 30 + 40*rng.Float64()
				if g.errs[i] != nil || time.Now().After(end.Add(latencyLimit)) {
					missed[i]++
					continue
				}
				// ready is when the session could send: its due time, or
				// its previous reply when that came later.
				ready := due
				if n := len(g.reqs[i]); n > 0 && g.reqs[i][n-1].recv.After(ready) {
					ready = g.reqs[i][n-1].recv
				}
				sleepUntil(due)
				sent := time.Now()
				assign, err := sess.Step(context.Background(), meas)
				recv := time.Now()
				if err != nil {
					g.errs[i] = err
					missed[i]++
					continue
				}
				r := request{due: due, ready: ready, sent: sent, recv: recv,
					work: append([]float64(nil), meas.Workload...), reply: make([]uint8, len(assign))}
				if !g.space.Feasible(assign) {
					bad[i]++
				}
				for k, m := range assign {
					r.reply[k] = uint8(m)
				}
				g.reqs[i] = append(g.reqs[i], r)
				if tr != nil {
					id := tr.add("decide", root, due, recv)
					tr.add("rtt", id, sent, recv)
				}
			}
		}(i)
	}
	wg.Wait()
	tr.end(root)
	if res.after, err = d.scrape(); err != nil {
		return nil, err
	}
	var reqs []request
	for i := 0; i < sessions; i++ {
		reqs = append(reqs, g.reqs[i][first[i]:]...)
		res.missed += missed[i]
		g.infeasible += bad[i]
		res.span[i] = [2]int{first[i], len(g.reqs[i])}
	}
	g.missed += res.missed
	res.fill(reqs, start)
	res.passed = res.missed == 0 && res.lat.N > 0 && res.lat.Tail <= ms(latencyLimit)
	return res, nil
}

// fill summarizes the rung's answered requests; res.missed must be set.
func (res *rungResult) fill(reqs []request, start time.Time) {
	var lat, queue, late, rtt []float64
	lastRecv := start
	for _, r := range reqs {
		if r.recv.After(lastRecv) {
			lastRecv = r.recv
		}
		lat = append(lat, ms(r.recv.Sub(r.due)))
		queue = append(queue, us(r.ready.Sub(r.due)))
		late = append(late, us(r.sent.Sub(r.ready)))
		rtt = append(rtt, us(r.recv.Sub(r.sent)))
	}
	res.done = len(lat)
	for k := 0; k < res.missed; k++ {
		lat = append(lat, math.Inf(1))
	}
	res.lat, res.queue, res.late, res.rtt = summarize(lat), summarize(queue), summarize(late), summarize(rtt)
	res.latSamples, res.lateSamples = lat, late
	res.lateP99 = percentile(late, 0.99)
	res.achieved = float64(res.done) / lastRecv.Sub(start).Seconds()
}

func (g *generator) firstErr() error {
	for _, err := range g.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runServe is the serve and serve-learn workload.
func runServe(cfg config, learn bool) (*report, error) {
	rep := &report{}
	// Frozen weights generated from the seed; the reference policy for
	// the correctness check holds the very same networks.
	ref := serve.NewPolicy(shapeN, shapeM, shapeSpouts, knnK, cfg.seed)
	actorF, criticF := filepath.Join(cfg.work, "actor.net"), filepath.Join(cfg.work, "critic.net")
	if err := writeNet(actorF, ref.Actor); err != nil {
		return nil, err
	}
	if err := writeNet(criticF, ref.Critic); err != nil {
		return nil, err
	}

	// Each run spawns setupReps daemons in turn. Every one is timed from
	// spawn until both sessions are connected (setup_s is the median),
	// warmed up, and measured at the nominal rate: decision latency
	// varies more between daemon instances than within one, so the
	// nominal samples are pooled across them. The last daemon then climbs
	// the rest of the ladder, or, traced, repeats its nominal segment
	// with spans.
	segment := time.Duration(ladder[0].share * float64(cfg.seconds) / setupReps)
	var runs []*daemonRun
	for k := 0; k < setupReps; k++ {
		last := k == setupReps-1
		dr, err := runDaemon(cfg, k, learn, ref, actorF, criticF, func(d *daemon, g *generator) ([]*rungResult, error) {
			if _, err := g.drive(d, ladder[0].rate, warmup, -1-k, cfg.seed, nil); err != nil {
				return nil, err
			}
			nominal, err := g.drive(d, ladder[0].rate, segment, 100*k, cfg.seed, nil)
			if err != nil {
				return nil, err
			}
			out := []*rungResult{nominal}
			switch {
			case !last:
			case cfg.tr != nil:
				traced, err := g.drive(d, ladder[0].rate, segment, 100*k, cfg.seed, cfg.tr)
				if err != nil {
					return nil, err
				}
				out = append(out, traced)
			default:
				for i, rg := range ladder[1:] {
					r, err := g.drive(d, rg.rate, time.Duration(rg.share*float64(cfg.seconds)), i+1, cfg.seed, nil)
					if err != nil {
						return nil, err
					}
					out = append(out, r)
					if !r.passed || g.firstErr() != nil {
						break
					}
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		runs = append(runs, dr)
	}

	var setups, lat, late []float64
	var achieved float64
	hwm := 0.0
	nominalMissed := 0
	for k, dr := range runs {
		setups = append(setups, dr.setup.Seconds())
		hwm = math.Max(hwm, dr.d.hwmMB)
		rep.attempted += dr.g.attempted()
		nom := dr.results[0]
		lat = append(lat, nom.latSamples...)
		late = append(late, nom.lateSamples...)
		achieved += nom.achieved / setupReps
		nominalMissed += nom.missed
		rep.printf("daemon %d: setup %.2f ms, nominal %g req/s p50 %.3f ms p%g %.3f ms (n=%d), drain %.1f ms",
			k, 1000*dr.setup.Seconds(), nom.rate, nom.lat.P50, 100*nom.lat.TailQ, nom.lat.Tail, nom.lat.N, ms(dr.drain))
		dr.check(rep, ref, learn)
	}
	pooled := summarize(lat)
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", hwm)
	rep.set("op_p50_ms", pooled.P50)
	rep.set("decide_p99_ms", pooled.Tail)
	rep.set("gen.late_p99_us", percentile(late, 0.99))
	lastRun := runs[setupReps-1]
	rep.set("serve.drain_ms", ms(lastRun.drain))

	// op_rate_per_s: the achieved rate of the highest rung, in ladder
	// order, whose p99 met latencyLimit with nothing left unsent.
	best := 0.0
	if pooled.Tail <= ms(latencyLimit) && nominalMissed == 0 {
		best = achieved
		for _, r := range lastRun.results[1:] {
			if !r.passed || cfg.tr != nil {
				break
			}
			best = r.achieved
		}
	}
	for _, r := range lastRun.results[1:] {
		rep.printf("rung %6.0f req/s: %5d done %3d missed, achieved %7.1f req/s, p50 %.3f ms, p%g %.3f ms (n=%d), gen late p99 %.1f us, rtt p50 %.1f us, pass=%v",
			r.rate, r.done, r.missed, r.achieved, r.lat.P50, 100*r.lat.TailQ, r.lat.Tail, r.lat.N, r.lateP99, r.rtt.P50, r.passed)
	}
	if cfg.tr == nil {
		rep.set("op_rate_per_s", best)
		rep.printf("decide_p50_ms %.4f ms, decide_p%g_ms %.4f ms (n=%d) at %g req/s nominal; max_rate_rps %.1f req/s (p99 <= %v, nothing unsent)",
			pooled.P50, 100*pooled.TailQ, pooled.Tail, pooled.N, ladder[0].rate, best, latencyLimit)
	} else {
		untraced, traced := lastRun.results[0], lastRun.results[1]
		rep.set("trace.overhead_pct", 100*(traced.lat.P50-untraced.lat.P50)/untraced.lat.P50)
		if err := serveLayers(cfg, rep, lastRun.g, ref, traced, lastRun.final, learn, lastRun.d.dataDir); err != nil {
			return nil, err
		}
	}
	rep.printf("setup_s %.4f s (median of %d spawns), peak_rss_mb %.1f MB (agentd VmHWM)", median(setups), setupReps, hwm)
	return rep, nil
}

// writeNet saves a network in the checkpoint format agentd -actor/-critic
// load.
func writeNet(path string, n *nn.Network) error {
	b, err := n.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// daemonRun is one agentd instance's part of a run.
type daemonRun struct {
	d       *daemon
	g       *generator
	setup   time.Duration
	results []*rungResult
	final   map[string]float64 // /metrics just before SIGTERM
	drain   time.Duration
	drained bool
}

// runDaemon spawns daemon k in a fresh directory, connects the sessions,
// runs plan against it, and stops it.
func runDaemon(cfg config, k int, learn bool, ref *serve.Policy, actorF, criticF string,
	plan func(*daemon, *generator) ([]*rungResult, error)) (*daemonRun, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("daemon%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := startDaemon(cfg, dir, learn, actorF, criticF)
	if err != nil {
		return nil, err
	}
	dr := &daemonRun{d: d, g: &generator{space: ref.Space, pool: serve.NewPool(serve.ClientConfig{
		Addr:        d.addr,
		Hello:       serve.HelloMsg{Topology: "bench", N: shapeN, M: shapeM, Spouts: shapeSpouts},
		MaxAttempts: 1, // a shed or broken exchange is a failure, never a hidden retry
		Proto:       "binary",
	}, sessions)}}
	for i := 0; i < sessions && err == nil; i++ {
		if err = dr.g.pool.Session(i).Connect(context.Background()); err == nil {
			dr.g.initial[i] = append([]int(nil), dr.g.pool.Session(i).Assign()...)
		}
	}
	dr.setup = time.Since(t0)
	if err == nil {
		dr.results, err = plan(d, dr.g)
	}
	if err == nil {
		dr.final, err = d.scrape()
	}
	for i := 0; i < sessions; i++ {
		dr.g.pool.Session(i).Close()
	}
	dr.drain, dr.drained = d.stop()
	return dr, err
}

// check adds the daemon's failures to rep: session errors, shed
// requests, dropped WAL records, infeasible replies, replies that differ
// from the in-process policy (frozen weights only), and an unclean exit.
func (dr *daemonRun) check(rep *report, ref *serve.Policy, learn bool) {
	if !dr.drained {
		rep.failed++
		rep.problem("agentd did not exit cleanly within %v of SIGTERM (drain %v)", drainLimit, dr.drain)
	}
	if err := dr.g.firstErr(); err != nil {
		rep.failed++
		rep.problem("session error: %v", err)
	}
	shed := int64(dr.final["serve_requests_shed_total"])
	rep.failed += shed + dr.g.pool.Stats().Retries.Load()
	if shed > 0 {
		rep.problem("agentd shed %d requests", shed)
	}
	if dropped := dr.final["serve_wal_dropped_total"]; dropped != 0 {
		rep.failed += int64(dropped)
		rep.problem("WAL dropped %v records", dropped)
	}
	if dr.g.infeasible > 0 {
		rep.failed += int64(dr.g.infeasible)
		rep.problem("%d replies are not feasible %dx%d assignments", dr.g.infeasible, shapeN, shapeM)
	}
	if !learn {
		if n := dr.g.verify(ref); n > 0 {
			rep.failed += int64(n)
			rep.problem("%d replies differ from the in-process policy", n)
		}
	}
}

// attempted is every decision the generator asked for: those answered
// plus those never sent or failed.
func (g *generator) attempted() int64 {
	n := int64(g.missed)
	for i := 0; i < sessions; i++ {
		n += int64(len(g.reqs[i]))
	}
	return n
}

// states rebuilds the encoded state of every request in reqs[lo:hi] of
// session i: the solution the session held (its previous reply) plus the
// request's workload, exactly as agentd encodes it.
func (g *generator) states(codec *core.StateCodec, i, lo, hi int) [][]float64 {
	prev := make([]int, shapeN)
	copy(prev, g.initial[i])
	if lo > 0 {
		for k, m := range g.reqs[i][lo-1].reply {
			prev[k] = int(m)
		}
	}
	out := make([][]float64, 0, hi-lo)
	for _, r := range g.reqs[i][lo:hi] {
		out = append(out, codec.Encode(prev, r.work, nil))
		for k, m := range r.reply {
			prev[k] = int(m)
		}
	}
	return out
}

// verify recomputes every reply with the in-process policy holding the
// same networks and returns how many differ.
func (g *generator) verify(ref *serve.Policy) int {
	const batch = 64
	mismatched := 0
	states := &mat.Matrix{}
	outs := make([][]int, batch)
	for k := range outs {
		outs[k] = make([]int, shapeN)
	}
	for i := 0; i < sessions; i++ {
		all := g.states(ref.Codec, i, 0, len(g.reqs[i]))
		for lo := 0; lo < len(all); lo += batch {
			hi := min(lo+batch, len(all))
			states.Reshape(hi-lo, ref.StateDim())
			for k := lo; k < hi; k++ {
				copy(states.Row(k-lo), all[k])
			}
			ref.SelectBatch(states, outs[:hi-lo])
			for k := lo; k < hi; k++ {
				for e, m := range outs[k-lo] {
					if int(g.reqs[i][k].reply[e]) != m {
						mismatched++
						break
					}
				}
			}
		}
	}
	return mismatched
}

// serveLayers attributes the traced rung's decision latency to layers
// (see ladderRows), reads the learner and WAL counters, and times the
// codec and one training update standalone.
func serveLayers(cfg config, rep *report, g *generator, ref *serve.Policy, r *rungResult, final map[string]float64, learn bool, dataDir string) error {
	reqLat, batch, rows, err := serverMeans(r.before, r.after)
	if err != nil {
		return err
	}
	rep.set("serve.rtt_us", r.rtt.Mean)
	rep.set("serve.net_us", r.rtt.Mean-reqLat)
	rep.set("serve.wait_us", reqLat-batch)
	rep.set("serve.batch_us", batch)
	rep.set("serve.batch_rows", rows)

	var states [][]float64
	for i := 0; i < sessions; i++ {
		states = append(states, g.states(ref.Codec, i, r.span[i][0], r.span[i][1])...)
	}
	pr := replayPolicy(ref, states, rows, cfg.tr)
	rep.set("policy.select_us", pr.selectUS)
	rep.set("nn.actor_infer_us", pr.actorUS)
	rep.set("actionspace.knn_us", pr.knnUS)
	rep.set("nn.critic_infer_us", pr.criticUS)
	rep.set("policy.residual_us", pr.selectUS-pr.actorUS-pr.knnUS-pr.criticUS)
	rep.set("serve.batch_residual_us", batch-pr.selectUS)
	rep.set("core.codec_ns", codecNS())
	rep.ladder(fmt.Sprintf("layer ladder, %g req/s traced rung (means per decision, µs):", r.rate),
		r.ladderRows(reqLat, batch, pr), "= decide (due → reply)", 1000*r.lat.Mean,
		fmt.Sprintf("p50 %.1f µs, n=%d, batch rows %.2f", 1000*r.lat.P50, r.lat.N, rows))

	if !learn {
		return nil
	}
	acked := 0.0
	for i := 0; i < sessions; i++ {
		acked += float64(len(g.reqs[i]))
	}
	rounds := final["serve_train_round_latency_count"]
	if rounds > 0 {
		rep.set("serve.train_round_ms", 1000*final["serve_train_round_latency_sum_seconds"]/rounds)
	}
	rep.set("serve.train_rounds", rounds)
	rep.set("serve.weight_swaps", final["serve_weight_swaps_total"])
	rep.set("serve.transition_ratio", final["serve_transitions_total"]/acked)
	rep.set("durable.wal_records", final["serve_wal_records_total"])
	rep.set("durable.wal_mb", final["serve_wal_bytes_total"]/1e6)
	rep.set("durable.wal_dropped", final["serve_wal_dropped_total"])
	rep.set("durable.snapshots", final["serve_snapshots_total"])
	snapMB := 0.0
	files, _ := filepath.Glob(filepath.Join(dataDir, "snap-*"))
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			snapMB = math.Max(snapMB, float64(st.Size())/1e6)
		}
	}
	rep.set("durable.snapshot_mb", snapMB)
	rep.set("core.train_on_batch_ms", trainOnBatchMS(shapeN, shapeM, shapeSpouts, cfg.seed, 20))
	rep.printf("learner: %.0f train rounds of %.2f ms, %.0f weight swaps, %.0f transitions over %.0f decisions; WAL %.0f records %.2f MB, %.0f dropped; largest snapshot %.2f MB",
		rounds, rep.metrics["serve.train_round_ms"], final["serve_weight_swaps_total"], final["serve_transitions_total"], acked,
		final["serve_wal_records_total"], final["serve_wal_bytes_total"]/1e6, final["serve_wal_dropped_total"], snapMB)
	return nil
}

// serverMeans reads agentd's per-request and per-batch means (µs) and
// its mean batch size over the interval between two /metrics scrapes.
func serverMeans(before, after map[string]float64) (reqLatUS, batchUS, rows float64, err error) {
	reqLatUS = histMeanUS(before, after, "serve_request_latency")        // request read → reply written
	batchUS = histMeanUS(before, after, "serve_inference_batch_latency") // one batched policy pass
	batches := after["serve_inference_batches_total"] - before["serve_inference_batches_total"]
	if batches <= 0 || reqLatUS <= 0 || batchUS <= 0 {
		return 0, 0, 0, fmt.Errorf("agentd /metrics show no batches in the interval")
	}
	rows = (after["serve_inference_requests_total"] - before["serve_inference_requests_total"]) / batches
	return reqLatUS, batchUS, rows, nil
}

// ladderRows splits the rung's mean decision latency into layers. The
// rows sum to it exactly: decide = queue + late + RTT per request, and
// RTT = net + wait + batch with batch = replayed SelectBatch + residual
// and SelectBatch = actor + K-NN + critic + residual.
func (r *rungResult) ladderRows(reqLatUS, batchUS float64, pr policyReplay) []ladderRow {
	return []ladderRow{
		{"session.queue (due while the previous reply was pending)", r.queue.Mean},
		{"gen.late (generator behind schedule)", r.late.Mean},
		{"serve.net (client RTT - agentd request latency)", r.rtt.Mean - reqLatUS},
		{"serve.wait (request latency - batch latency)", reqLatUS - batchUS},
		{"serve.batch_residual (batch - replayed SelectBatch)", batchUS - pr.selectUS},
		{"nn.actor_infer", pr.actorUS},
		{"actionspace.knn", pr.knnUS},
		{"nn.critic_infer", pr.criticUS},
		{"policy.residual (SelectBatch - actor - knn - critic)", pr.selectUS - pr.actorUS - pr.knnUS - pr.criticUS},
	}
}

type policyReplay struct{ selectUS, actorUS, knnUS, criticUS float64 }

// replayPolicy re-runs the recorded states through the policy in batches
// of the observed size, once through SelectBatch as agentd calls it, and
// once split into its stages (actor GEMM, per-row K-NN, critic GEMM) with
// a span around each. Times are means per batch.
func replayPolicy(pol *serve.Policy, states [][]float64, rows float64, tr *tracer) policyReplay {
	const maxRows = 2000
	if len(states) > maxRows {
		states = states[:maxRows]
	}
	b := max(1, int(math.Round(rows)))
	sdim, adim := pol.StateDim(), pol.Space.Dim()
	x := &mat.Matrix{}
	outs := make([][]int, b)
	for k := range outs {
		outs[k] = make([]int, shapeN)
	}
	var res policyReplay
	var sel, actor, knn, critic time.Duration
	var knnBuf [][]int
	sa := &mat.Matrix{}
	root := tr.begin("policy.replay", 0)
	nb := 0
	for lo := 0; lo+b <= len(states); lo += b {
		x.Reshape(b, sdim)
		for k := 0; k < b; k++ {
			copy(x.Row(k), states[lo+k])
		}
		t0 := time.Now()
		pol.SelectBatch(x, outs)
		t1 := time.Now()
		sel += t1.Sub(t0)
		tr.add("policy.select", root, t0, t1)

		protos := pol.Actor.ForwardBatchInfer(x)
		t2 := time.Now()
		actor += t2.Sub(t1)
		tr.add("nn.actor_infer", root, t1, t2)
		sa.Reshape(b*pol.K, sdim+adim)
		n := 0
		for k := 0; k < b; k++ {
			t := time.Now()
			knnBuf = pol.Space.KNearestInto(protos.Row(k), pol.K, knnBuf)
			d := time.Since(t)
			knn += d
			tr.add("actionspace.knn", root, t, t.Add(d))
			for _, cand := range knnBuf {
				row := sa.Row(n)
				copy(row[:sdim], x.Row(k))
				pol.Space.Encode(cand, row[sdim:])
				n++
			}
		}
		view := mat.Matrix{Rows: n, Cols: sdim + adim, Data: sa.Data[:n*(sdim+adim)]}
		t3 := time.Now()
		pol.Critic.ForwardBatchInfer(&view)
		t4 := time.Now()
		critic += t4.Sub(t3)
		tr.add("nn.critic_infer", root, t3, t4)
		nb++
	}
	tr.end(root)
	if nb > 0 {
		res = policyReplay{us(sel) / float64(nb), us(actor) / float64(nb), us(knn) / float64(nb), us(critic) / float64(nb)}
	}
	return res
}

// codecNS times binary encode+decode of one measurement and one solution
// at the serving shape, standalone.
func codecNS() float64 {
	meas := core.MeasurementMsg{Epoch: 7, AvgTupleTimeMS: 42.5, Workload: make([]float64, shapeSpouts)}
	for i := range meas.Workload {
		meas.Workload[i] = 100 + float64(i)
	}
	sol := core.SolutionMsg{Epoch: 7, Assign: make([]int, shapeN)}
	for i := range sol.Assign {
		sol.Assign[i] = i % shapeM
	}
	var m2 core.MeasurementMsg
	var s2 core.SolutionMsg
	var buf []byte
	const n = 20000
	t0 := time.Now()
	for k := 0; k < n; k++ {
		buf = core.AppendMeasurementBin(buf[:0], &meas)
		if core.DecodeMeasurementBin(buf[6:len(buf)-1], &m2) != nil {
			return math.NaN()
		}
		buf = core.AppendSolutionBin(buf[:0], &sol)
		if core.DecodeSolutionBin(buf[6:len(buf)-1], &s2) != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// sleepUntil returns at t. time.Sleep alone wakes through the runtime's
// poller at millisecond granularity (a median 0.57 ms late on a 2-CPU
// Linux VM), which would be charged to the daemon as latency; so it
// sleeps to just short of t and nanosleeps the rest, which overshoots by
// tens of microseconds. Nanosleeping the whole wait instead made the
// decision p99 at 300 req/s read 15 ms instead of 4 ms.
func sleepUntil(t time.Time) {
	const coarse = 1500 * time.Microsecond
	if d := time.Until(t) - coarse; d > 0 {
		time.Sleep(d)
	}
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
