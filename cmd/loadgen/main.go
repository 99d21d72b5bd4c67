// Command loadgen drives simulated scheduler sessions against an agentd
// daemon and reports sustained throughput and tail latency. Each session
// is one topology: it opens a connection, performs the hello handshake,
// then loops measurement→solution with a synthetic drifting workload,
// timing every round trip.
//
//	loadgen -addr 127.0.0.1:7700 -sessions 1000 -duration 10s
//
// With -drop-every N each session deliberately drops its connection every
// N epochs and reconnects presenting its resumption token, exercising the
// daemon's session-resumption path under load.
//
// With -scenario file.ndjson the synthetic drifting workload is replaced
// by the scenario's topology mix: one session per topology, reporting that
// topology's real dimensions and replaying its arrival trace (steady,
// bursty, diurnal or shift) as the measured workload, with simulated time
// advanced -time-scale× faster than wall clock. The same NDJSON file
// drives `simulate -cluster-scenario` and a live daemon.
//
// The process exits non-zero if any session hits a protocol error or dies
// mid-run — including sessions still failing when the run deadline fires
// (serve.AbortedError) — which is what the CI smoke job asserts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// options collects the run parameters so tests can drive run directly.
type options struct {
	addr      string
	sessions  int
	duration  time.Duration
	n, m      int
	spouts    int
	think     time.Duration
	seed      int64
	dropEvery int
	// tokenPrefix, when set, gives session i the client-chosen resumption
	// token "<prefix>-<i>" instead of a daemon-issued one, so a later
	// loadgen run with the same prefix reclaims the same daemon-side
	// sessions — the restart-recovery smoke drives a durable daemon
	// through SIGKILL with it.
	tokenPrefix string
	// expectResumed makes a run fail unless every session resumed
	// daemon-side state on connect (the post-restart assertion).
	expectResumed bool
	// maxAttempts widens the client's per-step dial/shed retry budget
	// (0 = client default). Failover runs raise it: a leader kill costs
	// the gateway a detection window plus a promotion before retried
	// steps can land.
	maxAttempts int
	// scenario, when set, names an NDJSON cluster scenario whose arrival
	// traces are replayed against the daemon (one session per topology);
	// timeScale maps wall-clock to simulated milliseconds.
	scenario  string
	timeScale float64
	// proto selects the wire framing: auto (negotiate binary, fall back),
	// binary (require it), or ndjson.
	proto string
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "agentd address")
		sessions  = flag.Int("sessions", 100, "concurrent scheduler sessions")
		duration  = flag.Duration("duration", 10*time.Second, "how long to drive load")
		n         = flag.Int("n", 12, "executors per topology")
		m         = flag.Int("m", 4, "machines per topology")
		spouts    = flag.Int("spouts", 2, "data sources per topology")
		think     = flag.Duration("think", 0, "per-session pause between epochs (0 = closed loop)")
		seed      = flag.Int64("seed", 1, "workload randomization seed")
		dropEvery = flag.Int("drop-every", 0, "drop and resume each session every N epochs (0 = never)")
		tokPrefix = flag.String("token-prefix", "", "present client-chosen resumption token <prefix>-<i> per session (restart-recovery testing; empty = daemon-issued tokens)")
		expectRes = flag.Bool("expect-resumed", false, "fail unless every session resumed existing daemon-side state on connect")
		maxAtt    = flag.Int("max-attempts", 0, "per-step dial/shed retry budget (0 = client default; raise for failover runs)")
		scenario  = flag.String("scenario", "", "NDJSON cluster scenario to replay (one session per topology; overrides -sessions/-n/-m/-spouts)")
		timeScale = flag.Float64("time-scale", 60, "with -scenario: simulated ms advanced per wall-clock ms")
		proto     = flag.String("proto", "auto", "wire framing: auto (binary hello, NDJSON fallback), binary (required), ndjson")

		chaosMode  = flag.Bool("chaos", false, "spawn a 3-member replicated fleet behind a gateway and drive a seeded fault schedule against it (ignores -addr)")
		agentdBin  = flag.String("agentd-bin", "", "agentd binary to spawn (with -chaos)")
		fleetBin   = flag.String("agentfleet-bin", "", "agentfleet binary to spawn (with -chaos)")
		chaosExtra = flag.Int("chaos-extra", 1, "random fault events beyond the mandatory kill/kill/stall/tear (with -chaos)")
		chaosDir   = flag.String("chaos-dir", "", "work directory for daemon data and logs (with -chaos; empty = temp dir, removed on pass, kept on failure)")
		chaosSteps = flag.Int("chaos-steps", 12, "steps per session per load phase (with -chaos)")
	)
	flag.Parse()
	opt := options{
		addr: *addr, sessions: *sessions, duration: *duration,
		n: *n, m: *m, spouts: *spouts,
		think: *think, seed: *seed, dropEvery: *dropEvery,
		tokenPrefix: *tokPrefix, expectResumed: *expectRes,
		maxAttempts: *maxAtt,
		scenario:    *scenario, timeScale: *timeScale,
		proto: *proto,
	}
	if *chaosMode {
		os.Exit(runChaos(opt, chaosOptions{
			agentdBin: *agentdBin, fleetBin: *fleetBin,
			dir: *chaosDir, extra: *chaosExtra, steps: *chaosSteps,
		}, os.Stdout))
	}
	if opt.scenario != "" {
		os.Exit(runScenario(opt, os.Stdout))
	}
	os.Exit(run(opt, os.Stdout))
}

// run drives the load and returns the process exit code: 0 only when every
// session survived to the deadline without a protocol error or an
// unrecovered failure.
func run(opt options, out io.Writer) int {
	pool := serve.NewPool(serve.ClientConfig{
		Addr:        opt.addr,
		Hello:       serve.HelloMsg{Topology: "loadgen", N: opt.n, M: opt.m, Spouts: opt.spouts},
		MaxAttempts: opt.maxAttempts,
		Proto:       opt.proto,
	}, opt.sessions)
	if opt.tokenPrefix != "" {
		for i := 0; i < opt.sessions; i++ {
			pool.Session(i).SetToken(fmt.Sprintf("%s-%d", opt.tokenPrefix, i))
		}
	}

	var (
		lat        = make([][]time.Duration, opt.sessions)
		epochs     atomic.Int64
		drops      atomic.Int64
		failures   atomic.Int64
		notResumed atomic.Int64
	)
	ctx, cancel := context.WithTimeout(context.Background(), opt.duration)
	defer cancel()
	start := time.Now()
	runErr := pool.Run(ctx, func(ctx context.Context, i int, sess *serve.Session) error {
		if opt.expectResumed && !sess.Resumed() {
			notResumed.Add(1)
			return fmt.Errorf("session %d: daemon did not resume token %s (started a cold session)", i, sess.Token())
		}
		rng := rand.New(rand.NewSource(opt.seed + int64(i)))
		base := 100 + 900*rng.Float64()
		meas := core.MeasurementMsg{AvgTupleTimeMS: 50, Workload: make([]float64, opt.spouts)}
		for epoch := 1; ctx.Err() == nil; epoch++ {
			if opt.dropEvery > 0 && epoch%opt.dropEvery == 0 {
				// Deliberate kill: the next Step redials and presents the
				// session token, resuming server-side state.
				sess.Close()
				drops.Add(1)
			}
			for j := range meas.Workload {
				meas.Workload[j] = base * (0.8 + 0.4*rng.Float64())
			}
			t0 := time.Now()
			if _, err := sess.Step(ctx, meas); err != nil {
				if benignEnd(err) {
					return nil // the run's deadline ended this step
				}
				// A real failure — even one the deadline interrupted
				// recovery from — must reach the exit code.
				failures.Add(1)
				return fmt.Errorf("session %d: %w", i, err)
			}
			lat[i] = append(lat[i], time.Since(t0))
			epochs.Add(1)
			meas.AvgTupleTimeMS = 30 + 40*rng.Float64()
			if opt.think > 0 {
				select {
				case <-time.After(opt.think):
				case <-ctx.Done():
				}
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if elapsed > opt.duration {
		elapsed = opt.duration
	}
	// The deadline firing is how a run normally ends; only real failures
	// count.
	if runErr != nil && benignEnd(runErr) {
		runErr = nil
	}

	stats := pool.Stats()
	total := epochs.Load()
	fmt.Fprintf(out, "sessions:    %d (topology %dx%d/%d)\n", opt.sessions, opt.n, opt.m, opt.spouts)
	fmt.Fprintf(out, "duration:    %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "requests:    %d (%.0f req/s sustained)\n", total, float64(total)/elapsed.Seconds())
	p50, p99, mean := summarize(lat)
	fmt.Fprintf(out, "latency:     p50 %v  p99 %v  mean %v\n", p50, p99, mean)
	fmt.Fprintf(out, "retries:     %d (load-shed replies honored)\n", stats.Retries.Load())
	fmt.Fprintf(out, "reconnects:  %d\n", stats.Reconnects.Load())
	if opt.dropEvery > 0 {
		fmt.Fprintf(out, "drops:       %d (sessions resumed: %d)\n", drops.Load(), stats.Resumes.Load())
	}
	if opt.expectResumed {
		fmt.Fprintf(out, "resumed:     %d/%d sessions reclaimed pre-restart state\n",
			int64(opt.sessions)-notResumed.Load(), opt.sessions)
	}
	fmt.Fprintf(out, "errors:      %d\n", stats.Errors.Load()+failures.Load())
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", runErr)
		return 1
	}
	if stats.Errors.Load()+failures.Load() > 0 {
		return 1
	}
	if opt.dropEvery > 0 && drops.Load() > 0 && stats.Resumes.Load() == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: sessions were dropped but none resumed")
		return 1
	}
	return 0
}

// benignEnd reports whether err is purely the run deadline (or a sibling
// session's failure cancelling the pool) ending an otherwise healthy
// session. A context end that interrupted failure recovery arrives as a
// serve.AbortedError and is NOT benign — before that distinction, a
// session that died mid-run and was still backing off at the deadline
// made loadgen exit zero.
func benignEnd(err error) bool {
	var aborted *serve.AbortedError
	if errors.As(err, &aborted) {
		return false
	}
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}
