package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/multisim"
	"repro/internal/serve"
	"repro/internal/workload"
)

// runScenario replays a cluster scenario's arrival traces against a live
// daemon. Each topology in the scenario gets its own session (pools are
// per-topology because a pool shares one hello), reporting the topology's
// true executor/machine/spout dimensions and, every epoch, the trace's
// rate at the current simulated time — wall clock × -time-scale. Exit
// code semantics match the synthetic mode: zero only when every session
// survives to the deadline without a protocol error.
func runScenario(opt options, out io.Writer) int {
	sc, err := multisim.LoadFile(opt.scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	setups, cl, err := sc.Instances()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	timeScale := opt.timeScale
	if timeScale <= 0 {
		timeScale = 1
	}
	// The run covers the scenario horizon at the chosen speed, unless the
	// -duration budget is tighter.
	wall := time.Duration(sc.DurationMS / timeScale * float64(time.Millisecond))
	if opt.duration > 0 && opt.duration < wall {
		wall = opt.duration
	}

	type topoRun struct {
		pool   *serve.Pool
		trace  workload.ArrivalProcess
		spouts int
		epochs atomic.Int64
		err    error
	}
	runs := make([]*topoRun, len(setups))
	for i, su := range setups {
		tr := &topoRun{spouts: len(su.Arrivals)}
		for _, proc := range su.Arrivals { // all spouts share the topology's trace
			tr.trace = proc
			break
		}
		tr.pool = serve.NewPool(serve.ClientConfig{
			Addr:        opt.addr,
			Hello:       serve.HelloMsg{Topology: su.Name, N: len(su.Assign), M: cl.Size(), Spouts: tr.spouts},
			MaxAttempts: opt.maxAttempts,
			Proto:       opt.proto,
		}, 1)
		runs[i] = tr
	}

	var (
		lat      = make([][]time.Duration, len(runs))
		failures atomic.Int64
	)
	ctx, cancel := context.WithTimeout(context.Background(), wall)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for i, tr := range runs {
		wg.Add(1)
		go func(i int, tr *topoRun) {
			defer wg.Done()
			tr.err = tr.pool.Run(ctx, func(ctx context.Context, _ int, sess *serve.Session) error {
				rng := rand.New(rand.NewSource(sc.Seed + int64(i)))
				meas := core.MeasurementMsg{AvgTupleTimeMS: 50, Workload: make([]float64, tr.spouts)}
				for ctx.Err() == nil {
					simMS := timeScale * float64(time.Since(start)) / float64(time.Millisecond)
					rate := tr.trace.RateAt(simMS)
					for j := range meas.Workload {
						meas.Workload[j] = rate
					}
					t0 := time.Now()
					if _, err := sess.Step(ctx, meas); err != nil {
						if benignEnd(err) {
							return nil
						}
						failures.Add(1)
						return fmt.Errorf("topology %s: %w", setups[i].Name, err)
					}
					lat[i] = append(lat[i], time.Since(t0))
					tr.epochs.Add(1)
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
			if tr.err != nil && benignEnd(tr.err) {
				tr.err = nil
			}
		}(i, tr)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > wall {
		elapsed = wall
	}

	var total, retries, reconnects, errCount int64
	for _, tr := range runs {
		total += tr.epochs.Load()
		st := tr.pool.Stats()
		retries += st.Retries.Load()
		reconnects += st.Reconnects.Load()
		errCount += st.Errors.Load()
	}
	fmt.Fprintf(out, "scenario:    %s (%d topologies on %d machines, time-scale %gx)\n",
		sc.Name, len(setups), cl.Size(), timeScale)
	for i, tr := range runs {
		fmt.Fprintf(out, "  %-16s %s epochs=%d\n", setups[i].Name, setups[i].Scheduler, tr.epochs.Load())
	}
	fmt.Fprintf(out, "duration:    %v (%.0f simulated seconds)\n",
		elapsed.Round(time.Millisecond), timeScale*elapsed.Seconds())
	fmt.Fprintf(out, "requests:    %d (%.0f req/s sustained)\n", total, float64(total)/elapsed.Seconds())
	p50, p99, mean := summarize(lat)
	fmt.Fprintf(out, "latency:     p50 %v  p99 %v  mean %v\n", p50, p99, mean)
	fmt.Fprintf(out, "retries:     %d (load-shed replies honored)\n", retries)
	fmt.Fprintf(out, "reconnects:  %d\n", reconnects)
	fmt.Fprintf(out, "errors:      %d\n", errCount+failures.Load())
	code := 0
	for _, tr := range runs {
		if tr.err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", tr.err)
			code = 1
		}
	}
	if errCount+failures.Load() > 0 {
		code = 1
	}
	return code
}
