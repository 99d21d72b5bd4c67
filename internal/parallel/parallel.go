// Package parallel provides the bounded worker pool behind the experiment
// engine: figure suites fan out across figures, and each figure fans out
// across its four schedulers and their deployment simulations.
//
// Determinism contract: ForEach/Map only decide *when* task i runs, never
// what it computes — every task must own its RNGs and scratch state, and
// results are assembled by index. Under that discipline a parallel run
// produces byte-identical output to a sequential (workers=1) run, which
// TestParallelFigureMatchesSequential in internal/experiments enforces.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// PoolSize returns the effective pool size for a workers setting: the
// setting itself when positive, else one worker per available CPU
// (GOMAXPROCS).
func PoolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// Workers normalizes a worker-count setting for n tasks: PoolSize capped at
// n, and at least 1.
func Workers(workers, n int) int {
	w := PoolSize(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded pool of
// workers goroutines (GOMAXPROCS-sized when workers <= 0). The first error
// cancels the derived context handed to the remaining tasks and is the one
// returned; tasks already running are waited for, so no task outlives the
// call. A canceled parent context stops new tasks from starting and is
// reported if no task failed first.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				return
			}
			if err := fn(ctx, i); err != nil {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
		}
	}
	w := Workers(workers, n)
	wg.Add(w)
	for i := 0; i < w; i++ {
		go worker()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map is ForEach with order-stable result assembly: out[i] is fn's result
// for task i regardless of execution order, so parallel output is
// indistinguishable from a sequential loop. On error the partial results
// are discarded.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
