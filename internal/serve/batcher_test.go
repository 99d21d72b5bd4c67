package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestBatcherServesWhatIsQueued pins the work-conserving batch loop
// without relying on timing: with the batcher held behind the test gate,
// k sessions each leave one request in the model queue, and a single gate
// token must serve all k as one batch. k = 1 is the idle server: a lone
// request is served at once as a batch of one, with no window to expire.
func TestBatcherServesWhatIsQueued(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d_queued", k), func(t *testing.T) {
			s, addr, shutdown := startGatedServer(t, Config{Seed: 1})
			defer shutdown()

			hello := HelloMsg{N: 4, M: 2, Spouts: 1}
			var wg sync.WaitGroup
			errs := make(chan error, k)
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := NewSession(ClientConfig{Addr: addr, Hello: hello, MaxAttempts: 1})
					defer sess.Close()
					_, err := sess.Step(context.Background(), core.MeasurementMsg{AvgTupleTimeMS: 10, Workload: []float64{1}})
					errs <- err
				}()
			}

			key := modelKey{hello.N, hello.M, hello.Spouts}
			queued := func() int {
				s.mu.Lock()
				defer s.mu.Unlock()
				if m := s.models[key]; m != nil {
					return len(m.queue)
				}
				return 0
			}
			requests := s.reg.Counter("serve_inference_requests_total")
			batches := s.reg.Counter("serve_inference_batches_total")
			waitCond(t, "the requests to queue", func() bool { return queued() == k })

			s.testGate <- struct{}{}
			// The batcher completes the requests before it counts the
			// batch, so wait for the counter rather than the sessions.
			waitCond(t, "the batch to be counted", func() bool { return requests.Value() >= int64(k) })
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := batches.Value(); got != 1 {
				t.Fatalf("served %d requests in %d batches, want 1", requests.Value(), got)
			}
			if got := requests.Value(); got != int64(k) {
				t.Fatalf("one batch served %d requests, want %d", got, k)
			}
		})
	}
}
