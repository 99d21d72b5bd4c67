package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// startServer runs a daemon on a loopback listener and returns its address
// plus a shutdown func that asserts a clean drain.
func startServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	return serveOn(t, New(cfg))
}

// startGatedServer is startServer with every batch loop held behind
// testGate: each token sent on s.testGate lets one micro-batch through.
func startGatedServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s := New(cfg)
	s.testGate = make(chan struct{})
	return serveOn(t, s)
}

func serveOn(t *testing.T, s *Server) (*Server, string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	return s, l.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not drain after cancel")
		}
	}
}

// TestServeEndToEnd drives several concurrent sessions through multiple
// decision epochs and checks every reply is a feasible solution of the
// right shape, with metrics to match.
func TestServeEndToEnd(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Seed: 42})
	defer shutdown()

	const (
		nSess  = 8
		epochs = 6
		n, m   = 6, 3
	)
	pool := NewPool(ClientConfig{
		Addr:  addr,
		Hello: HelloMsg{Topology: "test", N: n, M: m, Spouts: 2},
	}, nSess)
	err := pool.Run(context.Background(), func(ctx context.Context, i int, sess *Session) error {
		if len(sess.Assign()) != n {
			return fmt.Errorf("starting solution %v", sess.Assign())
		}
		for e := 1; e <= epochs; e++ {
			assign, err := sess.Step(ctx, core.MeasurementMsg{
				AvgTupleTimeMS: 40 + float64(i),
				Workload:       []float64{100, 50 + float64(e)},
			})
			if err != nil {
				return fmt.Errorf("session %d epoch %d: %w", i, e, err)
			}
			if len(assign) != n {
				return fmt.Errorf("session %d: solution length %d", i, len(assign))
			}
			for _, mach := range assign {
				if mach < 0 || mach >= m {
					return fmt.Errorf("session %d: machine %d out of range", i, mach)
				}
			}
			if sess.Epoch() != e {
				return fmt.Errorf("session %d: epoch %d want %d", i, sess.Epoch(), e)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Steps.Load(); got != nSess*epochs {
		t.Fatalf("pool steps %d want %d", got, nSess*epochs)
	}
	if got := s.reg.Counter("serve_requests_total").Value(); got != nSess*epochs {
		t.Fatalf("served %d requests, want %d", got, nSess*epochs)
	}
	if got := s.reg.Counter("serve_inference_requests_total").Value(); got != nSess*epochs {
		t.Fatalf("batched %d requests, want %d", got, nSess*epochs)
	}
	if b := s.reg.Counter("serve_inference_batches_total").Value(); b < 1 || b > nSess*epochs {
		t.Fatalf("batches %d out of range", b)
	}
	if got := s.reg.Counter("serve_protocol_errors_total").Value(); got != 0 {
		t.Fatalf("%d protocol errors", got)
	}
}

// TestServeDeterministicPerState: two sessions of the same shape reporting
// the same workload must receive the same solution (they share one model,
// and greedy inference is deterministic in the state).
func TestServeDeterministicPerState(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{Seed: 7})
	defer shutdown()

	step := func() []int {
		sess := NewSession(ClientConfig{Addr: addr, Hello: HelloMsg{N: 6, M: 3, Spouts: 1}})
		defer sess.Close()
		if err := sess.Connect(context.Background()); err != nil {
			t.Fatal(err)
		}
		a, err := sess.Step(context.Background(), core.MeasurementMsg{AvgTupleTimeMS: 50, Workload: []float64{120}})
		if err != nil {
			t.Fatal(err)
		}
		return append([]int(nil), a...)
	}
	a, b := step(), step()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same state produced different solutions: %v vs %v", a, b)
	}
}

// TestAdmissionControlShedsLoad holds the batcher behind the test gate so
// the queue fills deterministically, then checks that exactly the overflow
// requests receive explicit retry replies and that releasing the gate
// completes the queued request.
func TestAdmissionControlShedsLoad(t *testing.T) {
	s := New(Config{QueueDepth: 1, MaxBatch: 1, Seed: 1})
	s.testGate = make(chan struct{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	defer func() {
		cancel()
		<-done
	}()

	const conns = 3
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		served  int
		retried int
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(ClientConfig{
				Addr:        l.Addr().String(),
				Hello:       HelloMsg{N: 4, M: 2, Spouts: 1},
				MaxAttempts: 1, // surface the retry instead of resubmitting
			})
			defer sess.Close()
			if err := sess.Connect(context.Background()); err != nil {
				t.Error(err)
				return
			}
			_, err := sess.Step(context.Background(), core.MeasurementMsg{AvgTupleTimeMS: 10, Workload: []float64{1}})
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				served++
			} else if strings.Contains(err.Error(), "retry") {
				retried++
			} else {
				t.Errorf("unexpected step error: %v", err)
			}
		}()
	}

	// With the gate held, one request sits in the depth-1 queue and the
	// other two must be shed.
	deadline := time.Now().Add(10 * time.Second)
	for s.reg.Counter("serve_requests_shed_total").Value() < conns-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.reg.Counter("serve_requests_shed_total").Value(); got != conns-1 {
		t.Fatalf("shed %d requests, want %d", got, conns-1)
	}
	close(s.testGate) // release the batcher; the queued request completes
	wg.Wait()
	if served != 1 || retried != conns-1 {
		t.Fatalf("served=%d retried=%d, want 1/%d", served, retried, conns-1)
	}
}

// TestSessionCapAdmission: connections beyond MaxSessions get an explicit
// retry-and-close instead of service.
func TestSessionCapAdmission(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{MaxSessions: 1, Seed: 1})
	defer shutdown()

	first := NewSession(ClientConfig{Addr: addr, Hello: HelloMsg{N: 4, M: 2, Spouts: 1}})
	if err := first.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	second := NewSession(ClientConfig{Addr: addr, Hello: HelloMsg{N: 4, M: 2, Spouts: 1}, MaxAttempts: 1})
	err := second.Connect(context.Background())
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("second session: err = %v, want capacity rejection", err)
	}
	if got := s.reg.Counter("serve_sessions_rejected_total").Value(); got < 1 {
		t.Fatal("rejection not counted")
	}
}

// rawDial opens a raw NDJSON connection for protocol-abuse tests.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestBadHelloRejected covers malformed JSON and out-of-range shapes.
func TestBadHelloRejected(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Seed: 1})
	defer shutdown()

	for _, hello := range []string{
		"not json at all\n",
		`{"n":0,"m":3,"spouts":1}` + "\n",
		`{"n":4,"m":100000,"spouts":1}` + "\n",
	} {
		conn := rawDial(t, addr)
		if _, err := conn.Write([]byte(hello)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		dec := json.NewDecoder(conn)
		var sol core.SolutionMsg
		if err := dec.Decode(&sol); err == nil {
			if sol.Err == "" {
				t.Fatalf("hello %q: got %+v, want error reply", hello, sol)
			}
		}
		conn.Close()
	}
	if got := s.reg.Counter("serve_protocol_errors_total").Value(); got < 2 {
		t.Fatalf("protocol errors %d, want >= 2", got)
	}
}

// TestOversizedLineCloses: a frame above MaxLineBytes is a protocol error
// that terminates the session.
func TestOversizedLineCloses(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{MaxLineBytes: 512, Seed: 1})
	defer shutdown()

	conn := rawDial(t, addr)
	defer conn.Close()
	hello, _ := json.Marshal(HelloMsg{N: 4, M: 2, Spouts: 1})
	conn.Write(append(hello, '\n'))
	dec := json.NewDecoder(conn)
	var sol core.SolutionMsg
	if err := dec.Decode(&sol); err != nil || sol.Err != "" {
		t.Fatalf("hello failed: %v %+v", err, sol)
	}
	big := strings.Repeat("x", 2048)
	if _, err := conn.Write([]byte(`{"workload":[1],"pad":"` + big + "\"}\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The daemon drains the oversized frame before replying, so the error
	// reply must arrive intact (not be destroyed by a close-with-unread-data
	// reset) and must not carry a solution.
	if err := dec.Decode(&sol); err != nil {
		t.Fatalf("expected error reply after oversized frame, got %v", err)
	}
	if sol.Err == "" || sol.Assign != nil {
		t.Fatalf("oversized frame got %+v, want bare error reply", sol)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.reg.Counter("serve_protocol_errors_total").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.reg.Counter("serve_protocol_errors_total").Value(); got == 0 {
		t.Fatal("oversized line not counted as protocol error")
	}
}

// TestWorkloadShapeMismatch: measurements must match the declared spout
// count.
func TestWorkloadShapeMismatch(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{Seed: 1})
	defer shutdown()

	sess := NewSession(ClientConfig{Addr: addr, Hello: HelloMsg{N: 4, M: 2, Spouts: 2}, MaxAttempts: 1})
	if err := sess.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err := sess.Step(context.Background(), core.MeasurementMsg{Workload: []float64{1, 2, 3}})
	if err == nil || !strings.Contains(err.Error(), "spout") {
		t.Fatalf("err = %v, want spout shape rejection", err)
	}
}

// TestSessionReconnect: a dropped connection is re-dialed with backoff and
// the step resubmitted, transparently to the caller.
func TestSessionReconnect(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{Seed: 1})
	defer shutdown()

	sess := NewSession(ClientConfig{Addr: addr, Hello: HelloMsg{N: 4, M: 2, Spouts: 1}})
	if err := sess.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(context.Background(), core.MeasurementMsg{Workload: []float64{5}}); err != nil {
		t.Fatal(err)
	}
	// Sever the transport under the session's feet.
	sess.conn.Close()
	if _, err := sess.Step(context.Background(), core.MeasurementMsg{Workload: []float64{6}}); err != nil {
		t.Fatalf("step after drop: %v", err)
	}
	if got := sess.stats.Reconnects.Load(); got < 1 {
		t.Fatal("reconnect not counted")
	}
}

// TestHTTPControlSurface covers /metrics and /healthz.
func TestHTTPControlSurface(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Seed: 1})
	defer shutdown()

	sess := NewSession(ClientConfig{Addr: addr, Hello: HelloMsg{N: 4, M: 2, Spouts: 1}})
	if err := sess.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(context.Background(), core.MeasurementMsg{Workload: []float64{5}}); err != nil {
		t.Fatal(err)
	}
	sess.Close()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"serve_requests_total 1", "serve_request_latency_p99_seconds", "serve_models 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz %+v", health)
	}
}
