package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// startDaemon runs an in-process agent daemon and returns its address and
// a kill func that tears it down (listener and all sessions).
func startDaemon(t *testing.T, cfg serve.Config) (string, func()) {
	t.Helper()
	s := serve.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(ctx, l)
	}()
	var once sync.Once
	return l.Addr().String(), func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("daemon did not drain")
			}
		})
	}
}

// TestRunHealthyExitsZero: a clean run against a live daemon exits 0.
func TestRunHealthyExitsZero(t *testing.T) {
	addr, kill := startDaemon(t, serve.Config{Seed: 1})
	defer kill()

	var out bytes.Buffer
	code := run(options{
		addr: addr, sessions: 4, duration: 500 * time.Millisecond,
		n: 6, m: 3, spouts: 2, seed: 1,
	}, &out)
	if code != 0 {
		t.Fatalf("healthy run exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "errors:      0") {
		t.Fatalf("healthy run reported errors:\n%s", out.String())
	}
}

// TestRunDropResumeExitsZero: deliberate drops with session resumption
// stay a healthy run — and the resumes actually happen.
func TestRunDropResumeExitsZero(t *testing.T) {
	addr, kill := startDaemon(t, serve.Config{Seed: 1, Learn: true, TrainInterval: 50 * time.Millisecond})
	defer kill()

	var out bytes.Buffer
	code := run(options{
		addr: addr, sessions: 3, duration: time.Second,
		n: 6, m: 3, spouts: 2, seed: 1, dropEvery: 5,
	}, &out)
	if code != 0 {
		t.Fatalf("drop/resume run exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "drops:") || strings.Contains(out.String(), "sessions resumed: 0)") {
		t.Fatalf("drop/resume run did not resume any session:\n%s", out.String())
	}
}

// TestRunSessionDeathExitsNonZero is the exit-code regression test: the
// daemon dies mid-run with no protocol error on the wire, and the run
// deadline fires while the sessions are still backing off trying to
// recover. loadgen used to classify that as a clean deadline end and exit
// zero; it must exit non-zero.
func TestRunSessionDeathExitsNonZero(t *testing.T) {
	addr, kill := startDaemon(t, serve.Config{Seed: 1})
	defer kill()

	go func() {
		time.Sleep(300 * time.Millisecond)
		kill() // daemon gone mid-run: sessions die without a protocol error
	}()
	// The reconnect backoff schedule needs ~1.3s to give up, so a 1s
	// deadline is guaranteed to fire while the sessions are still mid-
	// recovery — exactly the window the old classification misread as a
	// clean end.
	var out bytes.Buffer
	code := run(options{
		addr: addr, sessions: 3, duration: time.Second,
		n: 6, m: 3, spouts: 2, seed: 1,
	}, &out)
	if code == 0 {
		t.Fatalf("loadgen exited zero although every session died mid-run:\n%s", out.String())
	}
}

// TestLatencySummaryExact: the printed percentiles are order statistics of
// the timed samples, not histogram bucket bounds (which would report
// 65.536ms for the median of 1..100 ms).
func TestLatencySummaryExact(t *testing.T) {
	lat := make([][]time.Duration, 3)
	for ms := 1; ms <= 100; ms++ {
		lat[ms%3] = append(lat[ms%3], time.Duration(ms)*time.Millisecond)
	}
	p50, p99, mean := summarize(lat)
	if p50 != 51*time.Millisecond || p99 != 100*time.Millisecond || mean != 50500*time.Microsecond {
		t.Fatalf("summary = p50 %v p99 %v mean %v, want 51ms 100ms 50.5ms", p50, p99, mean)
	}
	if p50, p99, mean := summarize(make([][]time.Duration, 2)); p50 != 0 || p99 != 0 || mean != 0 {
		t.Fatalf("empty summary = %v %v %v, want zeros", p50, p99, mean)
	}
}
