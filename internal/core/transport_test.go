package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
)

// TestWireRoundTrip pins the NDJSON wire format: both message types must
// survive encode→decode unchanged, including the error paths, and the
// encoded form must be a single '\n'-terminated line (the framing the
// serving daemon's line reader relies on).
func TestWireRoundTrip(t *testing.T) {
	sols := []SolutionMsg{
		{Epoch: 7, Assign: []int{0, 2, 1, 2}},
		{Epoch: 0, Assign: nil, Err: "no feasible solution"},
		{Epoch: 3, Err: "retry: inference queue full", Retry: true},
	}
	for _, in := range sols {
		blob, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out SolutionMsg
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("SolutionMsg round trip: %+v -> %s -> %+v", in, blob, out)
		}
	}
	// Err/Retry must stay off the wire for plain solutions (old peers see
	// the exact seed protocol).
	if blob, _ := json.Marshal(sols[0]); strings.Contains(string(blob), "err") || strings.Contains(string(blob), "retry") {
		t.Fatalf("plain solution leaked error fields: %s", blob)
	}

	meas := []MeasurementMsg{
		{AvgTupleTimeMS: 41.25, Workload: []float64{120, 80.5}},
		{Err: "deploy refused"},
	}
	for _, in := range meas {
		blob, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out MeasurementMsg
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("MeasurementMsg round trip: %+v -> %s -> %+v", in, blob, out)
		}
	}

	// One message per line, as produced by json.Encoder.
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	if err := enc.Encode(&sols[0]); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); strings.Count(got, "\n") != 1 || !strings.HasSuffix(got, "\n") {
		t.Fatalf("encoded frame is not one line: %q", got)
	}
}

// stubListener hands out a scripted sequence of accept results.
type stubListener struct {
	results []acceptResult
}

type acceptResult struct {
	conn net.Conn
	err  error
}

var errNoScriptedAccept = errors.New("stub listener: no scripted accept left")

func (l *stubListener) Accept() (net.Conn, error) {
	if len(l.results) == 0 {
		return nil, errNoScriptedAccept
	}
	r := l.results[0]
	l.results = l.results[1:]
	return r.conn, r.err
}
func (l *stubListener) Close() error   { return nil }
func (l *stubListener) Addr() net.Addr { return &net.TCPAddr{} }

type tempErr struct{}

func (tempErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// TestAcceptRetry pins the accept loop the serving daemon and the fleet
// gateway share: transient accept failures are retried with backoff, any
// other error — listener closure included — comes back unchanged.
func TestAcceptRetry(t *testing.T) {
	t.Run("temporary", func(t *testing.T) {
		server, client := net.Pipe()
		defer server.Close()
		defer client.Close()
		l := &stubListener{results: []acceptResult{{err: tempErr{}}, {err: tempErr{}}, {err: tempErr{}}, {conn: server}}}
		conn, err := AcceptRetry(l)
		if err != nil {
			t.Fatalf("AcceptRetry after temporary errors: %v", err)
		}
		if conn != server {
			t.Fatalf("AcceptRetry returned %v, want the connection after the temporary errors", conn)
		}
	})
	t.Run("fatal", func(t *testing.T) {
		boom := errors.New("accept: fatal")
		l := &stubListener{results: []acceptResult{{err: boom}, {err: tempErr{}}}}
		if _, err := AcceptRetry(l); err != boom {
			t.Fatalf("err = %v, want the fatal accept error unchanged", err)
		}
		if len(l.results) != 1 {
			t.Fatal("AcceptRetry kept accepting after a fatal error")
		}
	})
	t.Run("closed", func(t *testing.T) {
		l := &stubListener{results: []acceptResult{{err: fmt.Errorf("accept tcp: %w", net.ErrClosed)}}}
		if _, err := AcceptRetry(l); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("err = %v, want net.ErrClosed", err)
		}
	})
}
