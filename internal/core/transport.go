package core

import (
	"errors"
	"net"
	"time"
)

// This file holds the control-plane messages of Figure 1: "A socket is
// implemented for communications between the custom scheduler and the DRL
// agent" (§3.1). The scheduler sends the measured average tuple processing
// time and the current workload; the agent replies with a scheduling
// solution. The serving daemon (internal/serve) speaks them over either
// framing negotiated in wire.go.

// SolutionMsg is the agent→scheduler message carrying a scheduling
// solution.
type SolutionMsg struct {
	// Epoch is the agent's decision epoch (informational).
	Epoch int `json:"epoch"`
	// Assign maps executor index to machine index.
	Assign []int `json:"assign"`
	// Err carries an agent-side failure (empty on success). The serving
	// daemon (internal/serve) uses it to reject malformed sessions and,
	// with Retry set, to shed load.
	Err string `json:"err,omitempty"`
	// Retry marks a load-shedding reply: the request was not processed and
	// the scheduler should resubmit the same measurement after a short
	// backoff (admission control, internal/serve).
	Retry bool `json:"retry,omitempty"`
	// Token is the session-resumption token, set by the serving daemon on
	// its hello reply. A reconnecting client presents it in its next hello
	// to restore the session's per-topology state instead of starting cold
	// (internal/serve).
	Token string `json:"token,omitempty"`
	// Resumed marks a hello reply that restored a prior session's state;
	// Epoch and Assign then carry where that session left off.
	Resumed bool `json:"resumed,omitempty"`
}

// MeasurementMsg is the scheduler→agent reply after deployment and
// re-stabilization.
type MeasurementMsg struct {
	// Epoch, when non-zero, echoes 1 + the decision epoch of the
	// solution this measurement observed (1-based so that observing the
	// hello solution, epoch 0, is distinguishable from peers that
	// predate the field and send nothing). The serving daemon uses it to
	// detect a resubmitted measurement after a lost reply (the client
	// measured an older deployment than the daemon's pending transition
	// assumes) and keeps the mislabeled sample out of online learning.
	Epoch int `json:"epoch,omitempty"`
	// AvgTupleTimeMS is the measured average end-to-end tuple processing
	// time.
	AvgTupleTimeMS float64 `json:"avg_tuple_time_ms"`
	// Workload is the current arrival rate of each data source.
	Workload []float64 `json:"workload"`
	// Err carries a deployment failure, empty on success.
	Err string `json:"err,omitempty"`
}

// HelloMsg opens a session against the serving daemon (internal/serve):
// the scheduler announces its topology shape so the daemon can route it to
// (or create) the matching model. It is the only message the daemon reads
// before entering the measurement→solution loop, and the frame both
// framings negotiate over (wire.go).
type HelloMsg struct {
	// Topology is a free-form name used for logging/metrics only.
	Topology string `json:"topology"`
	// N is the executor count, M the machine count, Spouts the number of
	// data sources — together the state/action dimensions.
	N      int `json:"n"`
	M      int `json:"m"`
	Spouts int `json:"spouts"`
	// Token, when set, asks the daemon to resume the session it issued
	// the token for (in its hello reply's Token field). A token the
	// daemon no longer tracks — TTL-evicted or from a restarted daemon —
	// starts a fresh session under that token instead of failing, so a
	// reconnecting scheduler degrades to a cold start, never to an error.
	Token string `json:"token,omitempty"`
	// ReadOnly asks for an inference-only session: the daemon answers
	// state→action requests from its current weights but journals
	// nothing, learns nothing, and issues no resumption state. Replicas
	// accept read-only sessions while tailing a leader (follower reads),
	// serving from their continuously-warm weights.
	ReadOnly bool `json:"readonly,omitempty"`
}

// AcceptRetry accepts the next connection, retrying temporary errors
// (accept-queue conditions like EMFILE/ENFILE/ECONNABORTED) with
// exponential backoff from 5ms up to 1s instead of tearing the server
// down. The first fatal error — including net.ErrClosed when the listener
// closes — is returned. The serving daemon and the fleet gateway accept
// through it.
func AcceptRetry(l net.Listener) (net.Conn, error) {
	backoff := 5 * time.Millisecond
	for {
		conn, err := l.Accept()
		if err == nil {
			return conn, nil
		}
		if !isTemporary(err) {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// isTemporary reports whether an accept error is transient. net.Error's
// Temporary is deprecated for general errors but remains the only signal
// for accept-queue conditions like EMFILE/ENFILE/ECONNABORTED.
func isTemporary(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}
