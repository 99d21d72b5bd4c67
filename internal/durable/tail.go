package durable

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TailHandler receives what the tailer verified: whole snapshots and
// individual WAL records, in stream order. Both run on the tailer's
// goroutine; an error from either aborts the connection (the tailer
// reconnects and the leader re-ships from the mirror's position, so apply
// must be idempotent — which the generation-guarded replay path is).
type TailHandler interface {
	// ApplySnapshot delivers a shipped snapshot. reset=true means the
	// follower could not resume (its state must be rebuilt from the
	// snapshot alone); reset=false is a compaction marker — the records
	// the snapshot covers were already applied, only bookkeeping moves.
	ApplySnapshot(snap *Snapshot, reset bool) error
	// ApplyRecord delivers one CRC-verified WAL record.
	ApplyRecord(rec *Record) error
}

// TailConfig configures a Tailer.
type TailConfig struct {
	Dir     string // mirror data directory
	Addr    string // leader's replication listen address
	Handler TailHandler

	// Dial overrides the leader connection (tests); default is a TCP dial
	// of Addr.
	Dial func(ctx context.Context) (net.Conn, error)

	// BaseBackoff/MaxBackoff bound the reconnect schedule (defaults
	// 50ms/2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	Logf func(format string, args ...any)

	Applied      Counter // records applied
	SnapsApplied Counter // snapshots applied (resets + compaction markers)
	Reconnects   Counter // connection (re)establishments
	SegsReceived Counter // seg frames received
	Lag          Gauge   // leader flushed recs − applied recs
	Gen          Gauge   // newest leader generation accepted
}

// Tailer is the follower side of replication: it keeps a byte-exact
// mirror of the leader's data directory (same snap-/wal- file naming, so
// the mirror is itself a valid data dir that durable.Open can open at
// promotion or after a follower restart) while feeding every verified
// record through the handler into warm state.
//
// Ordering: mirror bytes hit the OS before the handler runs, so on a
// follower crash the mirror is always at or ahead of what warm state saw
// — the restart warms from the mirror and resumes tailing from its
// position, and re-shipped records replay as no-ops.
type Tailer struct {
	cfg TailConfig
	gen uint64 // newest leader generation seen (persisted in Dir)

	applied    atomic.Uint64 // lifetime records applied (snapshot base included)
	leader     atomic.Uint64 // leader's flushed recs, from frame metadata
	seg        uint64        // mirror position: current segment
	off        int64         // mirror position: bytes into it
	snapSeq    uint64        // mirror's newest snapshot
	f          *os.File      // open mirror segment
	stopping   atomic.Bool
	progressed atomic.Bool // a frame was applied on the current connection

	connMu sync.Mutex // guards conn and addr against Stop/Retarget
	conn   net.Conn
	addr   string // current leader address (Retarget moves it)
}

// NewTailer prepares a tailer over an existing mirror state. st is the
// mirror's scanned position (from Recover on Dir); the live segment's
// torn tail, if any, is truncated so appended bytes continue a clean
// frame sequence.
func NewTailer(cfg TailConfig, st DirState) (*Tailer, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if fi, err := os.Stat(walPath(cfg.Dir, st.WalSeq)); err == nil && fi.Size() > st.WalOff {
		if err := os.Truncate(walPath(cfg.Dir, st.WalSeq), st.WalOff); err != nil {
			return nil, fmt.Errorf("durable: truncate mirror torn tail: %w", err)
		}
	}
	t := &Tailer{cfg: cfg, gen: ReadGen(cfg.Dir), seg: st.WalSeq, off: st.WalOff, snapSeq: st.SnapSeq, addr: cfg.Addr}
	t.applied.Store(st.Recs)
	if cfg.Gen != nil {
		cfg.Gen.Set(int64(t.gen))
	}
	if t.cfg.Dial == nil {
		t.cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", t.Addr())
		}
	}
	return t, nil
}

// Addr returns the leader address the tailer currently (re)connects to.
func (t *Tailer) Addr() string {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	return t.addr
}

// Retarget points the tailer at a new leader address — after a failover,
// surviving followers move to the promoted node this way. The current
// connection, if any, is closed so the switch takes effect immediately;
// the reconnect hello carries the mirror position, so the new leader
// resumes shipping exactly where the old one stopped.
func (t *Tailer) Retarget(addr string) {
	t.connMu.Lock()
	t.addr = addr
	if t.conn != nil {
		t.conn.Close()
	}
	t.connMu.Unlock()
}

// AppliedRecs returns the lifetime count of records this follower has
// applied (snapshot bases included).
func (t *Tailer) AppliedRecs() uint64 { return t.applied.Load() }

// LeaderRecs returns the leader's last-announced flushed record count;
// lag in records is LeaderRecs − AppliedRecs.
func (t *Tailer) LeaderRecs() uint64 { return t.leader.Load() }

// Gen returns the newest leader generation this tailer has accepted.
func (t *Tailer) Gen() uint64 { return t.gen }

// Stop makes Run return after the in-flight frame finishes applying.
// Frames are applied whole (mirror + warm state together), so a stopped
// tailer's warm state always matches its mirror — the promotion
// invariant.
func (t *Tailer) Stop() {
	t.stopping.Store(true)
	t.connMu.Lock()
	if t.conn != nil {
		t.conn.Close()
	}
	t.connMu.Unlock()
}

// errStaleLeader marks a terminal refusal: the dialed leader's generation
// predates one this mirror has already followed. Retrying cannot help —
// a generation never grows back.
var errStaleLeader = fmt.Errorf("durable: leader generation is stale for this mirror")

// Run tails the leader until ctx is cancelled, Stop is called, or the
// leader turns out to be generation-stale. Connection failures reconnect
// with backoff; the hello carries the mirror position so the leader
// re-ships only what is missing.
func (t *Tailer) Run(ctx context.Context) error {
	// A live leader that has nothing to ship leaves the tailer parked in a
	// blocking read, where ctx cancellation alone cannot reach it. Stop
	// severs the in-flight connection, so wiring it to ctx makes drain
	// prompt even when the leader is healthy and idle.
	unhook := context.AfterFunc(ctx, t.Stop)
	defer unhook()
	defer func() {
		if t.f != nil {
			_ = t.f.Sync() // best-effort: the mirror is re-validated on reconnect
			_ = t.f.Close()
			t.f = nil
		}
	}()
	backoff := t.cfg.BaseBackoff
	for {
		if ctx.Err() != nil || t.stopping.Load() {
			return nil
		}
		t.progressed.Store(false)
		err := t.tailOnce(ctx)
		if t.stopping.Load() || ctx.Err() != nil {
			return nil
		}
		if err == errStaleLeader {
			return err
		}
		if t.progressed.Load() {
			// The connection did useful work, so this failure is a fresh
			// incident, not a continuation of the last one: restart the
			// schedule. Without the reset, a few early failures would tax
			// every later reconnect (torn-chunk resyncs included) with
			// MaxBackoff forever.
			backoff = t.cfg.BaseBackoff
		}
		if err != nil {
			t.cfg.Logf("durable: tail %s: %v (reconnecting in %v)", t.Addr(), err, backoff)
		}
		select {
		case <-time.After(jitter(backoff)):
		case <-ctx.Done():
			return nil
		}
		if backoff *= 2; backoff > t.cfg.MaxBackoff {
			backoff = t.cfg.MaxBackoff
		}
	}
}

func (t *Tailer) tailOnce(ctx context.Context) error {
	conn, err := t.cfg.Dial(ctx)
	if err != nil {
		return err
	}
	t.connMu.Lock()
	t.conn = conn
	stopped := t.stopping.Load()
	t.connMu.Unlock()
	if stopped {
		conn.Close()
		return nil
	}
	defer func() {
		t.connMu.Lock()
		t.conn = nil
		t.connMu.Unlock()
		conn.Close()
	}()
	if t.cfg.Reconnects != nil {
		t.cfg.Reconnects.Add(1)
	}

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 4096)
	hello := shipFrame{T: "hello", Gen: t.gen, Snap: t.snapSeq, Wal: t.seg, Off: t.off, Recs: t.applied.Load()}
	if err := writeFrame(bw, &hello); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	reply, err := readFrame(br)
	if err != nil {
		return err
	}
	switch reply.T {
	case "gen":
		if reply.Gen < t.gen {
			return errStaleLeader
		}
		if reply.Gen > t.gen {
			t.gen = reply.Gen
			if err := WriteGen(t.cfg.Dir, t.gen); err != nil {
				return err
			}
			if t.cfg.Gen != nil {
				t.cfg.Gen.Set(int64(t.gen))
			}
		}
	case "err":
		return fmt.Errorf("leader refused: %s", reply.Msg)
	default:
		return fmt.Errorf("unexpected %q reply to hello", reply.T)
	}

	for {
		fr, err := readFrame(br)
		if err != nil {
			if t.stopping.Load() {
				return nil
			}
			return err
		}
		switch fr.T {
		case "seg":
			if err := t.applySeg(fr, br); err != nil {
				return err
			}
		case "snap":
			if err := t.applySnap(fr, br); err != nil {
				return err
			}
		case "pos":
			t.leader.Store(fr.Recs)
			t.updateLag()
		default:
			return fmt.Errorf("unexpected frame %q", fr.T)
		}
		t.progressed.Store(true)
		// Ack what has been applied; the leader drains these to know the
		// follower is alive and caught up.
		ack := shipFrame{T: "ack", Wal: t.seg, Off: t.off, Recs: t.applied.Load()}
		if err := writeFrame(bw, &ack); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// jitter spreads a backoff sleep over [d/2, d]: a leader death disconnects
// every follower of the group at the same instant, and without jitter
// their reconnect schedules stay phase-locked — each retry wave hits the
// promoted node simultaneously (thundering herd) instead of spreading
// over the window.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// ResetMirror clears a data directory's snapshots and WAL segments while
// keeping the replication generation file, so the next tailer hello
// carries position zero under the generations this mirror has already
// followed — the leader answers with a full reset snapshot (the lagged-
// follower resync path) and the generation guard still refuses a stale
// leader. Rejoin uses it: a deposed leader's local history diverged at
// the failover and must not be resumed from.
func ResetMirror(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, "snap-") || strings.HasPrefix(n, "wal-") {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}

func readFrame(br *bufio.Reader) (*shipFrame, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	fr := &shipFrame{}
	if err := json.Unmarshal(line, fr); err != nil {
		return nil, fmt.Errorf("bad frame %.80q: %w", line, err)
	}
	return fr, nil
}

// applySeg verifies and applies one shipped byte range: CRC-scan the
// chunk, mirror the intact prefix, then run each record through the
// handler. A torn tail inside the chunk (leader died mid-frame, proxy
// mangled bytes) drops the unverified remainder and forces a reconnect —
// the hello then resumes from exactly the last intact frame.
func (t *Tailer) applySeg(fr *shipFrame, br *bufio.Reader) error {
	switch {
	case fr.Seq == t.seg && fr.Off == t.off:
		// contiguous: the common case
	case fr.Seq == t.seg+1 && fr.Off == 0 && fr.Seq > t.snapSeq:
		// previous segment sealed without a compaction marker (the leader
		// only retains its newest snapshot); advance the mirror
		if err := t.closeSeg(); err != nil {
			return err
		}
		t.seg, t.off = fr.Seq, 0
	default:
		// Backward or disjoint motion is refused outright: a stale or
		// confused leader must not rewind the mirror.
		return fmt.Errorf("refusing stale/disjoint seg frame wal-%d@%d (mirror at wal-%d@%d)", fr.Seq, fr.Off, t.seg, t.off)
	}
	// The soft cap (shipChunkMax) does not bound a frame here: a chunk
	// carrying one record frame larger than the cap is legal — only the
	// hard single-frame bound is enforced.
	if fr.Len < 0 || fr.Len > shipFrameMax {
		return fmt.Errorf("seg frame len %d out of range", fr.Len)
	}
	buf := make([]byte, fr.Len)
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	if t.cfg.SegsReceived != nil {
		t.cfg.SegsReceived.Add(1)
	}
	recs, validLen, truncated := scanWALBytes(buf)
	if validLen > 0 {
		if err := t.mirrorWrite(buf[:validLen]); err != nil {
			return err
		}
		for _, r := range recs {
			if err := t.cfg.Handler.ApplyRecord(r); err != nil {
				return fmt.Errorf("apply record: %w", err)
			}
		}
		t.off += validLen
		t.applied.Add(uint64(len(recs)))
		t.progressed.Store(true) // even a torn chunk's intact prefix is progress
		if t.cfg.Applied != nil {
			t.cfg.Applied.Add(int64(len(recs)))
		}
	}
	t.leader.Store(fr.LRecs)
	t.updateLag()
	if truncated {
		return fmt.Errorf("torn frame inside shipped chunk at wal-%d@%d; dropping unverified tail and resyncing", t.seg, t.off)
	}
	return nil
}

// applySnap receives a shipped snapshot: mirror it atomically, hand it to
// the handler, and compact/reposition the mirror exactly as the leader's
// rotation did.
func (t *Tailer) applySnap(fr *shipFrame, br *bufio.Reader) error {
	if fr.Len <= 0 || fr.Len > 1<<31 {
		return fmt.Errorf("snap frame len %d out of range", fr.Len)
	}
	buf := make([]byte, fr.Len)
	if _, err := io.ReadFull(br, buf); err != nil {
		return err
	}
	if !fr.Reset && fr.Seq < t.snapSeq {
		return fmt.Errorf("refusing stale snapshot snap-%d (mirror at snap-%d)", fr.Seq, t.snapSeq)
	}
	snap, err := parseSnapshot(buf)
	if err != nil {
		return fmt.Errorf("shipped snapshot: %w", err)
	}
	if err := t.closeSeg(); err != nil {
		return err
	}
	if fr.Reset {
		// The mirror's history is useless (too far behind to resume):
		// clear it before installing the snapshot.
		entries, err := os.ReadDir(t.cfg.Dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if n := e.Name(); strings.HasPrefix(n, "snap-") || strings.HasPrefix(n, "wal-") {
				os.Remove(filepath.Join(t.cfg.Dir, n))
			}
		}
	}
	if err := writeSnapshotBytes(snapPath(t.cfg.Dir, fr.Seq), buf); err != nil {
		return err
	}
	if err := t.cfg.Handler.ApplySnapshot(snap, fr.Reset); err != nil {
		return fmt.Errorf("apply snapshot: %w", err)
	}
	// Compact the mirror like the leader's rotation: superseded segments
	// and the previous snapshot go away.
	for seq := fr.Seq; seq > 0 && seq+8 > fr.Seq; seq-- {
		os.Remove(walPath(t.cfg.Dir, seq))
	}
	if t.snapSeq > 0 && t.snapSeq != fr.Seq {
		os.Remove(snapPath(t.cfg.Dir, t.snapSeq))
	}
	syncDir(t.cfg.Dir)
	t.snapSeq = fr.Seq
	t.seg, t.off = fr.Seq+1, 0
	t.applied.Store(snap.Recs)
	t.leader.Store(fr.LRecs)
	t.updateLag()
	if t.cfg.SnapsApplied != nil {
		t.cfg.SnapsApplied.Add(1)
	}
	return nil
}

// mirrorWrite appends verified bytes to the mirror's current segment.
// Plain OS writes, no per-chunk fsync: the mirror's durability window is
// the follower process's life, which is the same window its warm state
// lives in — Stop/promotion syncs before handing the dir to durable.Open.
func (t *Tailer) mirrorWrite(b []byte) error {
	if t.f == nil {
		f, err := os.OpenFile(walPath(t.cfg.Dir, t.seg), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		t.f = f
	}
	_, err := t.f.WriteAt(b, t.off)
	return err
}

func (t *Tailer) closeSeg() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Sync()
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	t.f = nil
	return err
}

func (t *Tailer) updateLag() {
	if t.cfg.Lag == nil {
		return
	}
	lag := int64(t.leader.Load()) - int64(t.applied.Load())
	if lag < 0 {
		lag = 0
	}
	t.cfg.Lag.Set(lag)
}

// writeSnapshotBytes mirrors already-encoded snapshot bytes atomically
// (tmp, fsync, rename, dir fsync) — the same discipline writeSnapshot
// applies to locally captured snapshots.
func writeSnapshotBytes(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}
