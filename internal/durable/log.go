package durable

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Log is an open durable data directory: the current WAL segment behind a
// buffered asynchronous writer, plus the snapshot rotation machinery.
//
// Appends never block the caller: records go into a bounded channel the
// writer goroutine drains (dropping — and counting — records when the
// buffer is full, so a stalled disk degrades durability visibly instead
// of stalling the serving path). AppendBlocking is the exception for
// records whose loss is not a bounded-window data loss but a permanent
// correctness error (eviction tombstones: a dropped tombstone resurrects
// the evicted session on every future recovery).
//
// Sync, Snapshot and Close are barriers: their op goes through the same
// FIFO channel the records do, and enqueueing it blocks until the buffer
// has room — so a full buffer delays the barrier rather than letting it
// jump the queue, and every record accepted before the barrier call is
// durably on disk when the barrier returns. A drop can therefore never
// straddle a barrier: records the barrier caller observed as accepted are
// flushed by it, and records dropped before it were never accepted.
type Log struct {
	dir string
	cfg LogConfig

	ops  chan walOp
	done chan struct{}

	closed atomic.Bool // appends after close are dropped, not sent

	mu sync.Mutex // serializes barrier ops (Sync/Snapshot/Close/Crash)

	// Sequence numbers are atomics, NOT guarded by mu: the writer
	// goroutine updates them during rotation while a barrier caller may
	// be blocked holding mu on a full ops channel that only the writer
	// can drain — guarding them with mu would deadlock that pair.
	walSeq  atomic.Uint64 // current segment number
	snapSeq atomic.Uint64 // newest snapshot number (0 = none)

	// posMu guards pos, the flushed (readable-for-replication) position.
	// A leaf lock: the writer takes it briefly after each flush, readers
	// (the shipping server) poll it on flush notifications.
	posMu sync.Mutex
	pos   Position

	// watchMu guards watchers, each a 1-buffered channel signalled
	// (coalesced) after every flush and rotation.
	watchMu  sync.Mutex
	watchers []chan struct{}

	// writer-goroutine state
	f     *os.File
	bw    *bufio.Writer
	buf   []byte
	dirty bool
	off   int64  // bytes written to the current segment (buffered included)
	recs  uint64 // lifetime records written to this data dir (see Position)
}

// Position is a durable stream position: a byte offset into one WAL
// segment, plus the lifetime count of records at or before it. Recs
// counts every record ever written to the data directory — it is rebased
// from the newest snapshot's Recs field on Open, so it survives restarts
// and compactions; replication lag is the difference between two Recs.
type Position struct {
	Seg  uint64 // segment the offset refers to
	Off  int64  // flushed bytes into that segment
	Recs uint64 // lifetime records flushed
}

// LogConfig configures Open.
type LogConfig struct {
	// FsyncInterval is how often buffered records are flushed and fsynced
	// (default 100ms); it bounds the state a crash can lose. Negative
	// syncs after every record.
	FsyncInterval time.Duration
	// Buffer is the async append queue depth (default 8192 records).
	Buffer int
	// Metrics are optional counter hooks.
	Metrics Metrics
	// Logf, when set, receives recovery/rotation diagnostics.
	Logf func(format string, args ...any)

	// gate, when set (tests only), is received from before the writer
	// processes each op — the hook that holds the writer mid-queue so
	// buffer-overflow and barrier-ordering behavior is reproducible.
	// Close the channel to release the writer permanently.
	gate chan struct{}
}

// Recovered is what Open found on disk: the newest snapshot (nil on a
// fresh directory) and every WAL record after it, in append order. The
// caller applies it (snapshot first, then records) before serving.
type Recovered struct {
	Snapshot *Snapshot
	Records  []*Record
	// Truncated reports that a torn tail / bad frame was discarded from
	// the live segment (the file was truncated to the last intact
	// record before reopening for append).
	Truncated bool
}

// DirState is a scanned data directory's durable position: where Open
// would resume appending, and the lifetime record count at that point.
// The replication follower hellos with it so the leader ships exactly the
// suffix it is missing.
type DirState struct {
	SnapSeq uint64 // newest snapshot seq (0 = none)
	WalSeq  uint64 // segment Open appends to
	WalOff  int64  // intact-prefix size of that segment (0 if absent)
	Recs    uint64 // lifetime record count (snapshot base + scanned tail)
}

type walOp struct {
	rec   *Record
	block bool          // rec came through AppendBlocking (tombstones)
	sync  chan error    // non-nil: flush+fsync barrier, reply on chan
	snap  *snapshotOp   // non-nil: snapshot + rotate
	stop  chan error    // non-nil: flush, fsync, close file, exit
	die   chan struct{} // non-nil: close file without flushing (crash test hook)
}

type snapshotOp struct {
	capture func() (*Snapshot, error)
	reply   chan error
}

func (c LogConfig) withDefaults() LogConfig {
	if c.FsyncInterval == 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.Buffer <= 0 {
		c.Buffer = 8192
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d.json", seq))
}
func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", seq))
}

// Recover scans a data directory read-only: it loads the newest snapshot,
// replays every surviving WAL segment, and reports the durable position —
// without opening the directory for append or truncating anything. The
// replication follower uses it to warm its state from the mirror it kept
// before tailing the leader for the rest.
func Recover(dir string, cfg LogConfig) (*Recovered, DirState, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, DirState{}, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	return recoverDir(dir, cfg)
}

// recoverDir is the shared scan behind Open and Recover.
func recoverDir(dir string, cfg LogConfig) (*Recovered, DirState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, DirState{}, fmt.Errorf("durable: open %s: %w", dir, err)
	}

	var snapSeqs, walSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json"):
			if seq, err := strconv.ParseUint(name[5:len(name)-5], 10, 64); err == nil {
				snapSeqs = append(snapSeqs, seq)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64); err == nil {
				walSeqs = append(walSeqs, seq)
			}
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })

	rec := &Recovered{}
	st := DirState{}
	if n := len(snapSeqs); n > 0 {
		st.SnapSeq = snapSeqs[n-1]
		snap, err := loadSnapshot(snapPath(dir, st.SnapSeq))
		if err != nil {
			// A half-written snapshot cannot exist (tmp+rename), so a
			// snapshot that fails to load is real corruption or a version
			// gap — refuse loudly rather than silently discard learned
			// state.
			return nil, st, fmt.Errorf("durable: snapshot %s: %w", snapPath(dir, st.SnapSeq), err)
		}
		rec.Snapshot = snap
		st.Recs = snap.Recs
	}

	// Replay every surviving segment in order. Segments at or below the
	// snapshot seq can linger if a crash hit the rotation window between
	// snapshot rename and segment deletion; their records predate the
	// snapshot and replay as no-ops under the generation guards (their
	// record count is already inside the snapshot's Recs base, so they do
	// not count again).
	st.WalSeq = st.SnapSeq + 1
	if n := len(walSeqs); n > 0 && walSeqs[n-1] >= st.WalSeq {
		st.WalSeq = walSeqs[n-1]
	}
	for _, seq := range walSeqs {
		recs, validLen, truncated, err := scanWALFile(walPath(dir, seq))
		if err != nil {
			return nil, st, fmt.Errorf("durable: wal %s: %w", walPath(dir, seq), err)
		}
		rec.Records = append(rec.Records, recs...)
		if seq > st.SnapSeq {
			st.Recs += uint64(len(recs))
		}
		if seq == st.WalSeq {
			st.WalOff = validLen
		}
		if truncated {
			rec.Truncated = true
			cfg.Logf("durable: wal-%d: discarded torn/corrupt tail after %d bytes (%d intact records)", seq, validLen, len(recs))
		}
	}
	return rec, st, nil
}

// Open opens (creating if needed) a data directory, recovers its
// contents, and starts the async writer on the live segment. The returned
// Recovered holds everything the caller must re-apply; the Log is ready
// for appends immediately.
func Open(dir string, cfg LogConfig) (*Log, *Recovered, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	rec, st, err := recoverDir(dir, cfg)
	if err != nil {
		return nil, nil, err
	}
	if rec.Truncated {
		// The live segment is reopened for append below; cut the garbage
		// first so the file stays a clean frame sequence. (Torn tails in
		// older segments are left alone — they are never appended to.)
		if fi, serr := os.Stat(walPath(dir, st.WalSeq)); serr == nil && fi.Size() > st.WalOff {
			if err := os.Truncate(walPath(dir, st.WalSeq), st.WalOff); err != nil {
				return nil, nil, fmt.Errorf("durable: truncate torn tail of wal-%d: %w", st.WalSeq, err)
			}
		}
	}
	f, err := os.OpenFile(walPath(dir, st.WalSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open wal-%d: %w", st.WalSeq, err)
	}

	l := &Log{
		dir:  dir,
		cfg:  cfg,
		ops:  make(chan walOp, cfg.Buffer),
		done: make(chan struct{}),
		f:    f,
		bw:   bufio.NewWriterSize(f, 1<<16),
		off:  st.WalOff,
		recs: st.Recs,
	}
	l.walSeq.Store(st.WalSeq)
	l.snapSeq.Store(st.SnapSeq)
	l.pos = Position{Seg: st.WalSeq, Off: st.WalOff, Recs: st.Recs}
	go l.writer()
	return l, rec, nil
}

// SnapSeq returns the newest snapshot's sequence number (0 before any).
func (l *Log) SnapSeq() uint64 { return l.snapSeq.Load() }

// FlushedPos returns the durable stream position: everything at or before
// it is flushed to the segment file and safe for a replication reader.
func (l *Log) FlushedPos() Position {
	l.posMu.Lock()
	defer l.posMu.Unlock()
	return l.pos
}

// Watch returns a channel signalled (coalesced to one pending signal)
// after every flush and rotation — the replication shipper's cue that
// FlushedPos moved — plus a cancel that unregisters it (follower
// connections come and go; their watchers must not accumulate).
func (l *Log) Watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	l.watchMu.Lock()
	l.watchers = append(l.watchers, ch)
	l.watchMu.Unlock()
	cancel := func() {
		l.watchMu.Lock()
		for i, w := range l.watchers {
			if w == ch {
				l.watchers = append(l.watchers[:i], l.watchers[i+1:]...)
				break
			}
		}
		l.watchMu.Unlock()
	}
	return ch, cancel
}

// Done returns a channel closed when the writer goroutine has exited
// (after Close or Crash).
func (l *Log) Done() <-chan struct{} { return l.done }

func (l *Log) notifyWatchers() {
	l.watchMu.Lock()
	for _, ch := range l.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	l.watchMu.Unlock()
}

// Append enqueues one record. It never blocks and never takes the
// barrier lock: when the async buffer is full (or the log is closed) the
// record is dropped and counted — durability backpressure must not become
// serving backpressure.
func (l *Log) Append(r *Record) {
	if l.closed.Load() {
		l.cfg.Metrics.add(l.cfg.Metrics.Dropped, 1)
		return
	}
	select {
	case l.ops <- walOp{rec: r}:
	default:
		l.cfg.Metrics.add(l.cfg.Metrics.Dropped, 1)
	}
}

// AppendBlocking enqueues one record, waiting for buffer space instead of
// dropping on overflow. It exists for records whose loss is a permanent
// correctness error rather than a bounded data loss: an eviction
// tombstone that is dropped silently resurrects the evicted session on
// every future recovery, where a dropped epoch record merely loses one
// epoch's tail. Returns false only when the log is already closed (the
// record then cannot be written at all, which is counted as a drop).
func (l *Log) AppendBlocking(r *Record) bool {
	if l.closed.Load() {
		l.cfg.Metrics.add(l.cfg.Metrics.Dropped, 1)
		return false
	}
	select {
	case l.ops <- walOp{rec: r, block: true}:
		return true
	case <-l.done:
		// The writer exited (Close/Crash raced ahead of us).
		l.cfg.Metrics.add(l.cfg.Metrics.Dropped, 1)
		return false
	}
}

// barrier sends op and waits for the writer's reply; reply must be a
// 1-buffered channel already stored in op. The send blocks until the
// (FIFO) buffer has room, so everything accepted before the barrier is
// processed before it.
func (l *Log) barrier(op walOp, reply chan error) error {
	l.mu.Lock()
	if l.closed.Load() {
		l.mu.Unlock()
		return fmt.Errorf("durable: log closed")
	}
	l.ops <- op
	l.mu.Unlock()
	return <-reply
}

// Sync flushes and fsyncs everything appended before the call.
func (l *Log) Sync() error {
	reply := make(chan error, 1)
	return l.barrier(walOp{sync: reply}, reply)
}

// Snapshot drains pending appends, captures a snapshot via the callback
// (which runs on the writer goroutine, so it sits at a record boundary),
// writes it atomically, rotates to a fresh WAL segment, and deletes the
// superseded files. The callback's Snapshot gets its Version, Seq and
// Recs filled in here. A capture error aborts the snapshot; the current
// segment keeps appending.
func (l *Log) Snapshot(capture func() (*Snapshot, error)) error {
	reply := make(chan error, 1)
	return l.barrier(walOp{snap: &snapshotOp{capture: capture, reply: reply}}, reply)
}

// Close flushes, fsyncs and closes the log. Further appends are dropped.
func (l *Log) Close() error {
	reply := make(chan error, 1)
	l.mu.Lock()
	if l.closed.Swap(true) {
		l.mu.Unlock()
		return nil
	}
	l.ops <- walOp{stop: reply}
	l.mu.Unlock()
	err := <-reply
	<-l.done
	return err
}

// Crash closes the log WITHOUT flushing buffered records — the test hook
// that makes "the process died between fsyncs" reproducible in-process.
func (l *Log) Crash() {
	die := make(chan struct{})
	l.mu.Lock()
	if l.closed.Swap(true) {
		l.mu.Unlock()
		return
	}
	l.ops <- walOp{die: die}
	l.mu.Unlock()
	<-die
	<-l.done
}

// writer is the single goroutine that owns the segment file.
func (l *Log) writer() {
	defer close(l.done)
	var tick *time.Ticker
	var tickC <-chan time.Time
	if l.cfg.FsyncInterval > 0 {
		tick = time.NewTicker(l.cfg.FsyncInterval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case op := <-l.ops:
			if l.cfg.gate != nil {
				<-l.cfg.gate
			}
			switch {
			case op.rec != nil:
				l.writeRecord(op.rec)
				if l.cfg.FsyncInterval < 0 {
					l.flushSync()
				}
			case op.sync != nil:
				op.sync <- l.flushSync()
			case op.snap != nil:
				op.snap.reply <- l.rotate(op.snap.capture)
			case op.stop != nil:
				err := l.flushSync()
				if cerr := l.f.Close(); err == nil {
					err = cerr
				}
				op.stop <- err
				return
			case op.die != nil:
				l.f.Close() // deliberately no flush: simulated crash
				close(op.die)
				return
			}
		case <-tickC:
			if l.dirty {
				l.flushSync()
			}
		}
	}
}

func (l *Log) writeRecord(r *Record) {
	var err error
	l.buf, err = appendRecord(l.buf[:0], r)
	if err != nil {
		l.cfg.Logf("durable: dropping unencodable record: %v", err)
		l.cfg.Metrics.add(l.cfg.Metrics.Dropped, 1)
		return
	}
	if _, err := l.bw.Write(l.buf); err != nil {
		l.cfg.Logf("durable: wal-%d write: %v", l.walSeq.Load(), err)
		l.cfg.Metrics.add(l.cfg.Metrics.Dropped, 1)
		return
	}
	l.dirty = true
	l.off += int64(len(l.buf))
	l.recs++
	l.cfg.Metrics.add(l.cfg.Metrics.Records, 1)
	l.cfg.Metrics.add(l.cfg.Metrics.Bytes, int64(len(l.buf)))
}

func (l *Log) flushSync() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.publishPos()
	return nil
}

// publishPos records the flushed position and wakes replication watchers.
func (l *Log) publishPos() {
	l.posMu.Lock()
	l.pos = Position{Seg: l.walSeq.Load(), Off: l.off, Recs: l.recs}
	l.posMu.Unlock()
	l.notifyWatchers()
}

// rotate is the compaction step: capture → write snap-<walSeq> → open
// wal-<walSeq+1> → delete superseded files.
func (l *Log) rotate(capture func() (*Snapshot, error)) error {
	if err := l.flushSync(); err != nil {
		return fmt.Errorf("durable: pre-snapshot sync: %w", err)
	}
	snap, err := capture()
	if err != nil {
		return fmt.Errorf("durable: snapshot capture: %w", err)
	}
	oldWal, oldSnap := l.walSeq.Load(), l.snapSeq.Load()
	snap.Version = SnapshotVersion
	snap.Seq = oldWal
	snap.Recs = l.recs
	if err := writeSnapshot(snapPath(l.dir, oldWal), snap); err != nil {
		return err
	}
	newSeq := oldWal + 1
	nf, err := os.OpenFile(walPath(l.dir, newSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open wal-%d: %w", newSeq, err)
	}
	l.f.Close()

	l.f = nf
	l.bw = bufio.NewWriterSize(nf, 1<<16)
	l.dirty = false
	l.off = 0
	l.walSeq.Store(newSeq)
	l.snapSeq.Store(oldWal)
	l.publishPos()

	// Best-effort cleanup: leftovers are harmless (replay no-ops) and
	// removed at the next rotation.
	for seq := oldWal; seq > 0 && seq+8 > oldWal; seq-- {
		os.Remove(walPath(l.dir, seq))
	}
	if oldSnap > 0 {
		os.Remove(snapPath(l.dir, oldSnap))
	}
	syncDir(l.dir)
	l.cfg.Metrics.add(l.cfg.Metrics.Snapshots, 1)
	l.cfg.Logf("durable: snapshot snap-%d written, wal rotated to wal-%d", oldWal, newSeq)
	return nil
}

// writeSnapshot writes snap atomically: tmp file, fsync, rename, dir
// fsync. A crash at any point leaves either the old snapshot set or the
// new one, never a half-written file under the final name. The JSON is
// streamed through a buffered writer — replay-heavy snapshots run to
// tens of MB, and materializing them with json.Marshal doubles the
// snapshot's GC bill on the core the serving path is using.
func writeSnapshot(path string, snap *Snapshot) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := json.NewEncoder(bw).Encode(snap); err != nil {
		f.Close()
		return fmt.Errorf("durable: encode snapshot: %w", err)
	}
	if err := bw.Flush(); err != nil {
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

// parseSnapshot decodes snapshot bytes with the same version policy as
// loading from disk: any version other than this build's is a hard error.
func parseSnapshot(data []byte) (*Snapshot, error) {
	// One decode on the happy path (snapshots run to tens of MB; parsing
	// twice doubles recovery's JSON bill). A failed decode re-probes just
	// the version field so a format bump still fails with "unsupported
	// version" rather than an opaque field error.
	snap := &Snapshot{}
	if decodeErr := json.Unmarshal(data, snap); decodeErr != nil {
		var head struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(data, &head) == nil && head.Version != SnapshotVersion {
			return nil, fmt.Errorf("unsupported snapshot version %d (this build reads version %d); refusing to guess at persisted state",
				head.Version, SnapshotVersion)
		}
		return nil, fmt.Errorf("corrupt snapshot: %w", decodeErr)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d (this build reads version %d); refusing to guess at persisted state",
			snap.Version, SnapshotVersion)
	}
	return snap, nil
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSnapshot(data)
}

// syncDir fsyncs a directory so renames/creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
