// Command agentd is the DRL scheduling agent daemon: the external agent
// process of the paper's Figure 1 architecture, grown into a multi-tenant
// service. It accepts any number of concurrent scheduler sessions over the
// NDJSON protocol (one session per topology), coalesces their state→action
// requests into batched neural-network passes, sheds load explicitly under
// backpressure, and exports /metrics and /healthz over HTTP.
//
// Usage:
//
//	agentd -listen 127.0.0.1:7700 -http 127.0.0.1:7701
//
// Trained weights from cmd/train can be installed for one topology shape:
//
//	agentd -n 24 -m 8 -spouts 3 -actor actor.net -critic critic.net
//
// Sessions for other shapes get freshly initialized networks.
//
// With -learn the daemon keeps improving from live measurements: sessions
// feed their (state, action, reward) transitions into a per-model replay
// buffer, a background trainer runs batched actor-critic updates, and
// inference swaps in the new weights between micro-batches. -checkpoint-dir
// with -checkpoint-every persists the learned weights periodically:
//
//	agentd -learn -checkpoint-dir /var/lib/agentd -checkpoint-every 1m
//
// Disconnected schedulers resume their sessions by presenting the token
// from their first hello reply; detached session state is kept for
// -session-ttl.
//
// With -data-dir the daemon is crash-safe: session state, distilled
// transitions and learned weights are journaled to a CRC-framed WAL and
// compacted into atomic snapshots, and a restarted daemon — even after
// SIGKILL — recovers them on boot, so old resumption tokens keep working
// and learning continues from the last snapshot:
//
//	agentd -learn -data-dir /var/lib/agentd -fsync-interval 100ms -snapshot-every 1m
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/nn"
	"repro/internal/serve"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7700", "scheduler session listen address")
		httpAddr = flag.String("http", "127.0.0.1:7701", "HTTP control surface address (/metrics, /healthz); empty disables")
		sessions = flag.Int("max-sessions", 4096, "max concurrent scheduler sessions")
		shards   = flag.Int("accept-shards", 0, "accept-loop goroutines sharing the listener (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 1024, "per-model pending inference queue depth")
		maxBatch = flag.Int("max-batch", 64, "max inference micro-batch size (1 = per-request)")
		idle     = flag.Duration("idle-timeout", 2*time.Minute, "per-session idle timeout")
		k        = flag.Int("k", 8, "K-NN candidates scored by the critic")
		seed     = flag.Int64("seed", 1, "seed for per-model network initialization")
		n        = flag.Int("n", 0, "executors of the preloaded topology (with -actor/-critic)")
		m        = flag.Int("m", 0, "machines of the preloaded topology")
		spouts   = flag.Int("spouts", 0, "data sources of the preloaded topology")
		actorF   = flag.String("actor", "", "actor network checkpoint (cmd/train format)")
		criticF  = flag.String("critic", "", "critic network checkpoint (cmd/train format)")

		learn      = flag.Bool("learn", false, "learn online from session measurements (batched AC updates + atomic weight swaps)")
		trainEvery = flag.Duration("train-interval", 100*time.Millisecond, "background trainer cadence (with -learn)")
		trainBatch = flag.Int("train-batch", 32, "training mini-batch size (with -learn)")
		updates    = flag.Int("train-updates", 4, "mini-batch updates per train round (with -learn)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for periodic weight checkpoints (with -learn)")
		ckptEvery  = flag.Duration("checkpoint-every", time.Minute, "checkpoint cadence (with -learn and -checkpoint-dir)")
		sessTTL    = flag.Duration("session-ttl", 10*time.Minute, "how long detached sessions stay resumable")

		dataDir   = flag.String("data-dir", "", "durability directory: journal sessions/transitions to a CRC-framed WAL, compact into atomic snapshots, and recover everything on restart (empty disables)")
		fsyncInt  = flag.Duration("fsync-interval", 100*time.Millisecond, "WAL flush+fsync cadence — bounds acknowledged state a crash can lose (negative = fsync every record; with -data-dir)")
		snapEvery = flag.Duration("snapshot-every", time.Minute, "WAL compaction cadence; a final snapshot is always written on drain (with -data-dir)")

		replListen = flag.String("repl-listen", "", "WAL shipping listen address for followers (with -data-dir; empty disables)")
		replFrom   = flag.String("replicate-from", "", "run as a follower of the leader shipping on this address: tail its WAL into -data-dir instead of serving, until promoted via POST /promote")
	)
	flag.Parse()

	s := serve.New(serve.Config{
		MaxSessions:     *sessions,
		AcceptShards:    *shards,
		QueueDepth:      *queue,
		MaxBatch:        *maxBatch,
		IdleTimeout:     *idle,
		K:               *k,
		Seed:            *seed,
		SessionTTL:      *sessTTL,
		Learn:           *learn,
		TrainInterval:   *trainEvery,
		TrainBatch:      *trainBatch,
		UpdatesPerRound: *updates,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		DataDir:         *dataDir,
		FsyncInterval:   *fsyncInt,
		SnapshotEvery:   *snapEvery,
		ReplListen:      *replListen,
		ReplicateFrom:   *replFrom,
	})
	if *learn {
		log.Printf("agentd: online learning enabled (train every %v, batch %d, %d updates/round)", *trainEvery, *trainBatch, *updates)
	}
	if *dataDir != "" {
		log.Printf("agentd: durable mode: data dir %s (fsync every %v, snapshot every %v); sessions and learned weights survive restarts", *dataDir, *fsyncInt, *snapEvery)
	}
	if *replFrom != "" {
		log.Printf("agentd: follower mode: tailing %s into %s (not serving until promoted)", *replFrom, *dataDir)
	}

	if *actorF != "" || *criticF != "" {
		if *n <= 0 || *m <= 0 || *spouts <= 0 {
			fail(fmt.Errorf("-actor/-critic need the topology shape: -n, -m and -spouts"))
		}
		pol, err := s.Preload(*n, *m, *spouts)
		if err != nil {
			fail(err)
		}
		actor, err := loadNet(*actorF)
		if err != nil {
			fail(err)
		}
		critic, err := loadNet(*criticF)
		if err != nil {
			fail(err)
		}
		if err := pol.SetNetworks(actor, critic); err != nil {
			fail(err)
		}
		log.Printf("agentd: preloaded %dx%d/%d model from %s, %s", *n, *m, *spouts, *actorF, *criticF)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	log.Printf("agentd: serving scheduler sessions on %s", l.Addr())

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = &http.Server{Addr: *httpAddr, Handler: s.Handler()}
		go func() {
			log.Printf("agentd: control surface on http://%s/metrics", *httpAddr)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("agentd: http: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = s.Serve(ctx, l)
	if *learn && *ckptDir != "" {
		// Final checkpoint on drain so an orderly shutdown never loses
		// more than the in-flight train round.
		if cerr := s.Checkpoint(*ckptDir); cerr != nil {
			log.Printf("agentd: final checkpoint: %v", cerr)
		} else {
			log.Printf("agentd: final checkpoint written to %s", *ckptDir)
		}
	}
	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = httpSrv.Shutdown(shutCtx)
		cancel()
	}
	if err != nil {
		fail(err)
	}
	log.Printf("agentd: drained, bye")
}

func loadNet(path string) (*nn.Network, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var net nn.Network
	if err := net.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &net, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "agentd:", err)
	os.Exit(1)
}
