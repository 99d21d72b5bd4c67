// Command benchmark is the repository's benchmark of record. It runs one
// named workload for a fixed time, checks every output for correctness,
// and prints its metrics by name and unit, ending with one JSON line:
//
//	bash benchmark/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	serve        agentd with preloaded frozen weights, open-loop load ladder
//	serve-learn  the same daemon with -learn -data-dir: training and WAL beside serving
//	tournament   tournament.Run at the CI smoke budget (7 schedulers × 6 regimes)
//	train        sched "ac" on cq-small: Train(500), then one simulated minute deployed
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the same workload runs again with spans around every layer call and
// the JSON carries the per-layer metrics instead. Spans stay in memory
// and are written to .benchrun/trace-<workload>-<seed>.jsonl at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// measures every one of them; "op" is the workload's unit of work:
// one scheduling decision (serve, serve-learn), one smoke tournament
// (tournament) or one Train(500) call (train).
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_rate_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"failed_share", "ratio"},
	{"decide_p99_ms", "ms"},
	{"gen.late_p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"host.steal_pct", "%"},
	{"serve.drain_ms", "ms"},
	{"serve.rtt_us", "us"},
	{"serve.net_us", "us"},
	{"serve.wait_us", "us"},
	{"serve.batch_us", "us"},
	{"serve.batch_rows", "rows"},
	{"serve.batch_residual_us", "us"},
	{"policy.select_us", "us"},
	{"nn.actor_infer_us", "us"},
	{"actionspace.knn_us", "us"},
	{"nn.critic_infer_us", "us"},
	{"policy.residual_us", "us"},
	{"core.codec_ns", "ns"},
	{"serve.train_round_ms", "ms"},
	{"serve.train_rounds", "count"},
	{"core.train_on_batch_ms", "ms"},
	{"serve.weight_swaps", "count"},
	{"serve.transition_ratio", "ratio"},
	{"durable.wal_records", "count"},
	{"durable.wal_mb", "MB"},
	{"durable.wal_dropped", "count"},
	{"durable.snapshots", "count"},
	{"durable.snapshot_mb", "MB"},
	{"sched.train_ms", "ms"},
	{"multisim.build_ms", "ms"},
	{"multisim.run_ms", "ms"},
	{"multisim.events", "count"},
	{"multisim.ns_per_event", "ns"},
	{"tournament.cell_ms_max", "ms"},
	{"tournament.pool_residual_ms", "ms"},
	{"pool.cpu_util", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"core.train_step_ms", "ms"},
	{"core.train_step_calls", "count"},
	{"analytic.eval_us", "us"},
	{"analytic.eval_calls", "count"},
	{"actionspace.knn_calls", "count"},
	{"train.residual_ms", "ms"},
	{"train.cpu_util", "ratio"},
	{"train.policy_tuple_ms", "ms"},
	{"sim.deploy_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
}

// config is what every workload receives.
type config struct {
	root    string        // checkout root (sources, TOURNAMENT_SMOKE.json)
	work    string        // scratch directory for this run, under root/.benchrun
	bin     string        // directory holding the agentd binary
	seed    int64         // workload seed: every generated input derives from it
	seconds time.Duration // measured time budget
	tr      *tracer       // nil unless --trace 1
}

// report is what a workload hands back.
type report struct {
	attempted, failed int64
	// problems lists correctness failures; any makes the run incorrect.
	problems []string
	metrics  map[string]float64
	// lines are the human-readable report, printed before the JSON.
	lines []string
}

func (r *report) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// ladderRow is one layer's share of an end-to-end time.
type ladderRow struct {
	name string
	v    float64
}

// ladder prints rows with their share of total, then the total.
func (r *report) ladder(title string, rows []ladderRow, totalName string, total float64, note string) {
	r.printf("%s", title)
	for _, row := range rows {
		r.printf("  %-58s %10.1f  %5.1f%%", row.name, row.v, 100*row.v/total)
	}
	r.printf("  %-58s %10.1f  (%s)", totalName, total, note)
}

var workloads = map[string]func(cfg config) (*report, error){
	"serve":       func(cfg config) (*report, error) { return runServe(cfg, false) },
	"serve-learn": func(cfg config) (*report, error) { return runServe(cfg, true) },
	"tournament":  runTournament,
	"train":       runTrain,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: serve|serve-learn|tournament|train")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("bin", ".benchrun/bin", "directory holding the agentd binary")
	)
	flag.Parse()
	// The load generator and the in-process workloads share one process
	// sized for a 2-CPU host.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload serve|serve-learn|tournament|train --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		root:    *root,
		bin:     *bin,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	var err error
	if cfg.work, err = os.MkdirTemp(filepath.Join(*root, ".benchrun"), *workload+"-"); err != nil {
		fail(err)
	}
	total0, steal0 := hostTicks()
	rep, err := run(cfg)
	total1, steal1 := hostTicks()
	os.RemoveAll(cfg.work)
	if err != nil {
		fail(err)
	}
	if total1 > total0 {
		stolen := 100 * (steal1 - steal0) / (total1 - total0)
		rep.set("host.steal_pct", stolen)
		rep.printf("host: %.1f%% of CPU time was stolen by the hypervisor during the run", stolen)
	}
	if cfg.tr != nil {
		path := filepath.Join(*root, ".benchrun", fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			fail(err)
		}
		rep.printf("spans written to %s", path)
	}
	if rep.attempted > 0 {
		rep.set("failed_share", float64(rep.failed)/float64(rep.attempted))
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("INCORRECT:", p)
	}
	defs := endToEnd
	if cfg.tr != nil {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && cfg.tr == nil {
			missing = append(missing, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		out.Correct = false
		fmt.Println("INCORRECT: not measured:", strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// maxRSSMB is this process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat: the
// total over all states and the part the hypervisor gave to other
// guests, one visible source of run-to-run noise on a shared VM.
func hostTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
