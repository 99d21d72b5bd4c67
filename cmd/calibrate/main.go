// Command calibrate probes the consolidation/latency trade-off of the
// simulated systems and the quality of each scheduling method against it —
// the tool used to calibrate the reproduction's cost constants (the
// defaults in sim.DefaultConfig) and to sanity-check agent training.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro"
	"repro/internal/analytic"
	"repro/internal/apps"
	"repro/internal/sim"
)

func main() {
	mode := flag.String("mode", "curves", "curves|agents")
	app := flag.String("app", "", "restrict to one app: cq-small|cq-medium|cq-large|log|wc")
	offline := flag.Int("offline", 1500, "agent offline samples (agents mode)")
	online := flag.Int("online", 600, "agent online epochs (agents mode)")
	k := flag.Int("k", 0, "actor-critic K override (agents mode)")
	updates := flag.Int("updates", 0, "actor-critic updates per step override")
	epsDecay := flag.Float64("epsdecay", 0, "epsilon decay override")
	only := flag.String("only", "", "restrict agents mode to one method: mb|dqn|ac")
	flag.Parse()

	for _, entry := range []struct {
		key  string
		make func() (*apps.System, error)
	}{
		{"cq-small", func() (*apps.System, error) { return apps.ContinuousQueries(apps.Small) }},
		{"cq-medium", func() (*apps.System, error) { return apps.ContinuousQueries(apps.Medium) }},
		{"cq-large", func() (*apps.System, error) { return apps.ContinuousQueries(apps.Large) }},
		{"log", apps.LogStream},
		{"wc", apps.WordCount},
	} {
		if *app != "" && *app != entry.key {
			continue
		}
		sys, err := entry.make()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		switch *mode {
		case "curves":
			curves(sys)
		case "agents":
			agents(sys, *offline, *online, *k, *epsDecay, *only, *updates)
		}
	}
}

func curves(sys *apps.System) {
	n, m := sys.Top.NumExecutors(), sys.Cl.Size()
	senv := &sim.Env{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals, Seed: 1, HorizonMS: 60000}
	aenv, _ := analytic.New(sys.Top, sys.Cl, sys.Arrivals)
	fmt.Printf("== %s (N=%d)\n", sys.Name, n)
	for k := 1; k <= m; k++ {
		a := make([]int, n)
		for i := range a {
			a[i] = i % k
		}
		fmt.Printf("  k=%2d  A=%8.3f DES=%8.3f\n", k, aenv.AvgTupleTimeMS(a), senv.AvgTupleTimeMS(a))
	}
	rng := rand.New(rand.NewSource(2))
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i % m
	}
	curV := aenv.AvgTupleTimeMS(cur)
	best := append([]int(nil), cur...)
	bestV := curV
	for it := 0; it < 20000; it++ {
		th, mm := rng.Intn(n), rng.Intn(m)
		old := cur[th]
		if old == mm {
			continue
		}
		cur[th] = mm
		v := aenv.AvgTupleTimeMS(cur)
		if v <= curV+0.01*rng.Float64() {
			curV = v
			if v < bestV {
				bestV = v
				copy(best, cur)
			}
		} else {
			cur[th] = old
		}
	}
	rr := make([]int, n)
	for i := range rr {
		rr[i] = i % m
	}
	fmt.Printf("  search best A=%.3f DES=%.3f | RR/best(DES)=%.2f\n",
		bestV, senv.AvgTupleTimeMS(best), senv.AvgTupleTimeMS(rr)/senv.AvgTupleTimeMS(best))
}

func agents(sys *apps.System, offline, online, k int, epsDecay float64, only string, updates int) {
	fmt.Printf("== %s agents (offline=%d online=%d k=%d eps=%v updates=%d)\n", sys.Name, offline, online, k, epsDecay, updates)
	senv := &sim.Env{Top: sys.Top, Cl: sys.Cl, Arrivals: sys.Arrivals, Seed: 7, HorizonMS: 60000}
	aenv, _ := analytic.New(sys.Top, sys.Cl, sys.Arrivals)
	n, m := sys.Top.NumExecutors(), sys.Cl.Size()
	rr := make([]int, n)
	for i := range rr {
		rr[i] = i % m
	}
	fmt.Printf("  round-robin        A=%.3f DES=%.3f\n", aenv.AvgTupleTimeMS(rr), senv.AvgTupleTimeMS(rr))

	if only == "" || only == "mb" {
		mb, err := repro.NewModelBasedScheduler(sys, 3).Schedule(aenv)
		if err != nil {
			fmt.Println("  model-based err:", err)
		} else {
			fmt.Printf("  model-based        A=%.3f DES=%.3f\n", aenv.AvgTupleTimeMS(mb), senv.AvgTupleTimeMS(mb))
		}
	}

	for _, kind := range []string{"dqn", "ac"} {
		if only != "" && only != kind {
			continue
		}
		var agent repro.Agent
		if kind == "ac" {
			cfg := repro.DefaultACConfig()
			if k > 0 {
				cfg.K = k
			}
			if epsDecay > 0 {
				cfg.Epsilon.Decay = epsDecay
			}
			if updates > 0 {
				cfg.UpdatesPerStep = updates
			}
			agent = repro.NewActorCriticAgentWith(sys, cfg, 9)
		} else {
			agent = repro.NewDQNAgent(sys, 9)
		}
		ctrl := repro.NewController(aenv, agent)
		if err := ctrl.CollectOffline(offline); err != nil {
			fmt.Println("  err:", err)
			continue
		}
		ctrl.OnlineLearn(online, nil)
		sol := ctrl.GreedySolution()
		fmt.Printf("  %-18s A=%.3f DES=%.3f\n", kind, aenv.AvgTupleTimeMS(sol), senv.AvgTupleTimeMS(sol))
	}
}
