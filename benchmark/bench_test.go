package main

import (
	"math"
	"testing"
	"time"
)

// Self-tests of the benchmark's own arithmetic on synthetic inputs:
//
//	cd benchmark && go test .

func TestQuantileIsNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.505, 51}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 20000; n++ {
		q := tailLevel(n)
		beyond := func(q float64) int { return n - int(math.Ceil(q*float64(n))) }
		if q != 0.5 && beyond(q) < 10 {
			t.Fatalf("n=%d: tail level %v leaves %d samples beyond it", n, q, beyond(q))
		}
		for _, higher := range tailLevels {
			if higher > q && beyond(higher) >= 10 {
				t.Fatalf("n=%d: chose %v though %v also leaves ten beyond", n, q, higher)
			}
		}
	}
	for n, want := range map[int]float64{999: 0.9, 1000: 0.99, 9999: 0.99, 10000: 0.999} {
		if got := tailLevel(n); got != want {
			t.Errorf("tailLevel(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSummarizeCountsMissedAsInfinite(t *testing.T) {
	v := make([]float64, 0, 1000)
	for i := 0; i < 985; i++ {
		v = append(v, 1+float64(i%10)/10)
	}
	for i := 0; i < 15; i++ {
		v = append(v, math.Inf(1))
	}
	s := summarize(v)
	if s.N != 1000 || s.TailQ != 0.99 {
		t.Fatalf("N=%d TailQ=%v, want 1000 and 0.99", s.N, s.TailQ)
	}
	if !math.IsInf(s.Tail, 1) {
		t.Errorf("p99 with 1.5%% missed = %v, want +Inf", s.Tail)
	}
	if s.P50 != 1.5 { // 99 samples of each of 1.0 … 1.4 lie below rank 500
		t.Errorf("P50 = %v, want 1.5", s.P50)
	}
	if want := 1.45; math.Abs(s.Mean-want) > 0.01 {
		t.Errorf("Mean of the finite samples = %v, want about %v", s.Mean, want)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},      // overlaps the first: counted once
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},     // clipped to the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},      // a grandchild: only its parent's self shrinks
		{ID: 6, Parent: 0, Name: "cell", Start: 200, End: 210}, // no children: all self
	}
	ly := aggregate(spans)
	if got := ly["cell"]; got.Count != 2 || got.Total != 110 || got.Self != 50+10 || got.MaxDur != 100 {
		t.Errorf("cell = %+v, want count 2, total 110, self 60, max 100", *got)
	}
	if got := ly["a"]; got.Total != 50 || got.Self != 20+20 {
		t.Errorf("a = %+v, want total 50, self 40", *got)
	}
	if got := ly["b"]; got.Self != 30 {
		t.Errorf("b self = %v, want 30", got.Self)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	if tr.add("y", id, time.Now(), time.Now()) != 0 || tr.layers() != nil || tr.write("/nonexistent/x") != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestServeLadderSumsToDecisionLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us float64) time.Time { return t0.Add(time.Duration(us * 1e3)) }
	// due, ready (previous reply, when later), sent, received, in µs.
	var reqs []request
	for _, c := range [][4]float64{
		{0, 0, 40, 1500},
		{1000, 1500, 1520, 2900},
		{5000, 5000, 5100, 9000},
		{9000, 9000, 9010, 10300},
	} {
		reqs = append(reqs, request{due: at(c[0]), ready: at(c[1]), sent: at(c[2]), recv: at(c[3])})
	}
	r := &rungResult{rate: 300}
	r.fill(reqs, t0)
	before := map[string]float64{
		"serve_request_latency_count": 10, "serve_request_latency_sum_seconds": 0.01,
		"serve_inference_batch_latency_count": 8, "serve_inference_batch_latency_sum_seconds": 0.004,
		"serve_inference_batches_total": 8, "serve_inference_requests_total": 10,
	}
	after := map[string]float64{
		"serve_request_latency_count": 14, "serve_request_latency_sum_seconds": 0.01 + 4*0.0009,
		"serve_inference_batch_latency_count": 11, "serve_inference_batch_latency_sum_seconds": 0.004 + 3*0.0004,
		"serve_inference_batches_total": 11, "serve_inference_requests_total": 14,
	}
	reqLat, batch, rows, err := serverMeans(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reqLat-900) > 1e-9 || math.Abs(batch-400) > 1e-9 || math.Abs(rows-4.0/3) > 1e-12 {
		t.Fatalf("serverMeans = %v µs, %v µs, %v rows; want 900, 400, 1.333", reqLat, batch, rows)
	}
	lr := r.ladderRows(reqLat, batch, policyReplay{selectUS: 300, actorUS: 60, knnUS: 90, criticUS: 120})
	var sum, rtt float64
	for _, row := range lr {
		sum += row.v
	}
	for _, row := range lr[2:] {
		rtt += row.v
	}
	if math.Abs(rtt-r.rtt.Mean) > 1e-9 {
		t.Errorf("net + wait + batch = %v µs, client RTT mean %v µs", rtt, r.rtt.Mean)
	}
	if decide := 1000 * r.lat.Mean; math.Abs(sum-decide) > 1e-9 {
		t.Errorf("ladder sums to %v µs, decision mean is %v µs", sum, decide)
	}
	if want := (1500 + 1900 + 4000 + 1300) / 4.0; math.Abs(1000*r.lat.Mean-want) > 1e-9 {
		t.Errorf("decision mean %v µs, want %v", 1000*r.lat.Mean, want)
	}
	if lr[0].v != 500.0/4 || lr[1].v != (40+20+100+10)/4.0 {
		t.Errorf("queue %v, late %v; want 125 and 42.5", lr[0].v, lr[1].v)
	}
	if r.done != 4 || math.Abs(r.achieved-4/0.0103) > 1e-9 {
		t.Errorf("done %d, achieved %v", r.done, r.achieved)
	}
}

func TestCellRowsSumToWall(t *testing.T) {
	// Three cells one after the other, with gaps between them.
	spans := []span{
		{ID: 1, Name: "tournament.cell", Start: 0, End: 60},
		{ID: 2, Parent: 1, Name: "sched.train", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "multisim.build", Start: 10, End: 12},
		{ID: 4, Parent: 1, Name: "multisim.run", Start: 12, End: 58},
		{ID: 5, Name: "tournament.cell", Start: 61, End: 90},
		{ID: 6, Parent: 5, Name: "multisim.run", Start: 62, End: 89},
		{ID: 7, Name: "tournament.cell", Start: 90, End: 100},
		{ID: 8, Parent: 7, Name: "sched.train", Start: 90, End: 95},
		{ID: 9, Parent: 7, Name: "multisim.run", Start: 95, End: 100},
	}
	ly := aggregate(spans)
	const wallMS = 100e-6 // the spans above are in ns
	rows := cellRows(ly["sched.train"], ly["multisim.build"], ly["multisim.run"], ly["tournament.cell"], wallMS)
	var sum float64
	for _, row := range rows {
		sum += row.v
	}
	if math.Abs(sum-wallMS) > 1e-15 {
		t.Errorf("cell rows sum to %v ms, wall is %v ms", sum, wallMS)
	}
	if self, gap := rows[3].v, rows[4].v; math.Abs(self-4e-6) > 1e-15 || math.Abs(gap-1e-6) > 1e-15 {
		t.Errorf("cell self %v ms, gap %v ms; want 4e-6 and 1e-6", self, gap)
	}
}
