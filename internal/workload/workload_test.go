package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstantRate(t *testing.T) {
	c := ConstantRate{PerSecond: 100}
	if c.RateAt(0) != 100 || c.RateAt(1e9) != 100 {
		t.Fatal("constant rate should not vary")
	}
}

func TestStepRate(t *testing.T) {
	s := StepRate{Base: 100, Factor: 1.5, AtMS: 20 * 60 * 1000}
	if s.RateAt(0) != 100 {
		t.Fatalf("before step: %v", s.RateAt(0))
	}
	if s.RateAt(19*60*1000) != 100 {
		t.Fatal("rate changed too early")
	}
	if s.RateAt(20*60*1000) != 150 {
		t.Fatalf("at step: %v want 150", s.RateAt(20*60*1000))
	}
	if s.RateAt(50*60*1000) != 150 {
		t.Fatal("rate should stay stepped")
	}
}

func TestSineRateBounds(t *testing.T) {
	s := SineRate{Base: 100, Amplitude: 0.3, PeriodMS: 1000}
	lo, hi := math.Inf(1), math.Inf(-1)
	for tm := 0.0; tm < 2000; tm += 10 {
		r := s.RateAt(tm)
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if lo < 69.9 || hi > 130.1 {
		t.Fatalf("sine range [%v,%v] outside expected", lo, hi)
	}
	if (SineRate{Base: 50}).RateAt(123) != 50 {
		t.Fatal("zero period should degrade to Base")
	}
}

func TestQueryGen(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewQueryGen(rng, 500)
	if len(g.Table) != 500 {
		t.Fatalf("table size %d", len(g.Table))
	}
	for _, r := range g.Table[:10] {
		if len(r.Plate) != 8 || !strings.Contains(r.Plate, "-") {
			t.Fatalf("bad plate %q", r.Plate)
		}
		if r.Speed < 30 || r.Speed > 99 {
			t.Fatalf("speed %d out of range", r.Speed)
		}
	}
	q := g.Next(42)
	if q.ID != 42 || q.MinSpeed < g.SpeedLimit {
		t.Fatalf("bad query %+v", q)
	}
	hits := g.Execute(q)
	for _, h := range hits {
		if h.Speed <= q.MinSpeed {
			t.Fatalf("non-matching hit %+v for query %+v", h, q)
		}
	}
	// Execute must find every matching row.
	want := 0
	for _, r := range g.Table {
		if r.Speed > q.MinSpeed {
			want++
		}
	}
	if len(hits) != want {
		t.Fatalf("Execute found %d rows want %d", len(hits), want)
	}
}

func TestLogGenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewLogGen(rng)
	for i := 0; i < 50; i++ {
		e := g.Next()
		line := e.Line()
		parsed, err := ParseLine(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if parsed != e {
			t.Fatalf("round trip mismatch: %+v vs %+v", parsed, e)
		}
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	if _, err := ParseLine("this is not a log line"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestLogEntryIsError(t *testing.T) {
	if (LogEntry{Status: 200}).IsError() || (LogEntry{Status: 304}).IsError() {
		t.Fatal("2xx/3xx flagged as error")
	}
	if !(LogEntry{Status: 404}).IsError() || !(LogEntry{Status: 500}).IsError() {
		t.Fatal("4xx/5xx not flagged")
	}
}

func TestTextGenLines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewTextGen(rng)
	freq := map[string]int{}
	for i := 0; i < 500; i++ {
		line := g.NextLine()
		words := SplitWords(line)
		if len(words) < 4 || len(words) > 12 {
			t.Fatalf("line has %d words: %q", len(words), line)
		}
		for _, w := range words {
			freq[w]++
		}
	}
	// Zipf skew: the most common word should dominate the median word.
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	if max < 200 {
		t.Fatalf("expected Zipf-skewed frequencies, max count %d", max)
	}
}

func TestWordCounter(t *testing.T) {
	w := NewWordCounter()
	if w.Add("alice") != 1 || w.Add("alice") != 2 || w.Add("queen") != 1 {
		t.Fatal("counts wrong")
	}
	if w.Counts["alice"] != 2 {
		t.Fatal("map state wrong")
	}
}

func TestFieldsHashStableAndInRange(t *testing.T) {
	h1 := FieldsHash("alice", 30)
	h2 := FieldsHash("alice", 30)
	if h1 != h2 {
		t.Fatal("hash not deterministic")
	}
	f := func(key string, tasksRaw uint8) bool {
		tasks := int(tasksRaw%64) + 1
		h := FieldsHash(key, tasks)
		return h >= 0 && h < tasks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if FieldsHash("x", 0) != 0 {
		t.Fatal("zero tasks should map to 0")
	}
}

func TestFieldsHashSpreads(t *testing.T) {
	counts := make([]int, 8)
	words := []string{"a", "b", "c", "dd", "ee", "ff", "ggg", "hhh", "iii", "jj", "kk", "ll", "mm", "nn", "oo", "pp"}
	for _, w := range words {
		counts[FieldsHash(w, 8)]++
	}
	nonEmpty := 0
	for _, c := range counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 4 {
		t.Fatalf("hash poorly spread: %v", counts)
	}
}

func TestBurstRate(t *testing.T) {
	b := BurstRate{Base: 100, Factor: 3, PeriodMS: 10_000, BurstMS: 2_000}
	if got := b.RateAt(0); got != 300 {
		t.Fatalf("burst onset rate %v want 300", got)
	}
	if got := b.RateAt(1_999); got != 300 {
		t.Fatalf("in-burst rate %v want 300", got)
	}
	if got := b.RateAt(2_000); got != 100 {
		t.Fatalf("post-burst rate %v want 100", got)
	}
	if got := b.RateAt(10_500); got != 300 {
		t.Fatalf("second-cycle burst rate %v want 300", got)
	}
	// Degenerate periods fall back to the base rate.
	if got := (BurstRate{Base: 50}).RateAt(123); got != 50 {
		t.Fatalf("degenerate burst rate %v want 50", got)
	}
}
