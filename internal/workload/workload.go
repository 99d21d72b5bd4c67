// Package workload provides the tuple arrival processes and synthetic data
// generators for the three benchmark applications of the paper (§4.1):
// continuous queries over an in-memory vehicle table, IIS-style log stream
// processing, and streaming word count.
//
// The paper's evaluation depends on data only through tuple *rates*, sizes,
// service demands, and stream selectivities; the generators here reproduce
// those distributions with synthetic content (the paper's actual inputs —
// university IIS logs and the Project Gutenberg text of Alice's Adventures
// in Wonderland — are not needed).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// ArrivalProcess yields the aggregate spout tuple arrival rate (tuples per
// second) as a function of simulation time. The workload part w of the
// DRL state (§3.2) is read from this.
type ArrivalProcess interface {
	// RateAt returns the arrival rate in tuples/second at time tMS.
	RateAt(tMS float64) float64
}

// ConstantRate is a stationary arrival process.
type ConstantRate struct{ PerSecond float64 }

// RateAt implements ArrivalProcess.
func (c ConstantRate) RateAt(float64) float64 { return c.PerSecond }

// StepRate jumps from Base to Base·Factor at time AtMS — the "workload
// increased by 50% at 20 minute" scenario of Figure 12 uses Factor = 1.5.
type StepRate struct {
	Base   float64
	Factor float64
	AtMS   float64
}

// RateAt implements ArrivalProcess.
func (s StepRate) RateAt(tMS float64) float64 {
	if tMS >= s.AtMS {
		return s.Base * s.Factor
	}
	return s.Base
}

// SineRate oscillates around Base with the given amplitude fraction and
// period; used by the robustness extension benches.
type SineRate struct {
	Base      float64
	Amplitude float64 // fraction of Base, in [0,1)
	PeriodMS  float64
}

// RateAt implements ArrivalProcess.
func (s SineRate) RateAt(tMS float64) float64 {
	if s.PeriodMS <= 0 {
		return s.Base
	}
	return s.Base * (1 + s.Amplitude*math.Sin(2*math.Pi*tMS/s.PeriodMS))
}

// BurstRate alternates between Base and Base·Factor: each PeriodMS cycle
// opens with BurstMS of elevated rate, then falls back to Base. It is the
// "bursty" trace kind of cluster scenarios — a square wave where SineRate
// is smooth — stressing queue build-up and drain.
type BurstRate struct {
	Base     float64
	Factor   float64 // rate multiplier during a burst
	PeriodMS float64 // cycle length
	BurstMS  float64 // burst duration at the start of each cycle
}

// RateAt implements ArrivalProcess.
func (b BurstRate) RateAt(tMS float64) float64 {
	if b.PeriodMS <= 0 || b.BurstMS <= 0 {
		return b.Base
	}
	if math.Mod(tMS, b.PeriodMS) < b.BurstMS {
		return b.Base * b.Factor
	}
	return b.Base
}

// ---------------------------------------------------------------------------
// Continuous queries: random vehicle-plate table + speeding queries (§4.1).

// VehicleRecord is one row of the in-memory database table the Query bolt
// scans: vehicle plates with owner name, SSN and an attached speed.
type VehicleRecord struct {
	Plate string
	Owner string
	SSN   string
	Speed int
}

// QueryGen generates the continuous-queries workload: a random table and a
// stream of speeding-vehicle queries.
type QueryGen struct {
	Table      []VehicleRecord
	SpeedLimit int
	rng        *rand.Rand
}

var firstNames = []string{"Alice", "Bob", "Carol", "David", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy"}
var lastNames = []string{"Smith", "Jones", "Chen", "Garcia", "Khan", "Mori", "Olsen", "Patel", "Rossi", "Weber"}

// NewQueryGen builds a table of n random vehicle records.
func NewQueryGen(rng *rand.Rand, n int) *QueryGen {
	g := &QueryGen{SpeedLimit: 65, rng: rng}
	for i := 0; i < n; i++ {
		g.Table = append(g.Table, VehicleRecord{
			Plate: fmt.Sprintf("%c%c%c-%04d", 'A'+rng.Intn(26), 'A'+rng.Intn(26), 'A'+rng.Intn(26), rng.Intn(10000)),
			Owner: firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))],
			SSN:   fmt.Sprintf("%03d-%02d-%04d", rng.Intn(1000), rng.Intn(100), rng.Intn(10000)),
			Speed: 30 + rng.Intn(70),
		})
	}
	return g
}

// Query is one select query tuple: find owners of vehicles faster than
// MinSpeed.
type Query struct {
	ID       int64
	MinSpeed int
}

// Next emits the next query tuple.
func (g *QueryGen) Next(id int64) Query {
	return Query{ID: id, MinSpeed: g.SpeedLimit + g.rng.Intn(30)}
}

// Execute scans the table and returns matching records — the Query bolt's
// work (looping over each row to check for a hit, per [8]).
func (g *QueryGen) Execute(q Query) []VehicleRecord {
	var hits []VehicleRecord
	for _, r := range g.Table {
		if r.Speed > q.MinSpeed {
			hits = append(hits, r)
		}
	}
	return hits
}

// ---------------------------------------------------------------------------
// Log stream: IIS-style log lines (§4.1).

// LogGen synthesizes Microsoft IIS-format log lines like the university
// traces used in the paper.
type LogGen struct {
	rng   *rand.Rand
	hosts []string
	uris  []string
}

// NewLogGen returns a generator with a fixed pool of hosts and URIs.
func NewLogGen(rng *rand.Rand) *LogGen {
	g := &LogGen{rng: rng}
	for i := 0; i < 20; i++ {
		g.hosts = append(g.hosts, fmt.Sprintf("10.13.%d.%d", rng.Intn(256), rng.Intn(256)))
	}
	paths := []string{"/", "/index.html", "/courses", "/courses/eecs", "/login", "/api/v1/grades", "/static/site.css", "/images/logo.png", "/search", "/admin"}
	g.uris = paths
	return g
}

var logMethods = []string{"GET", "GET", "GET", "GET", "POST", "HEAD"}
var logStatuses = []int{200, 200, 200, 200, 200, 304, 404, 500}

// LogEntry is one parsed IIS log record.
type LogEntry struct {
	ClientIP string
	Method   string
	URI      string
	Status   int
	Bytes    int
	TimeMS   int
}

// Next emits one random log entry.
func (g *LogGen) Next() LogEntry {
	return LogEntry{
		ClientIP: g.hosts[g.rng.Intn(len(g.hosts))],
		Method:   logMethods[g.rng.Intn(len(logMethods))],
		URI:      g.uris[g.rng.Intn(len(g.uris))],
		Status:   logStatuses[g.rng.Intn(len(logStatuses))],
		Bytes:    200 + g.rng.Intn(40000),
		TimeMS:   1 + g.rng.Intn(500),
	}
}

// Line formats the entry in IIS W3C extended format.
func (e LogEntry) Line() string {
	return fmt.Sprintf("2016-03-02 10:15:01 %s %s %s %d %d %d",
		e.ClientIP, e.Method, e.URI, e.Status, e.Bytes, e.TimeMS)
}

// ParseLine parses a line produced by Line. It returns an error for
// malformed input (exercised by the log topology's rule bolt).
func ParseLine(line string) (LogEntry, error) {
	var e LogEntry
	var date, clock string
	_, err := fmt.Sscanf(line, "%s %s %s %s %s %d %d %d",
		&date, &clock, &e.ClientIP, &e.Method, &e.URI, &e.Status, &e.Bytes, &e.TimeMS)
	if err != nil {
		return LogEntry{}, fmt.Errorf("workload: malformed log line %q: %w", line, err)
	}
	return e, nil
}

// IsError reports whether the entry should be counted as an error by the
// Counter bolt's rules.
func (e LogEntry) IsError() bool { return e.Status >= 400 }

// ---------------------------------------------------------------------------
// Word count: Markov-chain English-like text (§4.1).

// TextGen produces sentence tuples with Zipf-like word frequencies,
// standing in for the Alice's Adventures in Wonderland input file.
type TextGen struct {
	rng   *rand.Rand
	vocab []string
	zipf  *rand.Zipf
}

var seedVocab = []string{
	"alice", "rabbit", "queen", "king", "cat", "hatter", "tea", "time",
	"little", "down", "went", "said", "very", "looked", "great", "again",
	"door", "garden", "curious", "wonder", "dream", "mock", "turtle",
	"march", "hare", "duchess", "croquet", "playing", "cards", "off",
	"head", "grin", "cheshire", "caterpillar", "mushroom", "drink", "eat",
	"key", "table", "pool", "tears", "mouse", "story", "long", "tale",
}

// NewTextGen returns a generator over a fixed vocabulary with Zipf(1.1)
// frequencies, matching natural-language skew.
func NewTextGen(rng *rand.Rand) *TextGen {
	return &TextGen{
		rng:   rng,
		vocab: seedVocab,
		zipf:  rand.NewZipf(rng, 1.1, 1.0, uint64(len(seedVocab)-1)),
	}
}

// NextLine emits one line of 4–12 words.
func (g *TextGen) NextLine() string {
	n := 4 + g.rng.Intn(9)
	words := make([]string, n)
	for i := range words {
		words[i] = g.vocab[g.zipf.Uint64()]
	}
	return strings.Join(words, " ")
}

// SplitWords is the SplitSentence bolt's function.
func SplitWords(line string) []string { return strings.Fields(line) }

// WordCounter is the WordCount bolt's state: counts per word, partitioned
// by fields grouping in the real topology.
type WordCounter struct {
	Counts map[string]int
}

// NewWordCounter returns an empty counter.
func NewWordCounter() *WordCounter { return &WordCounter{Counts: map[string]int{}} }

// Add increments a word and returns its new count.
func (w *WordCounter) Add(word string) int {
	w.Counts[word]++
	return w.Counts[word]
}

// FieldsHash is the hash used by fields grouping to pick a downstream task
// for a key (FNV-1a, mod tasks).
func FieldsHash(key string, tasks int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	if tasks <= 0 {
		return 0
	}
	return int(h % uint64(tasks))
}
