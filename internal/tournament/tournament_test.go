package tournament

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// small2x2 is the golden configuration: two training-free schedulers
// across the first two default regimes, one simulated minute each.
func small2x2() Options {
	return Options{
		Seed:       42,
		DurationMS: 60_000,
		Schedulers: []string{"default", "greedy"},
		Regimes:    DefaultRegimes()[:2],
	}
}

func TestGolden2x2(t *testing.T) {
	m, err := Run(small2x2())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_2x2.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("matrix diverged from golden file (run with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestSmokeAckRegimesMatchCommitted reruns the two regimes that enable
// ack timeouts (faulty, contended) for the two training-free schedulers
// with the CI smoke settings and requires each cell to encode exactly as
// in the committed TOURNAMENT_SMOKE.json. Cells depend only on
// (scheduler, regime, seed, duration, budget), so a sub-sweep reproduces
// the full sweep's cells.
func TestSmokeAckRegimesMatchCommitted(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "TOURNAMENT_SMOKE.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	committed, err := LoadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	var regimes []Regime
	for _, r := range DefaultRegimes() {
		if r.Name == "faulty" || r.Name == "contended" {
			regimes = append(regimes, r)
		}
	}
	m, err := Run(Options{
		Seed:        committed.Seed,
		DurationMS:  committed.DurationMS,
		TrainBudget: committed.TrainBudget,
		Schedulers:  []string{"default", "greedy"},
		Regimes:     regimes,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Schedulers {
		for _, r := range m.Regimes {
			// A Cell holds only finite numbers and strings, so Marshal
			// cannot fail.
			got, _ := json.Marshal(m.Cells[s][r])
			want, _ := json.Marshal(committed.Cells[s][r])
			if !bytes.Equal(got, want) {
				t.Errorf("cell %s×%s diverged from TOURNAMENT_SMOKE.json\ngot:  %s\nwant: %s", s, r, got, want)
			}
		}
	}
}

func TestMatrixShape(t *testing.T) {
	m, err := Run(small2x2())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Schedulers) != 2 || len(m.Regimes) != 2 {
		t.Fatalf("shape %v × %v", m.Schedulers, m.Regimes)
	}
	for _, s := range m.Schedulers {
		for _, r := range m.Regimes {
			c := m.Cells[s][r]
			if c == nil {
				t.Fatalf("missing cell %s×%s", s, r)
			}
			if c.Error != "" {
				t.Fatalf("cell %s×%s errored: %s", s, r, c.Error)
			}
			if c.Completed == 0 || c.StabilizedMS <= 0 {
				t.Fatalf("cell %s×%s empty: %+v", s, r, c)
			}
			if c.TrainMS != 0 || c.NSPerDecision != 0 {
				t.Fatalf("timing fields set without Timing: %+v", c)
			}
		}
	}
	for _, r := range m.Regimes {
		if m.Winners[r] == "" {
			t.Fatalf("no winner for %s", r)
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS: the same options must produce
// byte-identical JSON at different parallelism, including a trainable
// scheduler's cell (training runs inside the cell).
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	opts := Options{
		Seed:        7,
		DurationMS:  60_000,
		TrainBudget: 25,
		Schedulers:  []string{"random", "ac"},
		Regimes:     DefaultRegimes()[:2],
	}
	runAt := func(procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		m, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := runAt(1)
	b := runAt(runtime.NumCPU())
	if !bytes.Equal(a, b) {
		t.Fatalf("matrix differs across GOMAXPROCS\nat 1:\n%s\nat %d:\n%s", a, runtime.NumCPU(), b)
	}
}

func TestRunRejectsUnknownScheduler(t *testing.T) {
	if _, err := Run(Options{Schedulers: []string{"oracle"}}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestLoadJSONRoundTrip(t *testing.T) {
	m, err := Run(small2x2())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() == "" || !strings.Contains(buf2.String(), `"winners"`) {
		t.Fatal("round trip lost content")
	}
}

func TestGate(t *testing.T) {
	mk := func() *Matrix {
		return &Matrix{
			Version:    1,
			Schedulers: []string{"default", "greedy"},
			Regimes:    []string{"steady"},
			Cells: map[string]map[string]*Cell{
				"default": {"steady": &Cell{StabilizedMS: 10, Completed: 100}},
				"greedy":  {"steady": &Cell{StabilizedMS: 8, Completed: 100}},
			},
			Winners: map[string]string{"steady": "greedy"},
			Wins:    map[string]int{"greedy": 1},
		}
	}
	base := mk()

	if v := Gate(base, mk(), 5); len(v) != 0 {
		t.Fatalf("identical matrices should pass: %v", v)
	}

	flipped := mk()
	flipped.Winners["steady"] = "default"
	if v := Gate(base, flipped, 5); len(v) != 1 || !strings.Contains(v[0], "winner flipped") {
		t.Fatalf("winner flip not caught: %v", v)
	}

	drifted := mk()
	drifted.Cells["default"]["steady"].StabilizedMS = 12 // +20%
	if v := Gate(base, drifted, 5); len(v) != 1 || !strings.Contains(v[0], "drifted") {
		t.Fatalf("drift not caught: %v", v)
	}
	if v := Gate(base, drifted, 25); len(v) != 0 {
		t.Fatalf("drift within tolerance should pass: %v", v)
	}

	errored := mk()
	errored.Cells["greedy"]["steady"] = &Cell{Error: "boom"}
	v := Gate(base, errored, 5)
	found := false
	for _, s := range v {
		if strings.Contains(s, "now errors") {
			found = true
		}
	}
	if !found {
		t.Fatalf("new error cell not caught: %v", v)
	}

	shrunk := mk()
	shrunk.Schedulers = []string{"default"}
	if v := Gate(base, shrunk, 5); len(v) == 0 {
		t.Fatal("scheduler set change not caught")
	}
}

func TestWriteTable(t *testing.T) {
	m, err := Run(small2x2())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"scheduler", "steady", "bursty", "wins", "*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
