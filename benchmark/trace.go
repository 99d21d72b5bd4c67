package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer, timed from the
// benchmark's side of the boundary. Spans of one request or cell share
// the root's ID through Parent links.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same in both modes apart from the recording itself.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// begin opens a span ending at the matching end call; children recorded
// in between may name it as their parent.
func (t *tracer) begin(name string, parent int64) int64 {
	now := time.Now()
	return t.add(name, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is one span name's totals.
type layerTime struct {
	Count  int
	Total  time.Duration // summed durations
	Self   time.Duration // summed durations minus time covered by children
	MaxDur time.Duration
}

// layers aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so parallel
// children are not counted twice.
func (t *tracer) layers() map[string]*layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return aggregate(t.spans)
}

func aggregate(spans []span) map[string]*layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.Count++
		lt.Total += d
		lt.Self += d - time.Duration(covered(s, children[s.ID]))
		if d > lt.MaxDur {
			lt.MaxDur = d
		}
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
