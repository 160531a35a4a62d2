package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Req names the request
// or job the span belongs to; Parent is the span that caused it (0 for a
// root). Times are microseconds since the tracer started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Req     string  `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) durMS() float64 { return (s.EndUS - s.StartUS) / 1000 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run is spelled: the same code with
// tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// open maps a correlation key (request body, job key) to the spans
	// currently open under it, so a layer that sees only the key can find
	// the span that caused its work.
	open map[string][]int
	// paused drops new spans: a traced run measures part of its work with
	// recording off, and the gap is the tracing overhead.
	paused atomic.Bool
}

func newTracer() *tracer { return &tracer{t0: now(), open: map[string][]int{}} }

// begin opens a span and returns its id. keys, when given, register the
// span as the parent-to-be of work correlated by those keys.
func (t *tracer) begin(name, req string, parent int, keys ...string) int {
	if t == nil || t.paused.Load() {
		return 0
	}
	at := us(since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartUS: at, EndUS: at})
	for _, k := range keys {
		t.open[k] = append(t.open[k], id)
	}
	return id
}

// end closes a span and drops its key registrations.
func (t *tracer) end(id int, keys ...string) {
	if t == nil || id == 0 {
		return
	}
	at := us(since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = at
	for _, k := range keys {
		ids := t.open[k]
		for i, v := range ids {
			if v == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(t.open, k)
		} else {
			t.open[k] = ids
		}
	}
}

// pause turns recording off (true) or back on. Safe on a nil tracer.
func (t *tracer) pause(off bool) {
	if t != nil {
		t.paused.Store(off)
	}
}

// anyKey is the key every request or pass span also registers under, for
// work that carries no key of its own (a journal read).
const anyKey = "*"

// parentOf returns the longest-open span registered under key, or 0.
func (t *tracer) parentOf(key string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ids := t.open[key]; len(ids) > 0 {
		return ids[0]
	}
	return 0
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice), in milliseconds.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, edge), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndUS - s.StartUS - covered) / 1000
	}
	return self
}

// byName groups durations (ms) and self times (ms) by span name.
func byName(spans []span) (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	st := selfTimes(spans)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], s.durMS())
		self[s.Name] = append(self[s.Name], st[s.ID])
	}
	return dur, self
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
