// Package metrics is the daemons' one counter registry: a daemon
// declares each series once (name, help, type) and keeps the handle;
// Render writes them all as Prometheus text, in declaration order. One
// mutex guards a whole registry, so a scrape is a consistent snapshot;
// the serving paths are simulation- and proxy-bound, not counter-bound.
package metrics

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds one daemon's series. The zero value is ready to use.
type Registry struct {
	mu     sync.Mutex
	series []series
}

// series is one declaration; samples writes its value lines, mu held.
type series struct {
	name, help, kind string
	samples          func(b *strings.Builder, gauges map[*Gauge]int64)
}

// Render writes every series under its # HELP and # TYPE lines. gauges
// supplies the live gauges' values; one left out reads 0.
func (r *Registry) Render(gauges map[*Gauge]int64) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, s := range r.series {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.kind)
		s.samples(&b, gauges)
	}
	return b.String()
}

// Counter is a monotonically increasing count.
type Counter struct {
	r *Registry
	n int64
}

func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{r: r}
	r.series = append(r.series, series{name, help, "counter", func(b *strings.Builder, _ map[*Gauge]int64) {
		fmt.Fprintf(b, "%s %d\n", name, c.n)
	}})
	return c
}

func (c *Counter) Inc() { c.Add(1) }

func (c *Counter) Add(n int64) {
	c.r.mu.Lock()
	c.n += n
	c.r.mu.Unlock()
}

func (c *Counter) Value() int64 {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.n
}

// CounterVec is a counter split by one label; values render sorted.
type CounterVec struct {
	r *Registry
	n map[string]int64
}

func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{r, map[string]int64{}}
	r.series = append(r.series, series{name, help, "counter", func(b *strings.Builder, _ map[*Gauge]int64) {
		values := make([]string, 0, len(v.n))
		for value := range v.n {
			values = append(values, value)
		}
		sort.Strings(values)
		for _, value := range values {
			fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, value, v.n[value])
		}
	}})
	return v
}

func (v *CounterVec) Inc(value string) {
	v.r.mu.Lock()
	v.n[value]++
	v.r.mu.Unlock()
}

// Histogram counts observations under fixed ascending upper bounds
// (cumulative on the wire, +Inf implicit) and keeps their sum.
type Histogram struct {
	r      *Registry
	bounds []float64
	counts []int64 // per bound, then +Inf; not cumulative
	sum    float64
}

func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{r: r, bounds: bounds, counts: make([]int64, len(bounds)+1)}
	r.series = append(r.series, series{name, help, "histogram", func(b *strings.Builder, _ map[*Gauge]int64) {
		cum := int64(0)
		for i, le := range bounds {
			cum += h.counts[i]
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(le, 'g', -1, 64), cum)
		}
		cum += h.counts[len(bounds)]
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, cum, name, h.sum, name, cum)
	}})
	return h
}

func (h *Histogram) Observe(v float64) {
	h.r.mu.Lock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.r.mu.Unlock()
}

// Gauge is a value the registry does not store: Render is handed it.
// (The field keeps distinct gauges distinct map keys: pointers to a
// zero-size struct may compare equal.)
type Gauge struct{ name string }

func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name}
	r.series = append(r.series, series{name, help, "gauge", func(b *strings.Builder, gauges map[*Gauge]int64) {
		fmt.Fprintf(b, "%s %d\n", name, gauges[g])
	}})
	return g
}

// Ratio declares a gauge Render computes as part/(part+rest), 0 before
// either counts, under the lock it prints both counters under.
func (r *Registry) Ratio(name, help string, part, rest *Counter) {
	r.series = append(r.series, series{name, help, "gauge", func(b *strings.Builder, _ map[*Gauge]int64) {
		ratio := 0.0
		if total := part.n + rest.n; total > 0 {
			ratio = float64(part.n) / float64(total)
		}
		fmt.Fprintf(b, "%s %g\n", name, ratio)
	}})
}

// StatusRecorder wraps a ResponseWriter and remembers the status sent,
// for a daemon's requests_total{code} series.
type StatusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *StatusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *StatusRecorder) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// Flush lets streaming handlers flush through the recorder.
func (s *StatusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Code is the status sent as a label value, "200" if nothing was.
func (s *StatusRecorder) Code() string {
	if s.code == 0 {
		return "200"
	}
	return strconv.Itoa(s.code)
}
