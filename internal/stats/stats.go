// Package stats provides the measurement primitives the simulator's
// instrumentation is built from: power-of-two-bucketed histograms (miss
// and lock-acquisition latencies), running mean/variance accumulators, and
// windowed rates. Everything is integer-exact where possible — simulation
// results must be reproducible bit-for-bit.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram counts observations in power-of-two buckets: bucket i holds
// values in [2^(i-1), 2^i) with bucket 0 holding exactly 0. It records
// count, sum, min and max exactly, so Mean is exact and only quantiles are
// bucket-approximate.
// The machine's latency histograms are fed at delivery time, which
// happens in the bus and request-line phases (never the CPU phase), so
// the accumulator state is owned by those two.
type Histogram struct {
	//phase:bus,snoop
	buckets [65]uint64
	//phase:bus,snoop
	count uint64
	//phase:bus,snoop
	sum uint64
	//phase:bus,snoop
	min uint64
	//phase:bus,snoop
	max uint64
}

// bucketOf returns the bucket index of a value.
func bucketOf(v uint64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(v)
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min and Max return the exact extremes (0 for an empty histogram).
func (h *Histogram) Min() uint64 { return h.min }
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the exact arithmetic mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// upper edge of the bucket containing it. Exact for 0-valued buckets.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			upper := uint64(1)<<uint(i) - 1
			if upper > h.max {
				upper = h.max
			}
			return upper
		}
	}
	return h.max
}

// Add accumulates other into h.
func (h *Histogram) Add(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Bucket is one non-empty histogram bucket for rendering.
type Bucket struct {
	Low, High uint64 // inclusive value range
	Count     uint64
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		var lo, hi uint64
		if i == 0 {
			lo, hi = 0, 0
		} else {
			lo = uint64(1) << uint(i-1)
			hi = uint64(1)<<uint(i) - 1
		}
		out = append(out, Bucket{Low: lo, High: hi, Count: c})
	}
	return out
}

// String renders a one-line summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%.1f min=%d p50<=%d p95<=%d max=%d}",
		h.count, h.Mean(), h.min, h.Quantile(0.5), h.Quantile(0.95), h.max)
}

// Sparkline renders the bucket distribution as a fixed-alphabet bar string
// (one rune per non-empty bucket, height proportional to count) — enough
// to see a latency distribution's shape in terminal output.
func (h *Histogram) Sparkline() string {
	levels := []rune("▁▂▃▄▅▆▇█")
	bs := h.Buckets()
	if len(bs) == 0 {
		return ""
	}
	var peak uint64
	for _, b := range bs {
		if b.Count > peak {
			peak = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bs {
		idx := int(float64(len(levels)-1) * float64(b.Count) / float64(peak))
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}

// Welford accumulates a running mean and variance without storing samples
// (Welford's online algorithm).
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Observe records one value.
func (w *Welford) Observe(v float64) {
	w.n++
	delta := v - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (v - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (0 with fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Windowed tracks an event rate over a trailing window of fixed width in
// cycles, used by long-running simulations to detect phase changes
// (warmup ending, a lock convoy forming).
type Windowed struct {
	width   uint64
	current uint64 // events in the open window
	last    float64
	start   uint64 // open window's first cycle
	windows uint64
}

// NewWindowed creates a rate tracker with the given window width.
func NewWindowed(width uint64) *Windowed {
	if width == 0 {
		panic("stats: zero window width")
	}
	return &Windowed{width: width}
}

// Record notes n events at the given cycle, closing windows as needed.
func (w *Windowed) Record(cycle, n uint64) {
	for cycle >= w.start+w.width {
		w.last = float64(w.current) / float64(w.width)
		w.current = 0
		w.start += w.width
		w.windows++
	}
	w.current += n
}

// Rate returns the most recently closed window's events-per-cycle rate.
func (w *Windowed) Rate() float64 { return w.last }

// Windows returns how many windows have closed.
func (w *Windowed) Windows() uint64 { return w.windows }
