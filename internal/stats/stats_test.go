package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	if h.String() != "histogram{empty}" {
		t.Fatalf("String() = %q", h.String())
	}
	if h.Sparkline() != "" {
		t.Fatal("empty sparkline not empty")
	}
}

func TestHistogramExactStats(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 100, 5} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 111 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	if h.Min() != 0 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-111.0/6) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
}

func TestBucketBoundaries(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	bs := h.Buckets()
	// Buckets: {0}, [1,1], [2,3], [4,7].
	want := []Bucket{
		{0, 0, 1},
		{1, 1, 1},
		{2, 3, 2},
		{4, 7, 1},
	}
	if len(bs) != len(want) {
		t.Fatalf("buckets = %+v", bs)
	}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, bs[i], want[i])
		}
	}
}

func TestQuantileBounds(t *testing.T) {
	var h Histogram
	values := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, v := range values {
		h.Observe(v)
	}
	// The quantile is an upper bound and never exceeds the true max.
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		got := h.Quantile(q)
		idx := int(math.Ceil(q*10)) - 1
		if idx < 0 {
			idx = 0
		}
		exact := values[idx]
		if got < exact {
			t.Errorf("Quantile(%v) = %d below exact %d", q, got, exact)
		}
		if got > h.Max() {
			t.Errorf("Quantile(%v) = %d above max", q, got)
		}
	}
	// Out-of-range q values are clamped.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile clamping broken")
	}
}

func TestHistogramAdd(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	a.Observe(100)
	b.Observe(50)
	a.Add(&b)
	if a.Count() != 3 || a.Sum() != 151 || a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("after Add: %s", a.String())
	}
	var empty Histogram
	a.Add(&empty) // no-op
	if a.Count() != 3 {
		t.Fatal("adding empty changed count")
	}
	var c Histogram
	c.Add(&a)
	if c.Count() != 3 || c.Min() != 1 {
		t.Fatal("add into empty lost min")
	}
}

func TestSparklineShape(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(2)
	}
	h.Observe(1000)
	s := h.Sparkline()
	if len([]rune(s)) != 2 {
		t.Fatalf("sparkline %q, want 2 runes", s)
	}
	runes := []rune(s)
	if runes[0] != '█' {
		t.Fatalf("dominant bucket not full height: %q", s)
	}
	if runes[1] == '█' {
		t.Fatalf("rare bucket at full height: %q", s)
	}
}

func TestStringMentionsPercentiles(t *testing.T) {
	var h Histogram
	h.Observe(5)
	if s := h.String(); !strings.Contains(s, "p95") || !strings.Contains(s, "mean") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: Mean is always within [Min, Max] and Observe order never
// matters for any statistic.
func TestQuickHistogramInvariants(t *testing.T) {
	f := func(values []uint16) bool {
		if len(values) == 0 {
			return true
		}
		var a, b Histogram
		for _, v := range values {
			a.Observe(uint64(v))
		}
		for i := len(values) - 1; i >= 0; i-- {
			b.Observe(uint64(values[i]))
		}
		if a != b {
			return false
		}
		m := a.Mean()
		return m >= float64(a.Min()) && m <= float64(a.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("empty variance non-zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(v)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-9 {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
}

// Property: Welford matches the two-pass calculation.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Observe(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
		}
		variance := m2 / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
