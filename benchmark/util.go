package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// now is the harness's only wall-clock read. Host times are what this
// benchmark measures; no simulated result or generated input depends on
// them.
//
//lint:ignore observability-only wall time; inputs come from the seed and simulated results never depend on it
func now() time.Time { return time.Now() }

func since(t time.Time) time.Duration { return now().Sub(t) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// zipfCDF is the cumulative distribution of a Zipf law with exponent s
// over ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile reads the p-th percentile of an ascending sample (nearest
// rank, in integers so that 90% of 100 samples is the 90th).
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max((p*len(sorted)+99)/100, 1)-1]
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// tailPercent is the highest of the usual tail percentiles, not above
// want, that still leaves at least ten samples beyond it; with fewer
// than forty samples that is the median.
func tailPercent(n, want int) int {
	for _, p := range []int{99, 95, 90, 75} {
		if p <= want && n*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// tail reads the tailPercent of a sample.
func tail(v []float64, want int) float64 {
	return percentile(sortedCopy(v), tailPercent(len(v), want))
}

// iqrShare is the distance between the first and third quartile as a
// share of the median (exclusive method, as Python's
// statistics.quantiles(v, n=4) computes it).
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((at(0.75) - at(0.25)) / med)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// promValues parses a Prometheus text exposition into name{labels} →
// value.
func promValues(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
