package main

import (
	"fmt"
	"io"
)

// verdict applies one end-to-end metric's bound to the runs of two
// result sets, a the base. The medians decide; where either side's
// spread (interquartile range over median) is wider than the bound the
// comparison is unresolved, unless every run of b reads better than
// every run of a.
func verdict(def metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	better := func(x, y float64) bool { return x < y }
	if def.Better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	if max(iqrShare(a), iqrShare(b)) > def.Bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worse > def.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound and the verdict; then every
// simulated (exact) per-layer metric that differs between traced runs of
// the same seed. It reports whether anything regressed or changed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	values := func(rs []*result, workload, metric string, traced bool) (vals []float64, seeds []uint64) {
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
				vals = append(vals, v.Value)
				seeds = append(seeds, r.Seed)
			}
		}
		return vals, seeds
	}
	bad := false
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %20s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A (base A)", "bound", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			a, _ := values(ra, wl.Name, def.Name, false)
			b, _ := values(rb, wl.Name, def.Name, false)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict(def, a, b)
			bad = bad || v == "regressed"
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %9.3f of %-8.4g %6.0f%%  %s (%d vs %d runs, %s is better)\n",
				wl.Name, def.Name, median(a), median(b), ratio(median(b), median(a)), median(a),
				100*def.Bound, v, len(a), len(b), def.Better)
		}
		for _, def := range perLayer {
			if !def.Exact {
				continue
			}
			a, sa := values(ra, wl.Name, def.Name, true)
			b, sb := values(rb, wl.Name, def.Name, true)
			if len(a) == 0 || len(b) == 0 || sa[0] != sb[0] || a[0] == b[0] {
				continue
			}
			bad = true
			fmt.Fprintf(w, "%-16s %-34s %14.6g -> %-14.6g changed (simulated: must repeat exactly at seed %d)\n",
				wl.Name, def.Name, a[0], b[0], sa[0])
		}
	}
	for _, rs := range [][]*result{ra, rb} {
		for _, r := range rs {
			if r.Failed > 0 {
				bad = true
				fmt.Fprintf(w, "%-16s failed %d of %d operations (seed %d)\n", r.Workload, r.Failed, r.Attempted, r.Seed)
			}
		}
	}
	return bad, nil
}
