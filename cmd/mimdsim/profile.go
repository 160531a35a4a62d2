// -profile attaches the online miss-ratio-curve profiler (internal/mrc)
// to a plain run and prints its curves.
package main

import (
	"fmt"
	"io"

	"repro/internal/mrc"
)

// printProfile renders a run's curves: machine-wide always, per PE when
// verbose.
func printProfile(w io.Writer, set *mrc.Set, verbose bool) {
	docs := set.Docs(mrc.DefaultSizes())
	for _, d := range docs {
		if d.Scope != "machine" && !verbose {
			continue
		}
		fmt.Fprintf(w, "\nmiss-ratio curve [%s]: %d refs, footprint %d, %d cold misses\n",
			d.Scope, d.Refs, d.Footprint, d.Colds)
		fmt.Fprintf(w, "%8s  %10s  %10s  %s\n", "lines", "misses", "miss ratio", "hit ratio")
		for _, pt := range d.Points {
			fmt.Fprintf(w, "%8d  %10d  %10.4f  %.4f\n", pt.Lines, pt.Misses, pt.MissRatio, 1-pt.MissRatio)
		}
	}
}
