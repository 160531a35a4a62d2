// Command sweep drives the S21 experiment-orchestration engine from the
// command line: expand (experiment × seed) grids into content-hashed
// jobs, run them on a worker pool, memoize results in a versioned
// on-disk store, and merge the output deterministically.
//
// Usage:
//
//	sweep -list                               # job axes of every experiment
//	sweep -experiments table1-1,fig7-1 -seeds 1,2,3
//	sweep -experiments all -j 8 -cache-dir .sweepcache
//	sweep -events - ...                       # JSONL progress to stderr
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/sweep"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment ids with their declared axes and exit")
		expList  = flag.String("experiments", "all", "comma-separated experiment ids, or \"all\"")
		seedList = flag.String("seeds", "1", "comma-separated replica seeds; replicas aggregate into mean ±stddev cells")
		scale    = flag.Int("scale", 1, "workload scale multiplier")
		workers  = flag.Int("j", runtime.NumCPU(), "worker pool size")
		jobTO    = flag.Duration("job-timeout", 0, "per-job wall-clock budget (e.g. 90s); an overrunning job fails and the sweep continues; 0 disables")
		cacheDir = flag.String("cache-dir", "", "memoize results in this sweep store directory")
		format   = flag.String("format", "plain", "output format: plain, markdown, csv")
		events   = flag.String("events", "", "write JSONL progress events to this file (\"-\" = stderr)")
		summary  = flag.Bool("summary", true, "print the per-experiment summary to stderr")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Var(new(experiments.TraceFlag), "trace", "register a trace workload as name=path (repeatable); runnable as experiment \"trace-<name>\"")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprof, *memprof)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
		}
	}()

	if *list {
		for _, e := range experiments.All() {
			axes := "-"
			var parts []string
			if e.Axes.Seed {
				parts = append(parts, "seed")
			}
			if e.Axes.Scale {
				parts = append(parts, "scale")
			}
			if len(parts) > 0 {
				axes = strings.Join(parts, ",")
			}
			fmt.Printf("%-22s v%-2d axes=%-10s %s\n", e.ID, e.Version, axes, e.Title)
		}
		return
	}

	seeds, err := parseSeeds(*seedList)
	if err != nil {
		fatal(err)
	}
	specs, err := resolveSpecs(*expList, seeds, *scale)
	if err != nil {
		fatal(err)
	}

	var store sweep.Store
	if *cacheDir != "" {
		ds, err := sweep.OpenDirStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		store = ds
	}
	var eventsW io.Writer
	if *events == "-" {
		eventsW = os.Stderr
	} else if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		eventsW = f
	}

	// SIGINT cancels the context: dispatch stops, in-flight jobs finish
	// and land in the journal, and the run exits cleanly — a second ^C
	// kills the process the usual way (stop() restores default handling
	// once the run returns).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := sweep.New(sweep.Options{Workers: *workers, Store: store, Sink: sweep.NewWriterSink(eventsW), JobTimeout: *jobTO})
	out, err := eng.Run(ctx, specs)
	if code := sweep.ReportRunError(os.Stderr, "sweep", out, err); code != 0 {
		os.Exit(code)
	}
	for i, tb := range out.Tables {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(tb.Render(*format))
	}
	if *summary {
		fmt.Fprintf(os.Stderr, "\n%-22s %5s %9s %7s %12s\n", "experiment", "jobs", "executed", "cached", "wall")
		for _, st := range out.Stats {
			fmt.Fprintf(os.Stderr, "%-22s %5d %9d %7d %12s\n",
				st.Experiment, st.Jobs, st.Executed, st.CacheHits, st.Wall.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "%-22s %5d %9d %7d %12s\n",
			"total", len(out.Jobs), out.Executed, out.CacheHits, out.Wall.Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

// parseSeeds parses a comma-separated seed list.
func parseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds given")
	}
	return seeds, nil
}

// resolveSpecs maps the -experiments flag to sweep specs.
func resolveSpecs(list string, seeds []uint64, scale int) ([]sweep.Spec, error) {
	if list == "all" || list == "" {
		return sweep.AllSpecs(seeds, scale), nil
	}
	var specs []sweep.Spec
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		sp, err := sweep.SpecFor(id, seeds, scale)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return specs, nil
}
