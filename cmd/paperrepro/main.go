// Command paperrepro regenerates every table and figure of Rudolph &
// Segall (1984) from the simulator. It is the front door to the S21
// sweep engine: (experiment × seed) grids expand into content-hashed
// jobs that run in parallel on a worker pool, results are memoized when
// a cache directory is given, and the merged output is byte-identical
// whatever the worker count.
//
// Usage:
//
//	paperrepro                    # print every artifact (quick scale)
//	paperrepro -only fig6-2       # one artifact (or a comma list)
//	paperrepro -list              # artifact ids, versions, declared axes
//	paperrepro -format markdown   # Markdown output (also: csv, plain)
//	paperrepro -scale 10 -seeds 7 # bigger workloads, different seed
//	paperrepro -seeds 1,2,3       # seed replicas, aggregated mean±sd
//	paperrepro -j 8 -cache-dir .sweepcache   # parallel + memoized
//	paperrepro -events - ...      # JSONL progress to stderr
//	paperrepro -trace run=refs.mct -only trace-run   # a trace as an experiment
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("only", "", "comma-separated experiment ids (default: every registered experiment)")
		format   = fs.String("format", "plain", "output format: plain, markdown, csv")
		list     = fs.Bool("list", false, "list experiment ids with their versions and declared axes and exit")
		scale    = fs.Int("scale", 1, "workload scale multiplier (1 = quick, 10 = full)")
		seedList = fs.String("seeds", "1", "comma-separated replica seeds; replicas aggregate into mean ±stddev cells")
		jobs     = fs.Int("j", runtime.NumCPU(), "sweep worker pool size")
		jobTO    = fs.Duration("job-timeout", 0, "per-job wall-clock budget (e.g. 90s); an overrunning job fails and the sweep continues; 0 disables")
		cacheDir = fs.String("cache-dir", "", "memoize artifact results in this sweep store (warm re-runs execute zero simulations)")
		events   = fs.String("events", "", "write JSONL progress events to this file (\"-\" = stderr)")
		quiet    = fs.Bool("quiet", false, "suppress the per-artifact timing summary on stderr")
		charts   = fs.Bool("charts", false, "append ASCII bar charts to the sweep experiments")
		dot      = fs.String("dot", "", "emit a protocol's state diagram as Graphviz DOT (rb or rwb) and exit")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Var(new(experiments.TraceFlag), "trace", "register a trace workload as name=path (repeatable); runnable as experiment \"trace-<name>\"")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	stopProfiles, err := profiling.Start(*cpuprof, *memprof)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "paperrepro:", err)
		}
	}()

	if *dot != "" {
		p, err := coherence.ByName(*dot)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, experiments.TransitionDOT(p))
		return 0
	}

	if *list {
		for _, e := range experiments.All() {
			var parts []string
			if e.Axes.Seed {
				parts = append(parts, "seed")
			}
			if e.Axes.Scale {
				parts = append(parts, "scale")
			}
			axes := "-"
			if len(parts) > 0 {
				axes = strings.Join(parts, ",")
			}
			fmt.Fprintf(stdout, "%-22s v%-2d axes=%-10s %s\n", e.ID, e.Version, axes, e.Title)
		}
		return 0
	}

	if err := report.CheckFormat(*format); err != nil {
		return fail(err)
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		return fail(err)
	}
	if *scale < 0 {
		return fail(fmt.Errorf("scale %d is negative", *scale))
	}
	specs := sweep.AllSpecs(seeds, *scale)
	if *only != "" {
		specs = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if slices.ContainsFunc(specs, func(sp sweep.Spec) bool { return sp.Experiment == id }) {
				continue // a repeated id runs once, at its first place
			}
			sp, err := sweep.SpecFor(id, seeds, *scale)
			if err != nil {
				return fail(err)
			}
			specs = append(specs, sp)
		}
	}

	var store sweep.Store
	if *cacheDir != "" {
		ds, err := sweep.OpenDirStore(*cacheDir)
		if err != nil {
			return fail(err)
		}
		store = ds
	}
	var eventsW io.Writer
	if *events == "-" {
		eventsW = stderr
	} else if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		eventsW = f
	}

	// SIGINT cancels dispatch; in-flight jobs finish and are journaled,
	// so a re-run with the same -cache-dir resumes instead of starting
	// over. A second ^C kills the process the usual way (stop() restores
	// default handling once the run returns).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := sweep.New(sweep.Options{Workers: *jobs, Store: store, Sink: sweep.NewWriterSink(eventsW), JobTimeout: *jobTO})
	out, err := eng.Run(ctx, specs)
	// Failures (an artifact panicked or timed out) exit non-zero with the
	// same rendering every sweep-backed CLI uses — never print a partial
	// artifact set as if it were the paper.
	if code := sweep.ReportRunError(stderr, "paperrepro", out, err); code != 0 {
		return code
	}

	for i, tb := range out.Tables {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, tb.Render(*format))
		if *charts {
			if e, err := experiments.ByID(specs[i].Experiment); err == nil && e.Chart != nil {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, report.ChartFromTable(tb, e.Chart.Labels, e.Chart.Value, 48))
			}
		}
	}

	if !*quiet {
		fmt.Fprintf(stderr, "\n%-22s %5s %9s %7s %12s\n", "artifact", "jobs", "executed", "cached", "wall")
		for _, st := range out.Stats {
			fmt.Fprintf(stderr, "%-22s %5d %9d %7d %12s\n",
				st.Experiment, st.Jobs, st.Executed, st.CacheHits, st.Wall.Round(time.Millisecond))
		}
		fmt.Fprintf(stderr, "%-22s %5d %9d %7d %12s\n",
			"total", len(out.Jobs), out.Executed, out.CacheHits, out.Wall.Round(time.Millisecond))
	}
	return 0
}

// parseSeeds parses the -seeds replica list.
func parseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %v", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("-seeds given but empty")
	}
	return seeds, nil
}
