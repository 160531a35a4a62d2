// Command faultcampaign runs the S23 fault-injection resilience campaign:
// protocols × fault classes × seeds, each cell injecting seeded faults
// into a live simulation and classifying them against the divergence
// oracles as masked, detected, or silent-divergence.
//
// Usage:
//
//	faultcampaign                                   # default campaign, resilience matrix to stdout
//	faultcampaign -protocols rb,rb-dirty -classes mem-lost-write -trials 8
//	faultcampaign -seeds 1,2,3 -j 8 -cache-dir .faultcache -o report.txt
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
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit: 0 the
// campaign ran and no detectable class diverged silently, 1 it failed or
// one did, 2 the command line was unusable (130 on SIGINT).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocols = fs.String("protocols", "", "comma-separated protocol names (default rb,rwb,goodman,illinois)")
		classes   = fs.String("classes", "", "comma-separated fault classes (default all); see -list-classes")
		seedList  = fs.String("seeds", "1", "comma-separated campaign seeds; each is its own reference run and trial set")
		trials    = fs.Int("trials", 4, "fault trials per (protocol, class, seed) cell")
		refs      = fs.Int("refs", 300, "memory references per PE in each trial workload")
		pes       = fs.Int("pes", 4, "processing elements per trial machine")
		workers   = fs.Int("j", runtime.NumCPU(), "worker pool size")
		cacheDir  = fs.String("cache-dir", "", "memoize cell results in this sweep store directory")
		format    = fs.String("format", "plain", "output format: plain, markdown, csv")
		outPath   = fs.String("o", "", "write the report here instead of stdout")
		events    = fs.String("events", "", "write JSONL progress events to this file (\"-\" = stderr)")
		listCls   = fs.Bool("list-classes", false, "list fault classes and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "faultcampaign:", err)
		return 1
	}

	if *listCls {
		for _, c := range fault.Classes() {
			det := "detectable"
			if !c.Detectable() {
				det = "may be silent (oracle blind spot)"
			}
			fmt.Fprintf(stdout, "%-20s %s\n", c, det)
		}
		return 0
	}

	if err := report.CheckFormat(*format); err != nil {
		return fail(err)
	}
	cfg, err := buildConfig(*protocols, *classes, *seedList, *trials, *refs, *pes)
	if err != nil {
		return fail(err)
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

	// SIGINT cancels dispatch; in-flight cells finish and are journaled,
	// so re-running with the same -cache-dir resumes where this stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := sweep.New(sweep.Options{
		Workers: *workers, Store: store, Sink: sweep.NewWriterSink(eventsW),
		Runner: fault.NewCellRunner(cfg),
	})
	out, err := eng.Run(ctx, cfg.Specs())
	if code := sweep.ReportRunError(stderr, "faultcampaign", out, err); code != 0 {
		return code
	}

	report, err := fault.RenderReport(cfg, out, *format)
	if err != nil {
		return fail(err)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report), 0o644); err != nil {
			return fail(err)
		}
	} else {
		fmt.Fprint(stdout, report)
	}

	// A silent divergence in a detectable class is an oracle hole: always
	// surface it and fail the run.
	bad, err := fault.SilentViolations(out)
	if err != nil {
		return fail(err)
	}
	if len(bad) > 0 {
		fmt.Fprintf(stderr, "faultcampaign: %d silent divergence(s) in detectable classes:\n  %s\n",
			len(bad), strings.Join(bad, "\n  "))
		return 1
	}
	return 0
}

// buildConfig assembles the flags into a fault.CampaignSpec — the same
// JSON-shaped spec the S24 service layer accepts — and resolves it.
func buildConfig(protocols, classes, seedList string, trials, refs, pes int) (fault.CampaignConfig, error) {
	spec := fault.CampaignSpec{
		Protocols: splitList(protocols),
		Classes:   splitList(classes),
		Trials:    trials,
		Refs:      refs,
		PEs:       pes,
	}
	for _, part := range splitList(seedList) {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return fault.CampaignConfig{}, fmt.Errorf("bad seed %q: %v", part, err)
		}
		spec.Seeds = append(spec.Seeds, v)
	}
	return spec.Config()
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(list string) []string {
	var out []string
	for _, part := range strings.Split(list, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
