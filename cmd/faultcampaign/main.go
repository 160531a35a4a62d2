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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/sweep"
)

func main() {
	var (
		protocols = flag.String("protocols", "", "comma-separated protocol names (default rb,rwb,goodman,illinois)")
		classes   = flag.String("classes", "", "comma-separated fault classes (default all); see -list-classes")
		seedList  = flag.String("seeds", "1", "comma-separated campaign seeds; each is its own reference run and trial set")
		trials    = flag.Int("trials", 4, "fault trials per (protocol, class, seed) cell")
		refs      = flag.Int("refs", 300, "memory references per PE in each trial workload")
		pes       = flag.Int("pes", 4, "processing elements per trial machine")
		workers   = flag.Int("j", runtime.NumCPU(), "worker pool size")
		cacheDir  = flag.String("cache-dir", "", "memoize cell results in this sweep store directory")
		format    = flag.String("format", "plain", "output format: plain, markdown, csv")
		outPath   = flag.String("o", "", "write the report here instead of stdout")
		events    = flag.String("events", "", "write JSONL progress events to this file (\"-\" = stderr)")
		listCls   = flag.Bool("list-classes", false, "list fault classes and exit")
	)
	flag.Parse()

	if *listCls {
		for _, c := range fault.Classes() {
			det := "detectable"
			if !c.Detectable() {
				det = "may be silent (oracle blind spot)"
			}
			fmt.Printf("%-20s %s\n", c, det)
		}
		return
	}

	cfg, err := buildConfig(*protocols, *classes, *seedList, *trials, *refs, *pes)
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

	// SIGINT cancels dispatch; in-flight cells finish and are journaled,
	// so re-running with the same -cache-dir resumes where this stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With both runners set, the engine fuses same-cell job groups and
	// hands each group a batch arena.
	eng := sweep.New(sweep.Options{
		Workers: *workers, Store: store, Sink: sweep.NewWriterSink(eventsW),
		Runner: fault.NewCellRunner(cfg), BatchRunner: fault.NewBatchCellRunner(cfg),
	})
	out, err := eng.Run(ctx, cfg.Specs())
	if code := sweep.ReportRunError(os.Stderr, "faultcampaign", out, err); code != 0 {
		os.Exit(code)
	}

	report, err := fault.RenderReport(cfg, out, *format)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(report), 0o644); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(report)
	}

	// A silent divergence in a detectable class is an oracle hole: always
	// surface it and fail the run.
	bad, err := fault.SilentViolations(out)
	if err != nil {
		fatal(err)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "faultcampaign: %d silent divergence(s) in detectable classes:\n  %s\n",
			len(bad), strings.Join(bad, "\n  "))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultcampaign:", err)
	os.Exit(1)
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
