// Command chaoscampaign runs the S27 cluster chaos campaign
// (chaos.Run): for each (chaos class, intensity) cell it boots an
// embedded fleet — router + N in-process workers — injects the cell's
// seeded fault plan into the router↔worker transport (or drives the
// pause/crash process schedule), pushes a deterministic traffic run from
// concurrent clients through the front door, and classifies the cell
// against the fault-free single-node oracle:
//
//   - masked:   every request answered 200 on the first attempt,
//     every result byte-identical to the oracle — the fleet
//     absorbed the faults invisibly;
//   - degraded: the contract held (only 200 / 429 / 503-with-
//     Retry-After, nothing hung) but the seams showed —
//     retries, failovers, attempt timeouts or shed requests;
//   - failed:   a contract violation — a forbidden status, a hang past
//     the deadline, or a completed result whose bytes differ
//     from the oracle's.
//
// Usage:
//
//	chaoscampaign                                   # all classes at default intensity
//	chaoscampaign -classes conn-refuse,burst-5xx -intensities low,default,high
//	chaoscampaign -seed 7 -n 96 -workers 4 -j 4 -o matrix.txt
//	chaoscampaign -list-classes
//
// The same seed renders the same matrix at any -j and on every rerun:
// a request's faults are a pure function of (seed, class, intensity,
// request index), and the router keeps no state between requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"repro/internal/chaos"
)

func main() {
	var (
		classList = flag.String("classes", "", "comma-separated chaos classes (default all); see -list-classes")
		intenList = flag.String("intensities", "default", "comma-separated intensities: low, default, high")
		seed      = flag.Uint64("seed", 1, "campaign seed; same seed = same fault plan = same matrix")
		requests  = flag.Int("n", 48, "traffic requests per cell")
		workers   = flag.Int("workers", 3, "workers per cell fleet (at least 2)")
		jobs      = flag.Int("j", runtime.NumCPU(), "cells run in parallel")
		outPath   = flag.String("o", "", "write the matrix here instead of stdout")
		listCls   = flag.Bool("list-classes", false, "list chaos classes and exit")
	)
	flag.Parse()

	if *listCls {
		for _, c := range chaos.Classes() {
			kind := "transport"
			if c.Process() {
				kind = "process"
			}
			fmt.Printf("%-13s %s\n", c, kind)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg, err := buildConfig(*classList, *intenList, *seed, *requests, *workers)
	if err != nil {
		fatal(err)
	}
	cells, err := chaos.Run(ctx, cfg, *jobs)
	if err != nil {
		fatal(err)
	}
	matrix := chaos.Render(cells)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(matrix), 0o644); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(matrix)
	}
	for _, cell := range cells {
		if cell.Failed() {
			fmt.Fprintf(os.Stderr, "chaoscampaign: cell %s/%s failed its contract\n", cell.Class, cell.Intensity)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaoscampaign:", err)
	os.Exit(1)
}

// buildConfig resolves the -classes and -intensities lists.
func buildConfig(classList, intenList string, seed uint64, requests, workers int) (chaos.Config, error) {
	cfg := chaos.Config{Seed: seed, Requests: requests, Workers: workers}
	if classList == "" {
		cfg.Classes = chaos.Classes()
	} else {
		for _, name := range splitList(classList) {
			c, err := chaos.ParseClass(name)
			if err != nil {
				return cfg, err
			}
			cfg.Classes = append(cfg.Classes, c)
		}
	}
	for _, name := range splitList(intenList) {
		in, err := chaos.ParseIntensity(name)
		if err != nil {
			return cfg, err
		}
		cfg.Intensities = append(cfg.Intensities, in)
	}
	if len(cfg.Intensities) == 0 {
		cfg.Intensities = []chaos.Intensity{chaos.Default}
	}
	return cfg, nil
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
