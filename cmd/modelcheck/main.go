// Command modelcheck exhaustively verifies a cache-coherence protocol's
// consistency — the Section 4 proof, mechanized. It explores the product
// machine of N caches plus memory for a single address and checks that
// every read observes the latest written value, that the latest value
// always survives, that at most one cache interrupts a bus read, and (for
// RB/RWB) that the configuration lemma holds. The caches, the bus and the
// memory are the simulator's own (internal/check drives a machine.Machine
// with one-line caches), so the verdict is about the code that runs the
// experiments, not about a model of it. On failure it prints a minimal
// counterexample trace.
//
// Usage:
//
//	modelcheck                     # verify rb and rwb for 2..5 caches
//	modelcheck -protocol rwb -n 4  # one protocol, one size
//	modelcheck -all                # every implemented protocol
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/coherence"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit: 0 every check
// passed, 1 a check failed, 2 the command line was unusable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protoName = fs.String("protocol", "", "protocol to check (default: rb and rwb)")
		n         = fs.Int("n", 0, "number of caches (default: 2..5)")
		all       = fs.Bool("all", false, "check every implemented protocol")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "modelcheck: unexpected argument %q (usage: modelcheck [-all | -protocol name] [-n caches])\n", fs.Arg(0))
		return 2
	}

	if *all && *protoName != "" {
		fmt.Fprintln(stderr, "modelcheck: -all and -protocol are mutually exclusive")
		return 2
	}
	var tables []*coherence.Table
	explicit := false
	switch {
	case *all:
		for _, k := range coherence.Kinds() {
			tables = append(tables, coherence.New(k))
		}
	case *protoName != "":
		explicit = true
		t, err := coherence.ByName(*protoName)
		if err != nil {
			fmt.Fprintln(stderr, "modelcheck:", err)
			return 2
		}
		tables = []*coherence.Table{t}
	default:
		tables = []*coherence.Table{coherence.New(coherence.KindRB), coherence.New(coherence.KindRWB)}
	}

	// An -n that was given is used as given, so that 0 and negatives are
	// refused below like any other size check.Run does not take.
	sizes := []int{2, 3, 4, 5}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "n" {
			sizes = []int{*n}
		}
	})

	failed := false
	for _, t := range tables {
		// The product machine has every PE reference one address in one
		// class, a class every scheme caches, and assumes transparency: the
		// protocol behaves identically for every data class. Cm* is
		// class-dependent — it keeps shared data out of its cache and has
		// nothing to keep the classes it does cache coherent — so N PEs
		// sharing a cached address is not a configuration it runs. Skip such
		// protocols in sweeps; an explicit -protocol request still runs the
		// check and shows the trace.
		if !explicit && !transparent(t) {
			fmt.Fprintf(stdout, "%-13s SKIP: class-dependent cachability (shared data is uncached; the transparent product machine does not apply)\n", t.Name())
			continue
		}
		for _, size := range sizes {
			opt := check.Options{Caches: size}
			switch t.Name() {
			case "rb":
				opt.Invariant = check.RBLemma
			case "rwb":
				opt.Invariant = check.RWBLemma
			}
			res, err := check.Run(t, opt)
			if v := (*check.Violation)(nil); errors.As(err, &v) {
				failed = true
				fmt.Fprintf(stdout, "%-13s N=%d  FAIL: %v\n", t.Name(), size, err)
				continue
			}
			if err != nil {
				// Not a verdict: the check could not run as asked (a size
				// outside what the product machine takes).
				fmt.Fprintln(stderr, "modelcheck:", err)
				return 2
			}
			lemma := ""
			if opt.Invariant != nil {
				lemma = " (configuration lemma verified)"
			}
			fmt.Fprintf(stdout, "%-13s N=%d  OK: %d reachable states, %d transitions%s\n",
				t.Name(), size, res.States, res.Transitions, lemma)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// transparent reports whether t's class filter treats every data class
// alike — the premise of the single-address product machine.
func transparent(t *coherence.Table) bool {
	for _, uncached := range t.Uncached {
		if uncached != t.Uncached[0] {
			return false
		}
	}
	return true
}
