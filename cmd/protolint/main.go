// Command protolint is the repo's static verification layer: a
// standard-library-only analysis pass over the simulator's code. It
// complements cmd/modelcheck (which proves the dynamic Section 4
// consistency properties) with compile-time guarantees:
//
//   - exhaustive: switches over coherence.State, the event kinds, and
//     every other module-defined enum must cover all constants or carry
//     an explicit default, so adding a protocol (Illinois, Goodman,
//     write-through, ...) cannot silently fall through existing code;
//   - determinism: map-iteration order must not reach simulator state,
//     stats output or trace emission, and simulation packages must not
//     consult time.Now, wall-clock timers or math/rand — BENCH
//     comparisons and the Figure 6-x reproductions depend on
//     bit-identical runs;
//   - phaseaudit: //phase:bus|snoop|cpu|any annotations declare which
//     cycle-loop phase owns each mutable simulator field, and every
//     write reached from a phase that does not own it is flagged — the
//     static precondition for parallelizing the core by bus bank.
//
// Allocation freedom of the cycle loop is checked at run time, not here:
// machine.TestSteadyStateAllocFree counts the steady state's allocations.
// Nor are the protocol tables: they are data, and coherence's Table.Audit
// checks their totality, closure, reachability and outcome sanity.
//
// Usage:
//
//	protolint ./...            # analyze the whole module (run from its root)
//	protolint ./internal/cache # one package
//	protolint -format=json ./... # one JSON object per finding (JSON Lines)
//
// Diagnostics print in go vet's file:line:col format; -format=json emits
// machine-readable objects ({analyzer, file, line, col, message,
// suppressed}) including suppressed findings, so CI annotation tooling
// sees waivers too. A finding can be waived with a "//lint:ignore reason"
// comment on the flagged line or the line above it ("//lint:ignore
// <analyzer> reason" scopes the waiver to one analyzer). Exit status:
// 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges cut off, so the exit-code contract
// (0 clean, 1 findings, 2 load error) is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("protolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or json (JSON Lines, includes suppressed findings)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: protolint [-format=text|json] <packages> (e.g. ./...)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "protolint: unknown format %q (want text or json)\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dirs, err := lint.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "protolint:", err)
		return 2
	}
	diags, err := lint.Run(lint.Config{
		Dirs:              dirs,
		IncludeSuppressed: *format == "json",
	})
	if err != nil {
		fmt.Fprintln(stderr, "protolint:", err)
		return 2
	}
	if *format == "json" {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "protolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	// Suppressed findings are informational (json only); only live ones
	// fail the run.
	if n := lint.Unsuppressed(diags); n > 0 {
		fmt.Fprintf(stderr, "protolint: %d finding(s) in %d package dir(s)\n", n, len(dirs))
		return 1
	}
	return 0
}
