// Command mimdtrace is the reference-trace tool. Its record source is a
// trace file (binary MCT1 or line text, sniffed) or, with -workload, a
// workload generator captured standalone; either way the records stream
// once through the same pass: a summary (record counts by kind, PE
// count, distinct addresses, the class mix — the numbers Table 1-1's
// columns are made of), optional per-PE breakdowns and online
// miss-ratio curves, and a writer in either format. Traces replay with
// mimdsim -trace and register as experiments with -trace name=path.
//
// Usage:
//
//	mimdtrace refs.mct
//	mimdtrace -perpe -misscurve refs.mct
//	mimdtrace -convert refs.txt refs.mct     # binary in -> text out (and back)
//	mimdtrace -workload pde -pes 4 -ops 10000 -out refs.mct
//	mimdtrace -workload arrayinit -pes 1 -ops 512 -format text   # trace to stdout, summary to stderr
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/mrc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// captured is a trace.Source over records already in memory.
type captured []trace.Record

func (c *captured) Read() (trace.Record, error) {
	if len(*c) == 0 {
		return trace.Record{}, io.EOF
	}
	rec := (*c)[0]
	*c = (*c)[1:]
	return rec, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit: 0 success,
// 1 the pass failed, 2 the command line was unusable.
func run(args []string, stdout, stderr io.Writer) int {
	// The generators take the parameters mimdsim's flag form gives them.
	gen := config.Default().Workload
	gen.TSFrac = 0.02

	fs := flag.NewFlagSet("mimdtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&gen.Kind, "workload", "", "capture this generator instead of reading a file: pde, qsort, arrayinit, hotspot, random")
	fs.IntVar(&gen.Refs, "ops", 10000, "operations per PE (-workload)")
	var (
		pes       = fs.Int("pes", 4, "number of PEs (-workload)")
		seed      = fs.Uint64("seed", 1, "workload seed (-workload)")
		out       = fs.String("out", "", "write the captured trace here (-workload; default stdout, which moves the summary to stderr)")
		format    = fs.String("format", "binary", "format of the captured trace: binary or text (-workload)")
		missCurve = fs.Bool("misscurve", false,
			"stream the trace through the online miss-ratio profiler and print the exact fully-associative LRU curve per PE and machine-wide")
		perPE   = fs.Bool("perpe", false, "print a per-PE summary table")
		convert = fs.String("convert", "",
			"also convert the trace file to PATH in the opposite format (binary in -> text out, text in -> binary out)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mimdtrace:", err)
		return 1
	}
	generate := gen.Kind != ""
	switch {
	case fs.NArg() > 1, generate == (fs.NArg() == 1), // exactly one source
		generate && *convert != "", !generate && *out != "", // each writer flag belongs to one of them
		*format != "binary" && *format != "text":
		fmt.Fprintln(stderr, "usage: mimdtrace [-perpe] [-misscurve] [-convert out] <file>")
		fmt.Fprintln(stderr, "       mimdtrace -workload kind [-pes n] [-ops n] [-seed n] [-out file] [-format binary|text] [-perpe] [-misscurve]")
		return 2
	}

	// Source and, when something is to be written, where and in which
	// format.
	var src trace.Source
	sinkPath, sinkBinary := *convert, false
	summary := stdout
	if generate {
		if gen.Reactive() {
			return fail(fmt.Errorf("workload %q is reactive (locks, flags, barriers): it cannot be captured standalone", gen.Kind))
		}
		agents, err := gen.Agents(*pes, *seed)
		if err != nil {
			return fail(err)
		}
		var recs captured
		for pe, agent := range agents {
			recs = append(recs, trace.Capture(pe, agent, gen.Refs+1)...)
		}
		src = &recs
		sinkPath, sinkBinary = *out, *format == "binary"
		if *out == "" {
			summary = stderr
		}
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		var binary bool
		src, binary = trace.Open(f)
		sinkBinary = !binary
	}
	var sink interface {
		Write(trace.Record) error
		Flush() error
	}
	var sinkFile *os.File
	if generate || *convert != "" {
		dst := stdout
		if sinkPath != "" {
			f, err := os.Create(sinkPath)
			if err != nil {
				return fail(err)
			}
			sinkFile, dst = f, f
		}
		if sinkBinary {
			sink = trace.NewWriter(dst)
		} else {
			sink = trace.NewTextWriter(dst)
		}
	}

	// One pass: accumulate the summary, feed the online profilers, and
	// write, record by record — no buffering of a trace file.
	acc := trace.NewAccumulator()
	var global *mrc.Profiler
	profilers := map[int]*mrc.Profiler{}
	var order []int
	if *missCurve {
		global = mrc.New()
	}
	for {
		rec, err := src.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		acc.Add(rec)
		if *missCurve {
			switch rec.Op.Kind {
			case workload.OpRead, workload.OpWrite, workload.OpTestSet:
				p := profilers[rec.PE]
				if p == nil {
					p = mrc.New()
					profilers[rec.PE] = p
					order = append(order, rec.PE)
				}
				p.Touch(rec.Op.Addr)
				global.Touch(rec.Op.Addr)
			case workload.OpCompute, workload.OpHalt:
				// No memory reference: nothing for the curve.
			}
		}
		if sink != nil {
			if err := sink.Write(rec); err != nil {
				return fail(err)
			}
		}
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			return fail(err)
		}
	}
	if sinkFile != nil {
		if err := sinkFile.Close(); err != nil {
			return fail(err)
		}
	}

	s := acc.Stats()
	fmt.Fprintf(summary, "records    %d\n", s.Records)
	fmt.Fprintf(summary, "PEs        %d\n", s.PEs)
	fmt.Fprintf(summary, "addresses  %d distinct\n", s.Addresses)
	fmt.Fprintf(summary, "reads      %d\n", s.Reads)
	fmt.Fprintf(summary, "writes     %d\n", s.Writes)
	fmt.Fprintf(summary, "test-sets  %d\n", s.TestSets)
	fmt.Fprintf(summary, "computes   %d\n", s.Computes)
	fmt.Fprintf(summary, "halts      %d\n", s.Halts)
	memRefs := s.Reads + s.Writes + s.TestSets
	if memRefs > 0 {
		for _, c := range []coherence.Class{coherence.ClassCode, coherence.ClassLocal, coherence.ClassShared, coherence.ClassUnknown} {
			if n := s.ByClass[c]; n > 0 {
				fmt.Fprintf(summary, "class %-8s %d (%.1f%%)\n", c, n, 100*float64(n)/float64(memRefs))
			}
		}
	}
	if *convert != "" {
		from, to := "text", "binary"
		if !sinkBinary {
			from, to = to, from
		}
		fmt.Fprintf(summary, "converted  %s -> %s (%s)\n", from, to, *convert)
	}

	if *perPE {
		fmt.Fprintf(summary, "\n%5s %9s %9s %9s %9s %9s %6s %10s\n",
			"PE", "records", "reads", "writes", "test-sets", "computes", "halts", "addresses")
		for _, ps := range acc.PerPE() {
			fmt.Fprintf(summary, "%5d %9d %9d %9d %9d %9d %6d %10d\n",
				ps.PE, ps.Records, ps.Reads, ps.Writes, ps.TestSets, ps.Computes, ps.Halts, ps.Addresses)
		}
	}

	if *missCurve {
		sizes := mrc.DefaultSizes()
		for _, pe := range order {
			printCurve(summary, fmt.Sprintf("PE %d", pe), profilers[pe], sizes)
		}
		if len(order) > 1 {
			printCurve(summary, "machine (all PEs)", global, sizes)
		}
	}
	return 0
}

// printCurve renders one online profiler's miss curve.
func printCurve(w io.Writer, label string, p *mrc.Profiler, sizes []int) {
	fmt.Fprintf(w, "\n%s: %d refs, footprint %d, %d cold misses\n",
		label, p.Refs(), p.Footprint(), p.Colds())
	fmt.Fprintf(w, "%8s  %10s  %s\n", "lines", "misses", "miss ratio")
	for _, pt := range p.Curve(sizes) {
		fmt.Fprintf(w, "%8d  %10d  %.4f\n", pt.Lines, pt.Misses, pt.MissRatio)
	}
}
