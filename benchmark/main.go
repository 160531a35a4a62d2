// Command benchmark is this repository's one yardstick: seven workloads,
// from the cycle loop of one machine to the sharded router, each
// measured end to end with tracing off and layer by layer in a traced
// run, with its outputs checked. See README.md and ../BENCHMARK.json.
//
// From this directory:
//
//	go run . -workload all -seed 1 -out results.json
//	go run . -workload core-sync -trace 1 -trace-out spans.json
//	go run . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run, or \"all\"")
		seed      = flag.Uint64("seed", 1, "every input is generated from this seed")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics; with -workload all, both runs")
		traceOut  = flag.String("trace-out", "", "write the traced run's spans to this file")
		out       = flag.String("out", "", "write the runs' results to this file (JSON)")
		runs      = flag.Int("runs", 1, "untraced runs per workload with -workload all; -compare reads their spread")
		smoke     = flag.Bool("smoke", false, "every fixed count divided by 200 and half a second per run: checks, not measurements")
		compare   = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		golden    = flag.Bool("update-golden", false, "rewrite golden/ for seeds 1 and 2 (run from the benchmark directory)")
		printJSON = flag.Bool("manifest", false, "print BENCHMARK.json as the registry defines it")
		list      = flag.Bool("list", false, "list workloads, metrics and predictions")
	)
	flag.Parse()
	// The harness measures at every core the box has and says so in its
	// output.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *smoke && !flagSet("seconds") {
		*seconds = 0.5
	}

	var err error
	switch {
	case *printJSON:
		_, err = os.Stdout.Write(manifest())
	case *list:
		printList()
	case *golden:
		err = updateGolden("golden")
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *workload == "all":
		err = runAll(*seed, *seconds, *trace == 1, *smoke, *runs, *out)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, *smoke, *out, *traceOut)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runOne measures one workload once, prints its metrics, and ends
// standard output with the driver's line.
func runOne(name string, seed uint64, seconds float64, traced, smoke bool, out, traceOut string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (see -list)", name)
	}
	res, spans, err := runWorkload(w, seed, seconds, traced, smoke)
	if err != nil {
		return err
	}
	printResult(res)
	if out != "" {
		if err := writeResults(out, []*result{res}); err != nil {
			return err
		}
	}
	if traceOut != "" && traced {
		if err := writeSpans(traceOut, spans); err != nil {
			return err
		}
	}
	line, err := contractLine(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll measures every workload, each in a process of its own so that
// peak memory does not accumulate from one workload to the next.
func runAll(seed uint64, seconds float64, traced, smoke bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, cleanup, err := scratchDir("all")
	if err != nil {
		return err
	}
	defer cleanup()
	var all []*result
	failed := false
	child := func(name string, traced bool) error {
		file := filepath.Join(dir, "run.json")
		args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", file}
		if traced {
			args = append(args, "-trace", "1")
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		got, err := readResults(file)
		if err != nil {
			return fmt.Errorf("%s: %v (%v)", name, runErr, err)
		}
		failed = failed || runErr != nil
		all = append(all, got...)
		return os.Remove(file)
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			if err := child(w.Name, false); err != nil {
				return err
			}
		}
		if traced {
			if err := child(w.Name, true); err != nil {
				return err
			}
		}
	}
	if out != "" {
		if err := writeResults(out, all); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a workload failed its correctness checks")
	}
	return nil
}

func writeResults(path string, rs []*result) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// printResult prints every metric the run measured, by name, with its
// unit.
func printResult(r *result) {
	mode := "tracing off"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("%s  seed %d  %.3gs  %s  gomaxprocs %d  nproc %d  %s\n",
		r.Workload, r.Seed, r.Seconds, mode, r.GoMaxProcs, r.NProc, r.GoVersion)
	for _, name := range sortedKeys(r.Metrics) {
		v := r.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, name := range sortedKeys(r.Samples) {
		fmt.Printf("  samples: %-25s %14d\n", name, r.Samples[name])
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	fmt.Printf("  attempted %d, failed %d\n", r.Attempted, r.Failed)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-16s %s\n", w.Name, w.Why)
	}
	fmt.Println("\nend-to-end metrics (tracing off; every workload reports every one):")
	for _, m := range endToEnd {
		fmt.Printf("  %-14s %-4s %-6s bound %.0f%%\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Printf("\nper-layer metrics (traced run): %d; layer and the end-to-end metric it should move:\n", len(perLayer))
	fmt.Print(predictionTable())
}
