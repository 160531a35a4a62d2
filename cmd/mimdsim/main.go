// Command mimdsim is the general-purpose simulator front end: its flags
// fill a config.RunSpec (or -config loads one from JSON), the spec builds
// the machine (protocol, cache geometry, bus count) and its workload
// (built-in generators or a trace file), and the run prints the metric
// summary the paper's comparisons are made of.
//
// Examples:
//
//	mimdsim -protocol rwb -pes 8 -workload spinlock-tts -iters 100
//	mimdsim -protocol rb -pes 16 -workload pde -refs 50000 -buses 2
//	mimdsim -trace refs.mct -protocol goodman       # binary or text trace
//	mimdsim -config run.json -v
//	mimdsim -protocol rb -faults all                # quickstart fault-injection trials
//	mimdsim -protocol rb-dirty -faults mem-lost-write -fault-trials 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mrc"
	"repro/internal/profiling"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit: 0 success,
// 1 the run failed, 2 the run description was unusable.
func run(args []string, stdout, stderr io.Writer) int {
	spec := config.Default()
	// The flag form of the random kind has always issued 2% Test-and-Sets.
	spec.Workload.TSFrac = 0.02

	fs := flag.NewFlagSet("mimdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&spec.Protocol, "protocol", spec.Protocol, "coherence protocol (rb, rwb, goodman, writethrough, cmstar, nocache)")
	fs.IntVar(&spec.PEs, "pes", spec.PEs, "number of processing elements")
	fs.IntVar(&spec.CacheLines, "lines", spec.CacheLines, "cache lines per PE (power of two)")
	fs.IntVar(&spec.CacheWays, "ways", spec.CacheWays, "cache associativity (1 = direct-mapped)")
	fs.IntVar(&spec.Buses, "buses", spec.Buses, "interleaved shared buses (power of two)")
	fs.IntVar(&spec.MemLatency, "memlat", spec.MemLatency, "extra bus-hold cycles per memory access")
	fs.IntVar(&spec.RWBThreshold, "k", spec.RWBThreshold, "RWB write-streak threshold (2..255)")
	fs.StringVar(&spec.Workload.Kind, "workload", spec.Workload.Kind, "workload: pde, qsort, spinlock-ts, spinlock-tts, arrayinit, hotspot, random, producer-consumer, barrier")
	fs.IntVar(&spec.Workload.Refs, "refs", spec.Workload.Refs, "references per PE (generator workloads)")
	fs.IntVar(&spec.Workload.Iterations, "iters", spec.Workload.Iterations, "acquisitions per PE (spinlock workloads)")
	fs.Uint64Var(&spec.Seed, "seed", spec.Seed, "workload seed")
	fs.Uint64Var(&spec.MaxCycles, "cycles", spec.MaxCycles, "cycle budget")
	fs.BoolVar(&spec.DisableCheck, "nocheck", spec.DisableCheck, "disable the consistency oracle")
	fs.StringVar(&spec.Workload.Trace, "trace", "", "replay a trace file (binary or text) instead of a generator")
	fs.Uint64Var(&spec.WatchdogCycles, "watchdog", spec.WatchdogCycles, "abort if a PE stalls this many cycles (0 = off)")
	var (
		verbose    = fs.Bool("v", false, "per-PE statistics")
		latency    = fs.Bool("latency", false, "print the miss-latency distribution")
		configPath = fs.String("config", "", "load a JSON run spec (replaces the workload/machine flags)")
		profile    = fs.Bool("profile", false, "attach the online miss-ratio profiler and print the hit-rate-vs-cache-size curve (per PE with -v)")
		faults     = fs.String("faults", "", "run fault-injection trials instead of a plain simulation: comma-separated fault classes, or \"all\"")
		faultN     = fs.Int("fault-trials", 4, "trials per fault class in -faults mode")
		faultSeed  = fs.Uint64("fault-seed", 1, "campaign seed for -faults mode (workload and fault plans)")
		utilWindow = fs.Uint64("utilwindow", 0, "sample bus utilization every N cycles and print the series")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "mimdsim:", err)
		return code
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if spec.Workload.Trace != "" {
		spec.Workload.Kind = "trace"
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return fail(1, err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "mimdsim:", err)
		}
	}()

	if *faults != "" {
		if err := runFaults(stdout, spec.Protocol, *faults, spec.PEs, *faultN, *faultSeed); err != nil {
			return fail(1, err)
		}
		return 0
	}

	if *configPath != "" {
		loaded, err := config.LoadFile(*configPath)
		if err != nil {
			return fail(2, err)
		}
		spec = *loaded
	}
	if err := spec.Validate(); err != nil {
		return fail(2, err)
	}
	cfg, agents, err := spec.Build()
	if err != nil {
		return fail(1, err)
	}
	m, err := machine.New(cfg, agents)
	if err != nil {
		return fail(1, err)
	}
	var profSet *mrc.Set
	if *profile {
		profSet = mrc.Attach(m)
	}

	var ran uint64
	var series []float64
	if *utilWindow > 0 {
		series, err = machine.NewSampler(m).UtilizationSeries(*utilWindow, spec.MaxCycles)
		ran = m.Cycle()
	} else {
		ran, err = m.Run(spec.MaxCycles)
	}
	if err != nil {
		return fail(1, err)
	}
	if !m.Done() {
		fmt.Fprintf(stderr, "warning: cycle budget (%d) exhausted before all PEs halted\n", spec.MaxCycles)
	}

	mt := m.Metrics()
	fmt.Fprintf(stdout, "protocol       %s\n", cfg.Protocol.Name())
	fmt.Fprintf(stdout, "PEs            %d   cache %d x %d-way   buses %d\n", len(agents), cfg.CacheLines, cfg.CacheWays, cfg.Buses)
	fmt.Fprintf(stdout, "cycles         %d\n", ran)
	fmt.Fprintf(stdout, "refs retired   %d  (%.3f refs/cycle)\n", mt.TotalRefs(), float64(mt.TotalRefs())/float64(ran))
	fmt.Fprintf(stdout, "bus txns       %d  (%.3f per ref)\n", mt.Bus.Transactions(), mt.BusPerRef())
	fmt.Fprintf(stdout, "  reads        %d\n", mt.Bus.Reads())
	fmt.Fprintf(stdout, "  writes       %d  (%d flushes)\n", mt.Bus.Writes(), mt.Bus.FlushWrites)
	fmt.Fprintf(stdout, "  invalidates  %d\n", mt.Bus.Invalidates())
	fmt.Fprintf(stdout, "  RMWs         %d  (%d ok, %d failed)\n", mt.Bus.RMWs(), mt.Bus.RMWSuccess, mt.Bus.RMWFailure)
	fmt.Fprintf(stdout, "bus util       %.3f\n", mt.Bus.Utilization())
	if cfg.Buses > 1 {
		fmt.Fprintf(stdout, "per-bus txns   %v\n", mt.PerBusTransactions)
	}
	var hits, accesses uint64
	for _, cs := range mt.Caches {
		hits += cs.ReadHits + cs.WriteHits
		accesses += cs.Reads + cs.Writes
	}
	if accesses > 0 {
		fmt.Fprintf(stdout, "hit ratio      %.3f\n", float64(hits)/float64(accesses))
	}
	if *latency {
		h := mt.MissLatency
		fmt.Fprintf(stdout, "miss latency   %s\n", h.String())
		fmt.Fprintf(stdout, "  distribution %s\n", h.Sparkline())
		for _, bkt := range h.Buckets() {
			fmt.Fprintf(stdout, "  %6d..%-6d %d\n", bkt.Low, bkt.High, bkt.Count)
		}
	}
	if *utilWindow > 0 {
		fmt.Fprintf(stdout, "utilization series (window %d):", *utilWindow)
		for _, u := range series {
			fmt.Fprintf(stdout, " %.2f", u)
		}
		fmt.Fprintln(stdout)
	}
	if *verbose {
		for i, ps := range mt.Procs {
			cs := mt.Caches[i]
			fmt.Fprintf(stdout, "PE%-3d retired %7d  stalls %7d  miss %.3f  snarfs %d  invalidated %d\n",
				i, ps.Retired, ps.StallCycles, cs.MissRatio(), cs.Snarfs, cs.InvalidatedBy)
		}
	}
	if profSet != nil {
		printProfile(stdout, profSet, *verbose)
	}
	return 0
}

// runFaults is the fault-injection quickstart: one single-protocol,
// single-seed campaign spec, each selected class's cell run in turn and
// printed trial by trial — the same cells cmd/faultcampaign tabulates.
func runFaults(stdout io.Writer, protoName, classList string, pes, trials int, seed uint64) error {
	spec := fault.CampaignSpec{Protocols: []string{protoName}, Seeds: []uint64{seed}, Trials: trials, PEs: pes}
	if classList != "all" {
		for _, name := range strings.Split(classList, ",") {
			if name = strings.TrimSpace(name); name != "" {
				spec.Classes = append(spec.Classes, name)
			}
		}
		if len(spec.Classes) == 0 {
			return fmt.Errorf("no fault classes selected")
		}
	}
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	for i, class := range cfg.WithDefaults().Classes {
		cell, err := cfg.RunCell(protoName, class, seed)
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(stdout, "protocol %s: fault-free reference ran %d cycles, %d memory writes\n\n", protoName, cell.Ref.Cycles, cell.Ref.Writes)
		}
		var counts [3]int
		fmt.Fprintf(stdout, "%s:\n", class)
		for t, res := range cell.Trials {
			counts[res.Outcome]++
			fmt.Fprintf(stdout, "  trial %d: %-8s %s\n", t, res.Outcome, res.Detail)
		}
		fmt.Fprintf(stdout, "  => masked=%d detected=%d silent=%d\n", counts[fault.Masked], counts[fault.Detected], counts[fault.Silent])
	}
	return nil
}
