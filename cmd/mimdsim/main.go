// Command mimdsim is the general-purpose simulator front end: it assembles
// a machine (protocol, cache geometry, bus count), attaches a workload
// (built-in generators or a trace file), runs it, and prints the metric
// summary the paper's comparisons are made of.
//
// Examples:
//
//	mimdsim -protocol rwb -pes 8 -workload spinlock-tts -iters 100
//	mimdsim -protocol rb -pes 16 -workload pde -refs 50000 -buses 2
//	mimdsim -trace refs.mct -protocol goodman
//	mimdsim -protocol rb -faults all                # quickstart fault-injection trials
//	mimdsim -protocol rb-dirty -faults mem-lost-write -fault-trials 8
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/bus"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mrc"
	"repro/internal/profiling"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		protoName  = flag.String("protocol", "rb", "coherence protocol (rb, rwb, goodman, writethrough, cmstar, nocache)")
		pes        = flag.Int("pes", 4, "number of processing elements")
		lines      = flag.Int("lines", 1024, "cache lines per PE (power of two)")
		ways       = flag.Int("ways", 1, "cache associativity (1 = direct-mapped)")
		buses      = flag.Int("buses", 1, "interleaved shared buses (power of two)")
		memLat     = flag.Int("memlat", 0, "extra bus-hold cycles per memory access")
		kThresh    = flag.Uint("k", 2, "RWB write-streak threshold")
		wl         = flag.String("workload", "pde", "workload: pde, qsort, spinlock-ts, spinlock-tts, arrayinit, hotspot, random, producer-consumer")
		refs       = flag.Int("refs", 20000, "references per PE (generator workloads)")
		iters      = flag.Int("iters", 50, "acquisitions per PE (spinlock workloads)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		maxCycles  = flag.Uint64("cycles", 100_000_000, "cycle budget")
		noCheck    = flag.Bool("nocheck", false, "disable the consistency oracle")
		tracePath  = flag.String("trace", "", "replay a binary trace file instead of a generator")
		verbose    = flag.Bool("v", false, "per-PE statistics")
		latency    = flag.Bool("latency", false, "print the miss-latency distribution")
		watchdog   = flag.Uint64("watchdog", 1_000_000, "abort if a PE stalls this many cycles (0 = off)")
		configPath = flag.String("config", "", "load a JSON run spec (overrides the workload/machine flags)")
		profile    = flag.Bool("profile", false, "attach the online miss-ratio profiler and print the hit-rate-vs-cache-size curve (per PE with -v)")
		faults     = flag.String("faults", "", "run fault-injection trials instead of a plain simulation: comma-separated fault classes, or \"all\"")
		faultN     = flag.Int("fault-trials", 4, "trials per fault class in -faults mode")
		faultSeed  = flag.Uint64("fault-seed", 1, "campaign seed for -faults mode (workload and fault plans)")
		utilWindow = flag.Uint64("utilwindow", 0, "sample bus utilization every N cycles and print the series")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "mimdsim:", err)
		}
	}()

	if *faults != "" {
		if err := runFaults(*protoName, *faults, *pes, *faultN, *faultSeed); err != nil {
			fatal(err)
		}
		return
	}

	var cfg machine.Config
	var agents []workload.Agent
	budget := *maxCycles

	if *configPath != "" {
		spec, err := config.LoadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		if cfg, agents, err = spec.Build(); err != nil {
			fatal(err)
		}
		budget = spec.MaxCyclesOrDefault()
	} else {
		var proto coherence.Protocol
		var err error
		if *protoName == "rwb" && *kThresh != 2 {
			proto = coherence.NewRWB(uint8(*kThresh))
		} else if proto, err = coherence.ByName(*protoName); err != nil {
			fatal(err)
		}
		if agents, err = buildAgents(*wl, *tracePath, *pes, *refs, *iters, *seed); err != nil {
			fatal(err)
		}
		cfg = machine.Config{
			Protocol:         proto,
			CacheLines:       *lines,
			CacheWays:        *ways,
			Buses:            *buses,
			MemLatency:       *memLat,
			CheckConsistency: !*noCheck,
			StallCycles:      *watchdog,
		}
	}

	m, err := machine.New(cfg, agents)
	if err != nil {
		fatal(err)
	}
	var profSet *mrc.Set
	if *profile {
		profSet = mrc.Attach(m)
	}

	var ran uint64
	var series []float64
	if *utilWindow > 0 {
		series, err = machine.NewSampler(m).UtilizationSeries(*utilWindow, budget)
		ran = m.Cycle()
	} else {
		ran, err = m.Run(budget)
	}
	if err != nil {
		fatal(err)
	}
	if !m.Done() {
		fmt.Fprintf(os.Stderr, "warning: cycle budget (%d) exhausted before all PEs halted\n", budget)
	}

	mt := m.Metrics()
	fmt.Printf("protocol       %s\n", cfg.Protocol.Name())
	fmt.Printf("PEs            %d   cache %d x %d-way   buses %d\n", len(agents), cfg.CacheLines, cfg.CacheWays, cfg.Buses)
	fmt.Printf("cycles         %d\n", ran)
	fmt.Printf("refs retired   %d  (%.3f refs/cycle)\n", mt.TotalRefs(), float64(mt.TotalRefs())/float64(ran))
	fmt.Printf("bus txns       %d  (%.3f per ref)\n", mt.Bus.Transactions(), mt.BusPerRef())
	fmt.Printf("  reads        %d\n", mt.Bus.Reads())
	fmt.Printf("  writes       %d  (%d flushes)\n", mt.Bus.Writes(), mt.Bus.FlushWrites)
	fmt.Printf("  invalidates  %d\n", mt.Bus.Invalidates())
	fmt.Printf("  RMWs         %d  (%d ok, %d failed)\n", mt.Bus.RMWs(), mt.Bus.RMWSuccess, mt.Bus.RMWFailure)
	fmt.Printf("bus util       %.3f\n", mt.Bus.Utilization())
	if *buses > 1 {
		fmt.Printf("per-bus txns   %v\n", mt.PerBusTransactions)
	}
	var hits, accesses uint64
	for _, cs := range mt.Caches {
		hits += cs.ReadHits + cs.WriteHits
		accesses += cs.Reads + cs.Writes
	}
	if accesses > 0 {
		fmt.Printf("hit ratio      %.3f\n", float64(hits)/float64(accesses))
	}
	if *latency {
		h := mt.MissLatency
		fmt.Printf("miss latency   %s\n", h.String())
		fmt.Printf("  distribution %s\n", h.Sparkline())
		for _, bkt := range h.Buckets() {
			fmt.Printf("  %6d..%-6d %d\n", bkt.Low, bkt.High, bkt.Count)
		}
	}
	if *utilWindow > 0 {
		fmt.Printf("utilization series (window %d):", *utilWindow)
		for _, u := range series {
			fmt.Printf(" %.2f", u)
		}
		fmt.Println()
	}
	if *verbose {
		for i, ps := range mt.Procs {
			cs := mt.Caches[i]
			fmt.Printf("PE%-3d retired %7d  stalls %7d  miss %.3f  snarfs %d  invalidated %d\n",
				i, ps.Retired, ps.StallCycles, cs.MissRatio(), cs.Snarfs, cs.InvalidatedBy)
		}
	}
	if profSet != nil {
		printProfile(profSet, *verbose)
	}
}

func buildAgents(wl, tracePath string, pes, refs, iters int, seed uint64) ([]workload.Agent, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := trace.NewReader(f).ReadAll()
		if err != nil {
			return nil, err
		}
		split := trace.Split(recs)
		ids := make([]int, 0, len(split))
		for pe := range split {
			ids = append(ids, pe)
		}
		sort.Ints(ids)
		if len(ids) == 0 {
			return nil, fmt.Errorf("trace %q is empty", tracePath)
		}
		agents := make([]workload.Agent, ids[len(ids)-1]+1)
		for i := range agents {
			agents[i] = workload.Idle()
		}
		for pe, a := range split {
			agents[pe] = a
		}
		return agents, nil
	}

	agents := make([]workload.Agent, pes)
	layout := workload.DefaultLayout()
	for i := range agents {
		switch wl {
		case "pde", "qsort":
			prof := workload.PDEProfile()
			if wl == "qsort" {
				prof = workload.QuicksortProfile()
			}
			app, err := workload.NewApp(prof, layout, i, seed, refs)
			if err != nil {
				return nil, err
			}
			agents[i] = app
		case "spinlock-ts", "spinlock-tts":
			strat := workload.StrategyTS
			if wl == "spinlock-tts" {
				strat = workload.StrategyTTS
			}
			s, err := workload.NewSpinlock(workload.SpinlockConfig{
				Lock: 100, Strategy: strat, Iterations: iters,
				CriticalReads: 3, CriticalWrites: 3,
				GuardedBase: 200, GuardedWords: 8,
				Seed: seed + uint64(i),
			})
			if err != nil {
				return nil, err
			}
			agents[i] = s
		case "arrayinit":
			agents[i] = workload.NewArrayInit(bus.Addr(i*refs), refs)
		case "hotspot":
			agents[i] = workload.NewHotspot(100, refs)
		case "random":
			agents[i] = workload.NewRandom(0, 256, refs, 0.3, 0.02, seed+uint64(i))
		case "producer-consumer":
			if i == 0 {
				agents[i] = workload.NewProducer(10, 11, refs, 20)
			} else {
				agents[i] = workload.NewConsumer(10, 11, refs)
			}
		default:
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
	}
	return agents, nil
}

// runFaults is the fault-injection quickstart: a fault-free reference run
// of the campaign workload, then -fault-trials seeded faults per selected
// class, each classified against the divergence oracles and printed.
func runFaults(protoName, classList string, pes, trials int, seed uint64) error {
	proto, err := coherence.ByName(protoName)
	if err != nil {
		return err
	}
	var classes []fault.Class
	if classList == "all" {
		classes = fault.Classes()
	} else {
		for _, name := range strings.Split(classList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			c, err := fault.ParseClass(name)
			if err != nil {
				return err
			}
			classes = append(classes, c)
		}
	}
	if len(classes) == 0 {
		return fmt.Errorf("no fault classes selected")
	}
	tcfg := fault.TrialConfig{Protocol: proto, PEs: pes}
	ref, err := tcfg.Reference(seed)
	if err != nil {
		return err
	}
	fmt.Printf("protocol %s: fault-free reference ran %d cycles, %d memory writes\n\n", protoName, ref.Cycles, ref.Writes)
	for _, class := range classes {
		// Fresh stream per class, same derivation as the campaign runner,
		// so trial t here reproduces trial t of the matching campaign cell.
		trialRNG := workload.NewRNG(seed ^ 0xfa17fa17fa17fa17)
		var counts [3]int
		fmt.Printf("%s:\n", class)
		for t := 0; t < trials; t++ {
			res, err := fault.RunTrial(tcfg, ref, class, seed, trialRNG.Uint64())
			if err != nil {
				return err
			}
			counts[res.Outcome]++
			fmt.Printf("  trial %d: %-8s %s\n", t, res.Outcome, res.Detail)
		}
		fmt.Printf("  => masked=%d detected=%d silent=%d\n", counts[fault.Masked], counts[fault.Detected], counts[fault.Silent])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mimdsim:", err)
	os.Exit(1)
}
