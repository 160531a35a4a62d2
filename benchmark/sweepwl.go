package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/sweep"
)

const (
	sweepSeeds      = 4   // replica seeds per experiment
	sweepMinCold    = 3   // cold passes, at least
	sweepWarmPasses = 200 // warm passes over the last cold pass's store
	sweepColdShare  = 0.8 // of the run's seconds; the rest is for the warm passes
)

// paperTable11 is the paper's Table 1-1 read-miss % by cache size and
// application. The 28.8 at 512/qsort is left out: it breaks the table's
// own monotone fall and EXPERIMENTS.md does not model it.
var paperTable11 = map[string]float64{
	"256/pde": 26.1, "512/pde": 21.7, "1024/pde": 11.3, "2048/pde": 6.1,
	"256/qsort": 25.0, "1024/qsort": 10.8, "2048/qsort": 5.8,
}

// paperErrPP is the mean absolute error, in percentage points, of a
// table1-1 run against the paper's cells.
func paperErrPP(t *report.Table) (float64, error) {
	total, cells := 0.0, 0
	for _, row := range t.Rows {
		if len(row) < 3 {
			continue
		}
		want, ok := paperTable11[row[0]+"/"+row[1]]
		if !ok {
			continue
		}
		got, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return 0, fmt.Errorf("table1-1 cell %q: %w", row[2], err)
		}
		total += math.Abs(got - want)
		cells++
	}
	if cells != len(paperTable11) {
		return 0, fmt.Errorf("table1-1 has %d of the paper's %d cells", cells, len(paperTable11))
	}
	return total / float64(cells), nil
}

// sweepPass is one Engine.Run over specs.
type sweepPass struct {
	wallS  float64
	out    *sweep.Outcome
	report string // merged tables, rendered: must not vary between passes
}

func runPass(opts sweep.Options, specs []sweep.Spec) (sweepPass, error) {
	eng := sweep.New(opts)
	start := now()
	out, err := eng.Run(context.Background(), specs)
	wall := since(start).Seconds()
	if err != nil {
		return sweepPass{}, err
	}
	var b strings.Builder
	for _, t := range out.Tables {
		b.WriteString(t.Render("plain"))
	}
	return sweepPass{wallS: wall, out: out, report: b.String()}, nil
}

func runSweepPaper(rc *runCtx) error {
	nSeeds := rc.n(sweepSeeds, 1)
	seeds := make([]uint64, nSeeds)
	for i := range seeds {
		seeds[i] = (rc.seed-1)*uint64(nSeeds) + uint64(i) + 1
	}

	var (
		specs    []sweep.Spec
		paperErr float64
	)
	err := rc.setup(func() error {
		specs = sweep.AllSpecs(seeds, 1)
		// Accuracy against the paper is part of set-up: one table1-1 run
		// at the first replica seed.
		spec, err := sweep.SpecFor("table1-1", seeds[:1], 1)
		if err != nil {
			return err
		}
		table, err := sweep.ExperimentRunner(sweep.Expand([]sweep.Spec{spec})[0].Spec)
		if err != nil {
			return err
		}
		paperErr, err = paperErrPP(table)
		return err
	})
	if err != nil {
		return err
	}
	jobs := len(sweep.Expand(specs))

	// In the traced run both runners are decorated: setting Runner alone
	// would silently turn job fusion off.
	var runners *tracedRunners
	newStore := func(prefix string) (sweep.Store, *tracedStore, error) {
		dir, err := rc.tempDir(prefix)
		if err != nil {
			return nil, nil, err
		}
		ds, err := sweep.OpenDirStore(dir)
		if err != nil || !rc.traced() {
			return ds, nil, err
		}
		ts := &tracedStore{inner: ds, tr: rc.tr}
		return ts, ts, nil
	}
	options := func(store sweep.Store) sweep.Options {
		opts := sweep.Options{Store: store}
		if rc.traced() {
			opts.Runner, opts.BatchRunner = runners.run, runners.runBatch
		}
		return opts
	}
	if rc.traced() {
		runners = newTracedRunners(rc.tr)
	}

	// Cold passes, each on a fresh store.
	var (
		passes    []sweepPass
		jobMS     []float64
		rates     [2][]float64 // jobs/s of [0] unrecorded and [1] recorded passes
		lastStore sweep.Store
		stores    []*tracedStore
		selfMS    []float64
	)
	start := now()
	coldUntil := start.Add(time.Duration(sweepColdShare * rc.seconds * float64(time.Second)))
	minCold := rc.n(sweepMinCold, 2)
	for i := 0; i < minCold || now().Before(coldUntil); i++ {
		store, ts, err := newStore("cold")
		if err != nil {
			return err
		}
		recorded := rc.traced() && i%2 == 0
		rc.tr.pause(!recorded)
		id := rc.tr.begin("sweep.Engine.Run", fmt.Sprintf("cold-%d", i), 0, anyKey)
		pass, err := runPass(options(store), specs)
		rc.tr.end(id, anyKey)
		rc.tr.pause(false)
		if err != nil {
			return fmt.Errorf("cold pass %d: %w", i, err)
		}
		rc.attempt(jobs)
		if pass.out.Executed != jobs {
			rc.fail("cold pass %d executed %d of %d jobs", i, pass.out.Executed, jobs)
		}
		rc.check("cold passes render the same report", sameReport(passes, pass))
		runnerMS := 0.0
		for _, j := range pass.out.Jobs {
			jobMS = append(jobMS, ms(j.Wall))
			runnerMS += ms(j.Wall)
		}
		selfMS = append(selfMS, pass.wallS*1000-runnerMS/float64(runtime.GOMAXPROCS(0)))
		group := 0
		if recorded {
			group = 1
		}
		rates[group] = append(rates[group], float64(pass.out.Executed)/pass.wallS)
		passes = append(passes, pass)
		lastStore = store
		if ts != nil {
			stores = append(stores, ts)
		}
	}

	// Warm passes over the last store: every job must come from it.
	warmPasses := rc.n(sweepWarmPasses, 3)
	warmStart := now()
	for i := 0; i < warmPasses; i++ {
		id := rc.tr.begin("sweep.Engine.Run", fmt.Sprintf("warm-%d", i), 0, anyKey)
		pass, err := runPass(options(lastStore), specs)
		rc.tr.end(id, anyKey)
		if err != nil {
			return fmt.Errorf("warm pass %d: %w", i, err)
		}
		rc.attempt(1)
		if pass.out.Executed != 0 || pass.out.CacheHits != jobs {
			rc.fail("warm pass %d executed %d jobs, %d from the store", i, pass.out.Executed, pass.out.CacheHits)
		}
	}
	warmS := since(warmStart).Seconds()
	rc.samples("cold_passes", len(passes))
	rc.samples("warm_passes", warmPasses)
	rc.samples("jobs_per_pass", jobs)
	rc.samples("executed_jobs", len(jobMS))

	if !rc.traced() {
		rc.set("ops_per_s", median(append(rates[0], rates[1]...)))
		rc.setUnitTimes(jobMS)
		return nil
	}

	rc.set("harness.trace_overhead_pct", 100*ratio(median(rates[0])-median(rates[1]), median(rates[0])))
	rc.set("experiments.paper_err_pp", paperErr)
	rc.set("sweep.warm_jobs_per_s", float64(jobs*warmPasses)/warmS)
	rc.set("sweep.engine_self_ms", median(selfMS))
	rc.set("sweep.executed", float64(len(jobMS)))
	rc.set("sweep.cache_hits", float64(jobs*warmPasses))
	rc.set("batch.reuse_share", runners.reuseShare())
	puts, gets := int64(0), int64(0)
	for _, ts := range stores {
		puts += ts.puts.Load()
		gets += ts.gets.Load()
	}
	rc.set("sweep.store_puts", float64(puts))
	rc.set("sweep.store_gets", float64(gets))
	setSpanMetrics(rc, rc.tr.snapshot())

	// Two more cold passes, traced run only: the same jobs through Runner
	// alone (no fusion) and through one worker.
	batched := median(passWalls(passes))
	for _, extra := range []struct {
		metric string
		opts   func(sweep.Store) sweep.Options
	}{
		{"batch.speedup", func(s sweep.Store) sweep.Options { return sweep.Options{Store: s, Runner: sweep.ExperimentRunner} }},
		{"sweep.parallel_speedup", func(s sweep.Store) sweep.Options { return sweep.Options{Store: s, Workers: 1} }},
	} {
		store, _, err := newStore("extra")
		if err != nil {
			return err
		}
		rc.tr.pause(true)
		pass, err := runPass(extra.opts(store), specs)
		rc.tr.pause(false)
		if err != nil {
			return fmt.Errorf("%s pass: %w", extra.metric, err)
		}
		rc.check(extra.metric+" pass renders the same report", sameReport(passes, pass))
		rc.set(extra.metric, ratio(pass.wallS, batched))
	}

	// report and aggregation, each alone over the last pass's tables.
	last := passes[len(passes)-1].out
	var renderUS, aggregateUS []float64
	bySpec := map[int][]*report.Table{}
	for _, j := range last.Jobs {
		bySpec[j.Job.SpecIndex] = append(bySpec[j.Job.SpecIndex], j.Table)
	}
	for i, t := range last.Tables {
		start := now()
		t.Render("plain")
		renderUS = append(renderUS, us(since(start)))
		start = now()
		if _, err := sweep.Aggregate(bySpec[i]); err != nil {
			return err
		}
		aggregateUS = append(aggregateUS, us(since(start)))
	}
	rc.set("report.render_us_p50", median(renderUS))
	rc.set("sweep.aggregate_us_p50", median(aggregateUS))
	return nil
}

func passWalls(passes []sweepPass) []float64 {
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wallS
	}
	return walls
}

// sameReport checks a pass's rendered report against the first pass's.
func sameReport(passes []sweepPass, p sweepPass) error {
	if len(passes) > 0 && passes[0].report != p.report {
		return fmt.Errorf("report differs from the first cold pass's (%d vs %d bytes)", len(p.report), len(passes[0].report))
	}
	return nil
}

// setSpanMetrics fills the metrics that are medians over spans recorded
// by the store and runner decorators.
func setSpanMetrics(rc *runCtx, spans []span) {
	dur, _ := byName(spans)
	scale := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * by
		}
		return out
	}
	rc.set("sweep.store_put_us_p50", median(scale(dur["store.put"], 1000)))
	rc.set("sweep.store_get_us_p50", median(scale(dur["store.get"], 1000)))
	rc.set("sweep.journal_append_us_p50", median(scale(dur["store.journal_append"], 1000)))
	rc.set("sweep.journal_keys_ms_p50", median(dur["store.journal_keys"]))
	runs := dur["experiments.run"]
	rc.set("experiments.run_ms_p50", median(runs))
	rc.set("experiments.run_ms_max", percentile(sortedCopy(runs), 100))
	rc.set("experiments.jobs", float64(len(runs)))
}
