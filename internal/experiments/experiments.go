// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment is a
// named constructor returning a report.Table whose rows mirror the paper's
// artifact; cmd/paperrepro prints them all, the claim rows of
// claims_test.go check the paper's claims against the rendered tables
// (and EXPERIMENTS.md prints both), and BENCHMARK.json's sweep-paper
// workload runs every one through the sweep engine.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/mrc"
	"repro/internal/workload"
)

// Params tunes an experiment run.
type Params struct {
	// Seed drives every deterministic generator (default 1).
	Seed uint64
	// Scale multiplies workload sizes; 1 is the quick configuration used
	// by the tests, 10 the publication-quality one used by cmd/paperrepro
	// -full.
	Scale int
	// Profile, when non-nil, collects online miss-ratio curves: every
	// machine Params.Machine constructs gets a fresh mrc profiler set
	// attached (per PE plus machine-wide) under its shape name, and the
	// Cm* experiments, which run no machine, feed one from their stream
	// pass (cmStarPass). It is instrumentation, not an axis, and never
	// participates in cache keys — the tables an experiment returns are
	// identical with and without it.
	Profile *mrc.Collector
}

// Machine builds the machine for one trial. shape must uniquely name the
// configuration within the experiment — protocol, PE count, cache
// geometry, anything that changes cfg or the agents beyond the seed:
// Params.Profile keys its captures by it.
func (p Params) Machine(shape string, cfg machine.Config, agents []workload.Agent) (*machine.Machine, error) {
	m, err := machine.New(cfg, agents)
	if err == nil && p.Profile != nil {
		p.Profile.Attach(shape, p.Seed, m)
	}
	return m, err
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Scale == 0 {
		p.Scale = 1
	}
	return p
}

// Axes declares which Params fields an experiment's output actually
// depends on. The sweep engine (internal/sweep) normalizes undeclared
// axes out of the cache key and collapses replicas along them, so a
// parameter-free artifact (a transition table, a scripted Figure 6
// walkthrough) is simulated once no matter how many seeds a sweep asks
// for.
type Axes struct {
	// Seed: the output depends on Params.Seed.
	Seed bool
	// Scale: the output depends on Params.Scale.
	Scale bool
}

// ChartSpec describes how cmd/paperrepro renders an experiment's table as
// an ASCII bar chart: which columns label each bar and which column holds
// the plotted value.
type ChartSpec struct {
	Labels []int
	Value  int
}

// Experiment is one reproducible artifact.
type Experiment struct {
	// ID matches the DESIGN.md experiment index ("table1-1", "fig6-2",
	// "ablation-arrayinit", ...). It must be stable kebab-case
	// ([a-z0-9] segments joined by "-"): it keys the sweep cache.
	ID string
	// Title is the human caption.
	Title string
	// Axes declares the parameter/seed axes the output depends on.
	Axes Axes
	// Version is the experiment's cache epoch: bump it whenever the
	// implementation changes results, so memoized sweep artifacts are
	// invalidated instead of silently served stale.
	Version int
	// Salt distinguishes same-ID experiments whose results depend on
	// content registered at runtime rather than on code — a trace-driven
	// experiment salts with the content hash of its trace bytes, so two
	// deployments registering different traces under the same name can
	// never alias in the sweep/serve cache. Empty for code-defined
	// experiments.
	Salt string
	// Chart, when non-nil, selects the columns worth bar-charting.
	Chart *ChartSpec
	// Run executes the experiment.
	Run func(Params) (*Table, error)
}

// Table re-exports report.Table so experiment callers need one import.
type Table = tableAlias

// registry is populated by the per-experiment files' init functions in
// declaration order.
var registry []Experiment

func register(e Experiment) {
	if !validID(e.ID) {
		panic(fmt.Sprintf("experiments: id %q is not stable kebab-case", e.ID))
	}
	if e.Version < 1 {
		panic(fmt.Sprintf("experiments: %s must declare Version >= 1 (the sweep cache epoch)", e.ID))
	}
	if e.Run == nil {
		panic(fmt.Sprintf("experiments: %s has no Run", e.ID))
	}
	for _, existing := range registry {
		if existing.ID == e.ID {
			panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
		}
	}
	registry = append(registry, e)
}

// validID enforces the kebab-case contract: lowercase [a-z0-9] segments
// joined by single dashes, e.g. "table1-1" or "ablation-arrayinit".
func validID(id string) bool {
	if id == "" || id[0] == '-' || id[len(id)-1] == '-' {
		return false
	}
	prevDash := false
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			prevDash = false
		case c == '-':
			if prevDash {
				return false
			}
			prevDash = true
		default:
			return false
		}
	}
	return true
}

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// ByID resolves one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, IDs())
}
