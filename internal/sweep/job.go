// Package sweep is the experiment-orchestration engine (DESIGN.md S21).
// It expands (experiment × seed replica) specifications into a
// deterministic job set, runs the jobs on a bounded worker pool, memoizes
// results in a content-addressed, versioned artifact store that is also
// the checkpoint (a resumed or incremental re-run executes only the jobs
// it lacks), and merges the outputs in canonical job order — so a parallel sweep is byte-identical
// to a serial one, and a warm re-run executes zero simulation jobs.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/experiments"
)

// keyEpoch versions the cache-key derivation itself. Bumping it orphans
// every previously memoized object (they simply stop being referenced).
const keyEpoch = "sweep-job-v2"

// JobSpec is the full configuration of one job: the experiment (which
// encapsulates protocol, machine configuration and workload) plus the
// point on its declared parameter axes. Its content hash is the cache
// key.
type JobSpec struct {
	Experiment string `json:"experiment"`
	// Version is the experiment's cache epoch (experiments.Experiment.Version).
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	Scale   int    `json:"scale"`
	// Salt carries the experiment's content salt (experiments.Experiment.Salt):
	// for trace-driven experiments, the hash of the registered trace bytes.
	// It folds runtime-registered content into the cache key so a memoized
	// artifact can never be served for a same-named experiment with
	// different trace data.
	Salt string `json:"salt,omitempty"`
}

// Key returns the job's content-hash cache key: a truncated SHA-256 over
// the canonical rendering of the configuration.
func (s JobSpec) Key() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%d|%s",
		keyEpoch, s.Experiment, s.Version, s.Seed, s.Scale, s.Salt)))
	return hex.EncodeToString(h[:16])
}

// Params converts the spec to experiment parameters.
func (s JobSpec) Params() experiments.Params {
	return experiments.Params{Seed: s.Seed, Scale: s.Scale}
}

// Spec selects one experiment and its replication: every seed becomes one
// job (a replica), later aggregated into a single mean±stddev table.
type Spec struct {
	Experiment string
	// Version and Axes mirror the experiment's declaration; SpecFor
	// fills them from the registry.
	Version int
	Axes    experiments.Axes
	// Seeds are the replica seeds, in run order; empty means {1}.
	Seeds []uint64
	// Scale is the workload multiplier; 0 means 1.
	Scale int
	// Salt mirrors the experiment's content salt; SpecFor fills it.
	Salt string
}

// Job is one schedulable unit: a JobSpec plus its canonical position.
type Job struct {
	// Index is the job's position in canonical (merge) order.
	Index int
	// SpecIndex says which input Spec produced the job, so replicas can
	// be regrouped for aggregation.
	SpecIndex int
	Spec      JobSpec
	Key       string
}

// Expand flattens specs into the canonical job set: spec order × seed
// order, with undeclared axes normalized (a seed-insensitive experiment
// yields one job regardless of how many seeds were requested) and
// duplicate seeds dropped.
func Expand(specs []Spec) []Job {
	var jobs []Job
	for si, sp := range specs {
		seeds := sp.Seeds
		if len(seeds) == 0 {
			seeds = []uint64{1}
		}
		scale := sp.Scale
		if scale == 0 {
			scale = 1
		}
		if !sp.Axes.Scale {
			scale = 1
		}
		if !sp.Axes.Seed {
			seeds = seeds[:1]
		}
		seen := make(map[uint64]bool, len(seeds))
		for _, seed := range seeds {
			if seed == 0 || !sp.Axes.Seed {
				seed = 1 // Params runs seed 0 as 1: one replica, not two
			}
			if seen[seed] {
				continue
			}
			seen[seed] = true
			js := JobSpec{Experiment: sp.Experiment, Version: sp.Version, Seed: seed, Scale: scale, Salt: sp.Salt}
			jobs = append(jobs, Job{
				Index:     len(jobs),
				SpecIndex: si,
				Spec:      js,
				Key:       js.Key(),
			})
		}
	}
	return jobs
}

// SpecFor builds the Spec for a registered experiment, pulling its
// declared axes and version from the registry.
func SpecFor(id string, seeds []uint64, scale int) (Spec, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Experiment: e.ID,
		Version:    e.Version,
		Axes:       e.Axes,
		Seeds:      seeds,
		Scale:      scale,
		Salt:       e.Salt,
	}, nil
}

// AllSpecs builds one Spec per registered experiment, in registration
// (paper) order — the cmd/paperrepro "regenerate everything" job set.
func AllSpecs(seeds []uint64, scale int) []Spec {
	all := experiments.All()
	specs := make([]Spec, 0, len(all))
	for _, e := range all {
		specs = append(specs, Spec{
			Experiment: e.ID,
			Version:    e.Version,
			Axes:       e.Axes,
			Seeds:      seeds,
			Scale:      scale,
			Salt:       e.Salt,
		})
	}
	return specs
}
