package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/sweep"
)

// requestEpoch versions the request-id derivation. Request ids are pure
// content hashes — two clients posting the same normalized spec compute
// the same id, which is exactly what singleflight coalescing keys on.
const requestEpoch = "mimdserve-req-v2"

// Spec is the JSON request body every submission endpoint accepts.
//
//	{"kind":"experiment","experiment":"fig6-1","seeds":[1,2]}
//	{"kind":"sweep","experiments":["fig6-1","fig7-1"],"seeds":[1,2,3],"scale":1}
//	{"kind":"fault","fault":{"protocols":["rb","rwb"],"trials":2,"refs":200}}
//
// Every field is validated against the experiment registry (or, for
// fault campaigns, the coherence/fault-class registries) before the
// request is admitted.
type Spec struct {
	// Kind selects the workload: "experiment" (one registry entry),
	// "sweep" (several entries, or ["all"]), or "fault" (an S23
	// resilience campaign).
	Kind string `json:"kind"`
	// Experiment names the registry entry for kind "experiment".
	Experiment string `json:"experiment,omitempty"`
	// Experiments lists registry entries for kind "sweep"; the single
	// entry "all" expands to the whole registry.
	Experiments []string `json:"experiments,omitempty"`
	// Seeds are replica seeds (default {1}).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Scale is the workload multiplier (default 1).
	Scale int `json:"scale,omitempty"`
	// Format renders result tables: plain (default), markdown, or csv.
	Format string `json:"format,omitempty"`
	// JobTimeoutMS, when positive, lowers the server's per-job
	// wall-clock budget for this request; it can never raise it.
	JobTimeoutMS int `json:"job_timeout_ms,omitempty"`
	// Fault carries the campaign shape for kind "fault".
	Fault *fault.CampaignSpec `json:"fault,omitempty"`
	// Profile asks the server to also build online miss-ratio curves
	// (internal/mrc) for every machine the request's experiments
	// construct, memoize them next to the job results, and answer
	// GET /v1/profile/{id} what-if queries from them. Experiment and
	// sweep kinds only.
	Profile bool `json:"profile,omitempty"`
}

// request is a fully validated, normalized submission: the expanded job
// set, the runner that executes it, and the content-hash id everything
// keys on.
type request struct {
	spec    Spec
	id      string
	specs   []sweep.Spec
	jobs    []sweep.Job
	runner  sweep.Runner
	fault   *fault.CampaignConfig // non-nil iff kind == "fault"
	timeout time.Duration
}

// normalize validates the spec against the registries and expands it
// into the canonical job set. opts supplies the server's runner hooks
// and timeout cap.
func normalize(spec Spec, opts Options) (*request, error) {
	r := &request{spec: spec}
	if spec.Scale < 0 {
		return nil, fmt.Errorf("scale %d is negative", spec.Scale)
	}
	if spec.Scale == 0 {
		r.spec.Scale = 1
	}
	if len(spec.Seeds) == 0 {
		r.spec.Seeds = []uint64{1}
	}
	if spec.Format == "" {
		r.spec.Format = "plain"
	}
	if err := report.CheckFormat(r.spec.Format); err != nil {
		return nil, err
	}

	r.timeout = opts.JobTimeout
	if spec.JobTimeoutMS > 0 {
		reqTO := time.Duration(spec.JobTimeoutMS) * time.Millisecond
		if r.timeout <= 0 || reqTO < r.timeout {
			r.timeout = reqTO
		}
	}

	switch spec.Kind {
	case "experiment":
		if spec.Experiment == "" {
			return nil, fmt.Errorf(`kind "experiment" needs an "experiment" id`)
		}
		sp, err := sweep.SpecFor(spec.Experiment, r.spec.Seeds, r.spec.Scale)
		if err != nil {
			return nil, err
		}
		r.specs = []sweep.Spec{sp}
		r.runner = opts.runner()
	case "sweep":
		if len(spec.Experiments) == 0 {
			return nil, fmt.Errorf(`kind "sweep" needs a non-empty "experiments" list`)
		}
		if len(spec.Experiments) == 1 && spec.Experiments[0] == "all" {
			r.specs = sweep.AllSpecs(r.spec.Seeds, r.spec.Scale)
		} else {
			for _, id := range spec.Experiments {
				sp, err := sweep.SpecFor(id, r.spec.Seeds, r.spec.Scale)
				if err != nil {
					return nil, err
				}
				r.specs = append(r.specs, sp)
			}
		}
		r.runner = opts.runner()
	case "fault":
		if spec.Fault == nil {
			return nil, fmt.Errorf(`kind "fault" needs a "fault" campaign spec`)
		}
		if spec.Profile {
			return nil, fmt.Errorf(`"profile" is not available for fault campaigns`)
		}
		fs := *spec.Fault
		if len(fs.Seeds) == 0 {
			fs.Seeds = r.spec.Seeds
		}
		cfg, err := fs.Config()
		if err != nil {
			return nil, err
		}
		cfg = cfg.WithDefaults()
		r.fault = &cfg
		r.specs = cfg.Specs()
		r.runner = opts.faultRunner(cfg)
	case "":
		return nil, fmt.Errorf(`missing "kind" (want experiment, sweep, or fault)`)
	default:
		return nil, fmt.Errorf("unknown kind %q (want experiment, sweep, or fault)", spec.Kind)
	}

	r.jobs = sweep.Expand(r.specs)
	if len(r.jobs) == 0 {
		return nil, fmt.Errorf("spec expands to zero jobs")
	}
	if opts.MaxJobs > 0 && len(r.jobs) > opts.MaxJobs {
		return nil, fmt.Errorf("spec expands to %d jobs, over the server's %d-job limit", len(r.jobs), opts.MaxJobs)
	}
	r.id = requestID(r)
	return r, nil
}

// requestID derives the request's id from the version-salted content
// hashes its jobs already carry (the same keys the DirStore files them
// under), plus everything else that shapes the response. No wall clock,
// no randomness: identical submissions coalesce because they literally
// have the same id.
func requestID(r *request) string {
	h := sha256.New()
	io.WriteString(h, requestEpoch)
	io.WriteString(h, "|"+r.spec.Kind+"|"+r.spec.Format+"|")
	fmt.Fprintf(h, "timeout=%d|profile=%t|", r.timeout, r.spec.Profile)
	for _, j := range r.jobs {
		io.WriteString(h, j.Key+"|")
	}
	sum := h.Sum(nil)
	return "req-" + hex.EncodeToString(sum[:12])
}

// ComputeRequestID derives the content-hash request id a server built
// with opts would assign the given raw spec body — the router's routing
// key. Because the id is a pure content hash, the router and every
// worker agree on it without coordination; opts must carry the same
// JobTimeout the workers run with (the timeout is part of the hash).
func ComputeRequestID(body []byte, opts Options) (string, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return "", fmt.Errorf("bad spec: %w", err)
	}
	req, err := normalize(spec, opts)
	if err != nil {
		return "", fmt.Errorf("invalid spec: %w", err)
	}
	return req.id, nil
}

// ExperimentInfo is one row of the /v1/experiments listing.
type ExperimentInfo struct {
	ID      string `json:"id"`
	Title   string `json:"title"`
	Version int    `json:"version"`
	Seed    bool   `json:"seed_axis"`
	Scale   bool   `json:"scale_axis"`
}

// listExperiments renders the registry for discovery.
func listExperiments() []ExperimentInfo {
	all := experiments.All()
	out := make([]ExperimentInfo, 0, len(all))
	for _, e := range all {
		out = append(out, ExperimentInfo{
			ID: e.ID, Title: e.Title, Version: e.Version,
			Seed: e.Axes.Seed, Scale: e.Axes.Scale,
		})
	}
	return out
}
