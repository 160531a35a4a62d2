// Profile documents: the server-side half of the online miss-ratio-curve
// profiler (internal/mrc). A request submitted with "profile": true gets,
// in addition to its result tables, a memoized ProfileDoc — one curve set
// per machine its experiments built — filed in the same store the job
// results live in, under a key derived from the request id. GET
// /v1/profile/{id} serves the doc, and ?lines=N answers cache-size
// what-if queries from the memoized curve without touching the engine.

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/mrc"
	"repro/internal/sweep"
)

// profileSchema versions the stored profile document.
const profileSchema = "mimdserve-profile-v1"

// profileKey derives the store key a request's profile doc is filed
// under. The request id is already a content hash over the job keys (and
// the profile flag), so the doc inherits the same cache-safety
// properties as the results it annotates.
func profileKey(requestID string) string { return "profile-" + requestID }

// ProfileEntry is one job's curve set: every machine the job's
// experiment constructed through Params.Machine, profiled per PE and
// machine-wide. Experiments that build machines outside the chokepoint
// contribute no captures.
type ProfileEntry struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Scale      int    `json:"scale"`
	// Key is the job's result-store key, tying the curves to the exact
	// memoized artifact they were measured alongside.
	Key string `json:"key"`
	// Shape names the machine configuration within the experiment.
	Shape  string         `json:"shape"`
	Curves []mrc.CurveDoc `json:"curves"`
}

// ProfileDoc is the GET /v1/profile/{id} document.
type ProfileDoc struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	// Sizes is the cache-size grid (lines, powers of two) every curve is
	// evaluated on; curves are exact at these points.
	Sizes   []int          `json:"sizes"`
	Entries []ProfileEntry `json:"entries"`
}

// rawStore returns the store's raw-payload surface, which profile docs
// ride on; the guard passes it through to MemStore and DirStore.
func (s *Server) rawStore() (sweep.RawStore, bool) {
	rs, ok := s.opts.Store.(sweep.RawStore)
	return rs, ok
}

// storeHasProfile reports whether the request's profile doc is already
// memoized, making the full store fast path valid for a profile request.
func (s *Server) storeHasProfile(requestID string) bool {
	rs, ok := s.rawStore()
	if !ok {
		return false
	}
	_, ok, err := rs.GetRaw(profileKey(requestID))
	return err == nil && ok
}

// ensureProfile builds and memoizes the request's profile doc unless it
// is already in the store. Curves come from re-running each job's
// experiment with an mrc.Collector in Params.Profile: the collector
// attaches to every machine the experiment builds, and the Cm*
// experiments (table1-1, ablation-assoc), which build none, add the
// profilers their stream pass fed. The probe is proven non-perturbing,
// so the extra pass reproduces exactly the runs whose tables the engine
// just produced (or served from cache), and the doc is byte-deterministic
// for a given request.
func (s *Server) ensureProfile(req *request) error {
	rs, ok := s.rawStore()
	if !ok {
		return fmt.Errorf("store does not support profile documents")
	}
	pkey := profileKey(req.id)
	if _, ok, err := rs.GetRaw(pkey); err == nil && ok {
		return nil
	}
	sizes := mrc.DefaultSizes()
	doc := ProfileDoc{Schema: profileSchema, ID: req.id, Sizes: sizes}
	for _, job := range req.jobs {
		e, err := experiments.ByID(job.Spec.Experiment)
		if err != nil {
			return fmt.Errorf("profile pass: %w", err)
		}
		col := &mrc.Collector{}
		p := job.Spec.Params()
		p.Profile = col
		if _, err := e.Run(p); err != nil {
			return fmt.Errorf("profile pass for %s: %w", job.Spec.Experiment, err)
		}
		caps := col.Captures()
		if len(caps) == 0 {
			// The experiment builds machines outside Params.Machine:
			// record the job with no curves rather than inventing any.
			doc.Entries = append(doc.Entries, ProfileEntry{
				Experiment: job.Spec.Experiment, Seed: job.Spec.Seed,
				Scale: job.Spec.Scale, Key: job.Key,
			})
			continue
		}
		for _, c := range caps {
			doc.Entries = append(doc.Entries, ProfileEntry{
				Experiment: job.Spec.Experiment, Seed: job.Spec.Seed,
				Scale: job.Spec.Scale, Key: job.Key,
				Shape:  c.Shape,
				Curves: c.Set.Docs(sizes),
			})
		}
	}
	payload, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	if err := rs.PutRaw(pkey, payload); err != nil {
		return err
	}
	s.metrics.profilesBuilt.Inc()
	return nil
}

// WhatIfAnswer is one curve's answer to a cache-size what-if query: the
// exact point when lines is on the grid, or the bracketing grid points
// otherwise (the true miss ratio lies between upper's and lower's — the
// curve is monotone non-increasing in size).
type WhatIfAnswer struct {
	Experiment string          `json:"experiment"`
	Seed       uint64          `json:"seed"`
	Scale      int             `json:"scale"`
	Shape      string          `json:"shape"`
	Scope      string          `json:"scope"`
	Refs       uint64          `json:"refs"`
	Exact      bool            `json:"exact"`
	Lower      *mrc.CurvePoint `json:"lower,omitempty"`
	Upper      *mrc.CurvePoint `json:"upper,omitempty"`
}

// WhatIfDoc is the GET /v1/profile/{id}?lines=N document.
type WhatIfDoc struct {
	ID      string         `json:"id"`
	Lines   int            `json:"lines"`
	Answers []WhatIfAnswer `json:"answers"`
}

// bracket finds the grid points around lines in an ascending curve.
func bracket(points []mrc.CurvePoint, lines int) (lower, upper *mrc.CurvePoint, exact bool) {
	for i := range points {
		p := &points[i]
		if p.Lines <= lines {
			lower = p
		}
		if upper == nil && p.Lines >= lines {
			upper = p
		}
	}
	return lower, upper, lower != nil && upper != nil && lower.Lines == upper.Lines
}

// whatIf answers a cache-size query from a memoized doc.
func whatIf(doc *ProfileDoc, lines int) WhatIfDoc {
	out := WhatIfDoc{ID: doc.ID, Lines: lines}
	for _, e := range doc.Entries {
		for _, c := range e.Curves {
			lower, upper, exact := bracket(c.Points, lines)
			out.Answers = append(out.Answers, WhatIfAnswer{
				Experiment: e.Experiment, Seed: e.Seed, Scale: e.Scale,
				Shape: e.Shape, Scope: c.Scope, Refs: c.Refs,
				Exact: exact, Lower: lower, Upper: upper,
			})
		}
	}
	return out
}

// handleProfile serves GET /v1/profile/{id}: the stored doc verbatim,
// or, with ?lines=N, a what-if answer computed from it. Either way the
// answer comes from the store — no engine run, no admission slot.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rs, ok := s.rawStore()
	if !ok {
		s.writeError(w, http.StatusNotFound, "store does not support profile documents")
		return
	}
	raw, ok, err := rs.GetRaw(profileKey(id))
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound,
			"no profile for "+id+` (submit the spec with "profile": true first)`)
		return
	}
	if q := r.URL.Query().Get("lines"); q != "" {
		lines, err := strconv.Atoi(q)
		if err != nil || lines <= 0 {
			s.writeError(w, http.StatusBadRequest, "lines must be a positive integer")
			return
		}
		var doc ProfileDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			s.writeError(w, http.StatusInternalServerError, "corrupt profile doc: "+err.Error())
			return
		}
		s.metrics.profilesServed.Inc()
		s.writeJSON(w, http.StatusOK, whatIf(&doc, lines))
		return
	}
	// Serve the stored bytes verbatim: byte-identical from every worker
	// holding the doc, so a read is the same whichever worker answers.
	s.metrics.profilesServed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}
