package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/report"
	"repro/internal/sweep"
)

// The wrappers below are installed in the traced run only. Each records
// a span around a call into a layer and otherwise passes the call
// through, so the path measured stays the program's own.

// causeOf finds the span that caused work correlated by key: the span
// registered under the key itself, else whichever request or pass is
// open.
func (t *tracer) causeOf(key string) int {
	if id := t.parentOf(key); id != 0 {
		return id
	}
	return t.parentOf(anyKey)
}

// tracedStore decorates a DirStore with a span per call. It implements
// sweep.RawStore too, which profile documents and replica fills need.
type tracedStore struct {
	inner      *sweep.DirStore
	tr         *tracer
	puts, gets atomic.Int64
}

func (s *tracedStore) Get(key string) (*sweep.Result, bool, error) {
	s.gets.Add(1)
	id := s.tr.begin("store.get", key, s.tr.causeOf(key))
	defer s.tr.end(id)
	return s.inner.Get(key)
}

func (s *tracedStore) Put(res *sweep.Result) error {
	s.puts.Add(1)
	id := s.tr.begin("store.put", res.Key, s.tr.causeOf(res.Key))
	defer s.tr.end(id)
	return s.inner.Put(res)
}

func (s *tracedStore) JournalKeys() (map[string]bool, error) {
	id := s.tr.begin("store.journal_keys", "", s.tr.causeOf(anyKey))
	defer s.tr.end(id)
	return s.inner.JournalKeys()
}

func (s *tracedStore) AppendJournal(line sweep.JournalLine) error {
	id := s.tr.begin("store.journal_append", line.Key, s.tr.causeOf(line.Key))
	defer s.tr.end(id)
	return s.inner.AppendJournal(line)
}

func (s *tracedStore) GetRaw(key string) ([]byte, bool, error) {
	id := s.tr.begin("store.get_raw", key, s.tr.causeOf(key))
	defer s.tr.end(id)
	return s.inner.GetRaw(key)
}

func (s *tracedStore) PutRaw(key string, payload []byte) error {
	id := s.tr.begin("store.put_raw", key, s.tr.causeOf(key))
	defer s.tr.end(id)
	return s.inner.PutRaw(key, payload)
}

// tracedRunners decorates the experiment runners with a span per job and
// remembers the batch arenas it was handed, whose reuse counts it sums.
type tracedRunners struct {
	tr     *tracer
	mu     sync.Mutex
	arenas map[*batch.Arena]bool
}

func newTracedRunners(tr *tracer) *tracedRunners {
	return &tracedRunners{tr: tr, arenas: map[*batch.Arena]bool{}}
}

func (r *tracedRunners) run(spec sweep.JobSpec) (*report.Table, error) {
	key := spec.Key()
	id := r.tr.begin("experiments.run", key, r.tr.causeOf(key))
	defer r.tr.end(id)
	return sweep.ExperimentRunner(spec)
}

func (r *tracedRunners) runBatch(spec sweep.JobSpec, arena *batch.Arena) (*report.Table, error) {
	r.mu.Lock()
	r.arenas[arena] = true
	r.mu.Unlock()
	key := spec.Key()
	id := r.tr.begin("experiments.run", key, r.tr.causeOf(key))
	defer r.tr.end(id)
	return sweep.ExperimentBatchRunner(spec, arena)
}

// reuseShare is machines recycled over trials run, across every arena
// seen.
func (r *tracedRunners) reuseShare() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	reuses, trials := 0, 0
	for a := range r.arenas {
		reuses += a.Reuses()
		trials += a.Trials()
	}
	return ratio(float64(reuses), float64(trials))
}
