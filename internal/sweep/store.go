package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/report"
)

// storeVersion is written to the store's VERSION file. A directory whose
// version does not match is cleared: its objects were produced by an
// incompatible layout and must not be served. v2 wraps every object in a
// SHA-256-checksummed envelope.
const storeVersion = "sweep-store-v2"

// Result is one memoized job output.
type Result struct {
	Key   string        `json:"key"`
	Spec  JobSpec       `json:"spec"`
	Table *report.Table `json:"table"`
}

// JournalLine records one completed job. The engine appends lines in
// canonical job order (a frontier), so for a given store state the
// journal bytes are identical whatever the worker count, and a truncated
// journal marks exactly a prefix of the sweep as done.
type JournalLine struct {
	Key        string `json:"key"`
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Scale      int    `json:"scale"`
	Cached     bool   `json:"cached"`
}

// Store memoizes job results and keeps the completion journal. Get and
// Put may be called concurrently from workers; the engine serializes
// AppendJournal calls itself (they must land in canonical order).
type Store interface {
	// Get returns the memoized result for key, if present.
	Get(key string) (*Result, bool, error)
	// Put memoizes a result under res.Key.
	Put(res *Result) error
	// JournalKeys returns the keys recorded as done by earlier runs.
	JournalKeys() (map[string]bool, error)
	// AppendJournal appends one completion record.
	AppendJournal(line JournalLine) error
}

// RawStore is the optional replication surface of a Store: access to a
// result's exact payload bytes. Replica fills copy payloads verbatim so
// a replica's envelopes are byte-identical to the owner's — re-encoding
// a decoded Result could never guarantee that. Both MemStore and
// DirStore implement it.
type RawStore interface {
	// GetRaw returns the verified payload bytes for key, if present.
	GetRaw(key string) ([]byte, bool, error)
	// PutRaw stores payload under key exactly as given (the DirStore
	// wraps it in a fresh checksummed envelope).
	PutRaw(key string, payload []byte) error
}

// MemStore is an in-memory Store: the default when no cache directory is
// configured, and the store the benchmarks use so every iteration is
// cold.
type MemStore struct {
	mu      sync.Mutex
	objects map[string][]byte
	journal [][]byte
	done    map[string]bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: map[string][]byte{}, done: map[string]bool{}}
}

// Get implements Store.
func (m *MemStore) Get(key string) (*Result, bool, error) {
	m.mu.Lock()
	data, ok := m.objects[key]
	m.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false, fmt.Errorf("memstore: corrupt object %s: %w", key, err)
	}
	return &res, true, nil
}

// Put implements Store.
func (m *MemStore) Put(res *Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.objects[res.Key] = data
	m.mu.Unlock()
	return nil
}

// GetRaw implements RawStore.
func (m *MemStore) GetRaw(key string) ([]byte, bool, error) {
	m.mu.Lock()
	data, ok := m.objects[key]
	m.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, true, nil
}

// PutRaw implements RawStore.
func (m *MemStore) PutRaw(key string, payload []byte) error {
	data := make([]byte, len(payload))
	copy(data, payload)
	m.mu.Lock()
	m.objects[key] = data
	m.mu.Unlock()
	return nil
}

// JournalKeys implements Store.
func (m *MemStore) JournalKeys() (map[string]bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.done), nil
}

// AppendJournal implements Store.
func (m *MemStore) AppendJournal(line JournalLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.journal = append(m.journal, data)
	m.done[line.Key] = true
	m.mu.Unlock()
	return nil
}

// JournalBytes renders the journal as it would appear on disk — the
// determinism tests compare these across worker counts.
func (m *MemStore) JournalBytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for _, line := range m.journal {
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// DirStore is the on-disk Store:
//
//	<dir>/VERSION          store-layout version stamp
//	<dir>/objects/<key>.json   one checksummed Result envelope per job key
//	<dir>/quarantine/      corrupt objects moved aside for post-mortem
//	<dir>/journal.jsonl    completion journal, canonical order
//
// Objects are written atomically (temp file + rename), so an interrupted
// sweep leaves only whole objects; the journal is append-only and a torn
// final line is ignored on load.
//
// Every object is an envelope {sha256, result}: Get recomputes the
// payload hash and refuses to serve an entry whose bytes don't verify —
// truncation, a flipped bit, or a hand-edited file all classify as
// corruption. Corrupt entries are moved to quarantine/ (never deleted,
// never served) and the job transparently re-runs.
//
// One process owns a store directory: the journal is parsed once, by
// OpenDirStore, and JournalKeys answers from memory from then on, so
// lines another process (or another DirStore on the same directory)
// appends are not seen until the next open.
type DirStore struct {
	dir string

	mu sync.Mutex
	// quarantined counts objects moved aside by this process.
	quarantined int
	// journaled holds the keys of journal.jsonl's whole lines: those
	// found at open plus every AppendJournal since.
	journaled map[string]bool
	// tornTail: the journal ended mid-line at open and no append since
	// has terminated the fragment.
	tornTail bool
}

// envelope is the on-disk object framing: the Result payload plus the
// hex SHA-256 of its exact bytes.
type envelope struct {
	SHA256 string          `json:"sha256"`
	Result json.RawMessage `json:"result"`
}

// OpenDirStore opens (or initializes) the store rooted at dir. A store
// written by an incompatible layout version is cleared.
func OpenDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, err
	}
	vfile := filepath.Join(dir, "VERSION")
	data, err := os.ReadFile(vfile)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh store.
	case err != nil:
		return nil, err
	case strings.TrimSpace(string(data)) != storeVersion:
		// Incompatible layout: drop the stale artifacts.
		if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(filepath.Join(dir, "quarantine")); err != nil {
			return nil, err
		}
		if err := os.Remove(filepath.Join(dir, "journal.jsonl")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
			return nil, err
		}
	default:
		return loadJournal(&DirStore{dir: dir})
	}
	if err := os.WriteFile(vfile, []byte(storeVersion+"\n"), 0o644); err != nil {
		return nil, err
	}
	return loadJournal(&DirStore{dir: dir})
}

// loadJournal reads the journal, if there is one, into d. Unparsable
// lines (a torn append from an interrupted run; the empty tail) are
// skipped, which is exactly the resume semantics: the job re-runs.
func loadJournal(d *DirStore) (*DirStore, error) {
	d.journaled = map[string]bool{}
	data, err := os.ReadFile(d.JournalPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	for _, raw := range strings.Split(string(data), "\n") {
		var line JournalLine
		if json.Unmarshal([]byte(raw), &line) == nil {
			d.journaled[line.Key] = true
		}
	}
	d.tornTail = len(data) > 0 && data[len(data)-1] != '\n'
	return d, nil
}

// Dir returns the store's root directory.
func (d *DirStore) Dir() string { return d.dir }

func (d *DirStore) objectPath(key string) string {
	return filepath.Join(d.dir, "objects", key+".json")
}

// JournalPath returns the journal file location (the resume tests
// truncate it to simulate an interruption).
func (d *DirStore) JournalPath() string {
	return filepath.Join(d.dir, "journal.jsonl")
}

// readVerified returns key's payload bytes once they match the
// envelope's SHA-256. An entry that fails either check is quarantined and
// reported as a miss — a corrupt cache entry is never silently loaded.
func (d *DirStore) readVerified(key string) ([]byte, bool, error) {
	data, err := os.ReadFile(d.objectPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		// Truncated or torn object (hard kill mid-write, disk damage).
		return nil, false, d.quarantine(key)
	}
	sum := sha256.Sum256(env.Result)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		// Bit rot or tampering: the payload no longer matches its hash.
		return nil, false, d.quarantine(key)
	}
	return env.Result, true, nil
}

// Get implements Store, with readVerified's quarantine-on-corruption
// semantics; a verified payload that is not a Result is quarantined too.
func (d *DirStore) Get(key string) (*Result, bool, error) {
	payload, ok, err := d.readVerified(key)
	if !ok || err != nil {
		return nil, false, err
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil, false, d.quarantine(key)
	}
	return &res, true, nil
}

// quarantine moves a corrupt object out of objects/ so it can never be
// served again but stays on disk for inspection; the caller's job
// recomputes and re-Puts a fresh entry.
func (d *DirStore) quarantine(key string) error {
	qdir := filepath.Join(d.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	if err := os.Rename(d.objectPath(key), filepath.Join(qdir, key+".json")); err != nil {
		return err
	}
	d.mu.Lock()
	d.quarantined++
	d.mu.Unlock()
	return nil
}

// Quarantined returns how many corrupt objects this process has moved to
// quarantine/.
func (d *DirStore) Quarantined() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined
}

// Put implements Store.
func (d *DirStore) Put(res *Result) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return d.PutRaw(res.Key, payload)
}

// GetRaw implements RawStore: the checksum-verified payload bytes, with
// the same quarantine-on-corruption semantics as Get.
func (d *DirStore) GetRaw(key string) ([]byte, bool, error) {
	return d.readVerified(key)
}

// PutRaw implements RawStore. The temp file gets a unique name
// (os.CreateTemp), so two concurrent writers of the same key can never
// interleave into one torn temp file; the final rename is atomic and
// last-writer-wins with byte-identical content for content-addressed
// keys.
func (d *DirStore) PutRaw(key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(envelope{
		SHA256: hex.EncodeToString(sum[:]),
		Result: payload,
	})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Join(d.dir, "objects"), key+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, d.objectPath(key))
}

// JournalKeys implements Store: a copy, the caller's to keep, of the
// keys the journal held at open and has gained since.
func (d *DirStore) JournalKeys() (map[string]bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.journaled), nil
}

// AppendJournal implements Store. The key counts as journaled only once
// its line is synced. The first append after an open that found a torn
// tail ends the fragment first, so the new line is not glued onto it.
func (d *DirStore) AppendJournal(line JournalLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if d.tornTail {
		data = append([]byte{'\n'}, data...)
	}
	d.mu.Unlock()
	f, err := os.OpenFile(d.JournalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	d.mu.Lock()
	d.journaled[line.Key] = true
	d.tornTail = false
	d.mu.Unlock()
	return nil
}
