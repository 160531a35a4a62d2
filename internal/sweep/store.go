package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
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

// Store memoizes job results. It is the only completion record: a job
// whose object is present and verifies is done, and a resumed sweep
// re-runs exactly the jobs whose objects are missing or corrupt. Every
// method may be called concurrently.
type Store interface {
	// Get returns the memoized result for key, if present.
	Get(key string) (*Result, bool, error)
	// Put memoizes a result under res.Key.
	Put(res *Result) error
	// GetRaw returns the verified payload bytes for key, if present.
	GetRaw(key string) ([]byte, bool, error)
	// PutRaw stores payload under key exactly as given (the DirStore
	// wraps it in a fresh checksummed envelope). Its user is the serving
	// layer's profile documents, which are not Results: they are served
	// verbatim, so every read returns the bytes that were built.
	PutRaw(key string, payload []byte) error
}

// MemStore is an in-memory Store: the default when no cache directory is
// configured, so nothing outlives the process.
type MemStore struct {
	mu      sync.Mutex
	objects map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: map[string][]byte{}}
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

// GetRaw implements Store.
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

// PutRaw implements Store.
func (m *MemStore) PutRaw(key string, payload []byte) error {
	data := make([]byte, len(payload))
	copy(data, payload)
	m.mu.Lock()
	m.objects[key] = data
	m.mu.Unlock()
	return nil
}

// DirStore is the on-disk Store:
//
//	<dir>/VERSION          store-layout version stamp
//	<dir>/objects/<key>.json   one checksummed Result envelope per job key
//	<dir>/quarantine/      corrupt objects moved aside for post-mortem
//
// Objects are written atomically (temp file + rename), so an interrupted
// sweep leaves only whole objects, and the objects present are the
// sweep's checkpoint: nothing else records that a job is done. A
// journal.jsonl left by an older layout is ignored.
//
// Every object is an envelope {sha256, result}: Get recomputes the
// payload hash and refuses to serve an entry whose bytes don't verify —
// truncation, a flipped bit, or a hand-edited file all classify as
// corruption. Corrupt entries are moved to quarantine/ (never deleted,
// never served) and the job transparently re-runs.
//
// A key must be one plain file name: a key holding a path separator is
// refused, never joined into a path outside objects/.
type DirStore struct {
	dir string

	mu sync.Mutex
	// quarantined counts objects moved aside by this process.
	quarantined int
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
		for _, sub := range []string{"objects", "quarantine"} {
			if err := os.RemoveAll(filepath.Join(dir, sub)); err != nil {
				return nil, err
			}
		}
		if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
			return nil, err
		}
	default:
		return &DirStore{dir: dir}, nil
	}
	if err := os.WriteFile(vfile, []byte(storeVersion+"\n"), 0o644); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *DirStore) Dir() string { return d.dir }

func (d *DirStore) objectPath(key string) string {
	return filepath.Join(d.dir, "objects", key+".json")
}

// checkKey refuses a key that is not one plain file name, so objectPath
// can never name a file outside objects/.
func checkKey(key string) error {
	if key == "" || strings.ContainsAny(key, `/\`) {
		return fmt.Errorf("sweep: store key %q is not a plain file name", key)
	}
	return nil
}

// readVerified returns key's payload bytes once they match the
// envelope's SHA-256. An entry that fails either check is quarantined and
// reported as a miss — a corrupt cache entry is never silently loaded.
func (d *DirStore) readVerified(key string) ([]byte, bool, error) {
	if err := checkKey(key); err != nil {
		return nil, false, err
	}
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

// GetRaw implements Store: the checksum-verified payload bytes, with
// the same quarantine-on-corruption semantics as Get.
func (d *DirStore) GetRaw(key string) ([]byte, bool, error) {
	return d.readVerified(key)
}

// PutRaw implements Store. The temp file gets a unique name
// (os.CreateTemp), so two concurrent writers of the same key can never
// interleave into one torn temp file; the final rename is atomic and
// last-writer-wins with byte-identical content for content-addressed
// keys.
func (d *DirStore) PutRaw(key string, payload []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
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

// JournalLine is what the deleted completion journal held.
//
// Deprecated: the store is the completion record. Kept only for the frozen
// benchmark/ module; ROADMAP direction 1 deletes it.
type JournalLine struct{ Key string }

// JournalKeys returns an empty map.
//
// Deprecated: nothing is journaled. Kept only for the frozen benchmark/
// module; ROADMAP direction 1 deletes it.
func (d *DirStore) JournalKeys() (map[string]bool, error) { return map[string]bool{}, nil }

// AppendJournal does nothing.
//
// Deprecated: nothing is journaled. Kept only for the frozen benchmark/
// module; ROADMAP direction 1 deletes it.
func (d *DirStore) AppendJournal(JournalLine) error { return nil }
