package serve

import (
	"hash/fnv"
	"sync"

	"repro/internal/sweep"
)

// storeGuard makes the re-run-after-quarantine path single-flighted per
// key. Without it, the store fast-path probe and an engine flight can
// race on the same key after a quarantine: the probe reads a corrupt
// object, decides to quarantine it, and renames away a *fresh* object
// that a concurrent flight just Put under the same name — losing a good
// result and double-counting corruption.
//
// The guard serializes all read and write traffic per key (raw payloads
// included: Lookup and repeats read with GetRaw) through striped
// mutexes (a probe's read-validate-quarantine and a flight's
// write-rename can no longer interleave) and records keys whose entry
// was just quarantined in a repair set: until the re-run's Put lands,
// every other read of that key answers "miss" without touching the store
// at all — exactly one caller performs the quarantine, everyone else
// simply routes through the engine, and the first fresh Put clears the
// key. The engine's own store access goes through the same guard, so
// the protection covers probes and flights alike.
type storeGuard struct {
	inner sweep.Store

	stripes [64]sync.Mutex

	mu        sync.Mutex
	repairing map[string]bool
}

func newStoreGuard(inner sweep.Store) *storeGuard {
	return &storeGuard{inner: inner, repairing: map[string]bool{}}
}

// quarantiner is the optional corruption counter a store exposes
// (DirStore does); the guard uses its delta to detect that a read
// quarantined the entry it read.
type quarantiner interface {
	Quarantined() int
}

func (g *storeGuard) lockFor(key string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &g.stripes[h.Sum32()%uint32(len(g.stripes))]
}

// inRepair reports whether key is in the repair set: its corrupt entry
// is already gone and its re-run is in flight.
func (g *storeGuard) inRepair(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.repairing[key]
}

// landed clears key's repair mark: a write under it succeeded.
func (g *storeGuard) landed(key string) {
	g.mu.Lock()
	delete(g.repairing, key)
	g.mu.Unlock()
}

// Get implements sweep.Store. A key in the repair set is a miss by
// definition.
func (g *storeGuard) Get(key string) (*sweep.Result, bool, error) {
	var res *sweep.Result
	ok, err := g.read(key, func() (ok bool, err error) {
		res, ok, err = g.inner.Get(key)
		return ok, err
	})
	return res, ok, err
}

// GetRaw implements sweep.Store, with the same per-key serialization and
// repair-set semantics as Get.
func (g *storeGuard) GetRaw(key string) ([]byte, bool, error) {
	var payload []byte
	ok, err := g.read(key, func() (ok bool, err error) {
		payload, ok, err = g.inner.GetRaw(key)
		return ok, err
	})
	return payload, ok, err
}

// read runs one inner read of key under its stripe lock, after the
// repair-set check, and puts key in the repair set when the read
// quarantined its entry.
func (g *storeGuard) read(key string, get func() (bool, error)) (bool, error) {
	if g.inRepair(key) {
		return false, nil
	}
	lock := g.lockFor(key)
	lock.Lock()
	defer lock.Unlock()

	q, _ := g.inner.(quarantiner)
	before := 0
	if q != nil {
		before = q.Quarantined()
	}
	ok, err := get()
	if q != nil && !ok && err == nil && q.Quarantined() > before {
		// This read quarantined the entry (the counter is global, so a
		// concurrent quarantine of another key can also land here; the
		// false positive only makes this key read as a miss until its
		// next Put, which is harmless).
		g.mu.Lock()
		g.repairing[key] = true
		g.mu.Unlock()
	}
	return ok, err
}

// Put implements sweep.Store and clears the key's repair mark: the
// re-run landed.
func (g *storeGuard) Put(res *sweep.Result) error {
	lock := g.lockFor(res.Key)
	lock.Lock()
	err := g.inner.Put(res)
	lock.Unlock()
	if err == nil {
		g.landed(res.Key)
	}
	return err
}

// PutRaw implements sweep.Store and, like Put, clears the key's repair
// mark.
func (g *storeGuard) PutRaw(key string, payload []byte) error {
	lock := g.lockFor(key)
	lock.Lock()
	err := g.inner.PutRaw(key, payload)
	lock.Unlock()
	if err == nil {
		g.landed(key)
	}
	return err
}
