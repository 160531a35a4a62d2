// Package determinism is a lint test fixture: each seeded violation
// below must be caught by the determinism analyzer, and each clean idiom
// must pass. The package lives under testdata so the go tool never
// builds it, but it compiles.
package determinism

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand" // want: seeded generator required
	"sort"
	"time"

	"repro/internal/report"
	"repro/internal/workload"
)

// PrintLoop leaks map order straight to stdout.
func PrintLoop(m map[string]int) {
	for k, v := range m { // want: reaches output
		fmt.Println(k, v)
	}
}

// CollectUnsorted leaks map order into a slice that is never sorted.
func CollectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want: append without sort
		keys = append(keys, k)
	}
	return keys
}

// CollectSorted is the blessed idiom: collect, then sort.
func CollectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FirstMatch returns whichever matching key iteration happens to visit
// first: nondeterministic selection.
func FirstMatch(m map[string]int, want int) string {
	for k, v := range m { // want: selects the returned value
		if v == want {
			return k
		}
	}
	return ""
}

// AnyNegative is clean: the returned value does not depend on which
// element satisfied the predicate.
func AnyNegative(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return true
		}
	}
	return false
}

// SumValues is clean: addition commutes.
func SumValues(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Invert is clean: filling another map is order-insensitive.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Stamp consults the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want: wall-clock input
}

// Roll uses the unseeded global generator (the import alone is flagged;
// this keeps it referenced).
func Roll() int {
	return rand.Intn(6)
}

// WaivedClock is time.Now with an ignore directive.
func WaivedClock() time.Time {
	//lint:ignore fixture demonstrates suppression
	return time.Now()
}

// EncodeLoop journals map entries in iteration order: the resulting
// JSONL stream differs run to run.
func EncodeLoop(w io.Writer, m map[string]int) {
	enc := json.NewEncoder(w)
	for k, v := range m { // want: reaches output through json.Encoder.Encode
		_ = enc.Encode(map[string]int{k: v})
	}
}

// EncodeSorted is the blessed journal idiom: sort keys, then encode.
func EncodeSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc := json.NewEncoder(w)
	for _, k := range keys {
		_ = enc.Encode(map[string]int{k: m[k]})
	}
}

// RowLoop emits report rows in map order: the rendered table differs
// run to run.
func RowLoop(t *report.Table, m map[string]int) {
	for k, v := range m { // want: reaches output through report.Table.AddRowf
		t.AddRowf(k, v)
	}
}

// hybridStore mirrors internal/memory's dense store: a dense array for
// the hot address range plus a sparse map for the overflow. Its snapshot
// path is the shape the determinism analyzer must keep honest — the
// dense half iterates in place (inherently ordered), but the sparse half
// ranges a map, so its keys must be collected and sorted before any
// consumer sees them.
type hybridStore struct {
	dense  []uint64
	sparse map[uint32]uint64
}

// SnapshotUnsorted walks the sparse overflow straight out of the map:
// the emitted order differs run to run.
func (s *hybridStore) SnapshotUnsorted() []uint32 {
	var addrs []uint32
	for a := range s.dense {
		addrs = append(addrs, uint32(a))
	}
	for a := range s.sparse { // want: append without sort
		addrs = append(addrs, a)
	}
	return addrs
}

// SnapshotSorted is the dense store's blessed idiom: dense pages in
// place, then sparse keys collected and sorted.
func (s *hybridStore) SnapshotSorted() []uint32 {
	addrs := make([]uint32, 0, len(s.dense)+len(s.sparse))
	for a := range s.dense {
		addrs = append(addrs, uint32(a))
	}
	start := len(addrs)
	for a := range s.sparse {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs[start:], func(i, j int) bool { return addrs[start+i] < addrs[start+j] })
	return addrs
}

// PlanFaultTrigger is the fault-plan idiom internal/fault uses: every
// quantity of a fault plan is drawn from a workload.RNG stream derived
// purely from the trial seed, so the same seed replans the same fault
// forever. This must stay silent.
func PlanFaultTrigger(trialSeed, refCycles uint64) uint64 {
	rng := workload.NewRNG(trialSeed*0x9e3779b97f4a7c15 + 1)
	lo := refCycles/10 + 1
	hi := refCycles*3/4 + 2
	return lo + rng.Uint64()%(hi-lo)
}

// PlanFaultTriggerWallClock seeds the plan from the wall clock: the
// "same" campaign injects a different fault every run, so no report is
// reproducible and no divergence is attributable.
func PlanFaultTriggerWallClock(refCycles uint64) uint64 {
	seed := uint64(time.Now().UnixNano()) // want: wall-clock input
	rng := workload.NewRNG(seed)
	return 1 + rng.Uint64()%refCycles
}

// RequestIDFromSpec is the service-layer idiom internal/serve uses:
// request ids are pure content hashes over the normalized spec's job
// keys, so two clients posting the same spec compute the same id and
// their submissions coalesce. This must stay silent.
func RequestIDFromSpec(epoch string, jobKeys []string) string {
	h := sha256.New()
	io.WriteString(h, epoch)
	for _, k := range jobKeys {
		io.WriteString(h, "|"+k)
	}
	sum := h.Sum(nil)
	return "req-" + hex.EncodeToString(sum[:12])
}

// RequestIDWallClock mints ids from the wall clock: identical
// submissions get distinct ids, so nothing ever coalesces and the same
// spec is simulated once per client instead of once.
func RequestIDWallClock() string {
	return fmt.Sprintf("req-%x", time.Now().UnixNano()) // want: wall-clock input
}
