package determinism

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
)

// Fixture rows for the shapes a content key is built from: a request id
// hashed over a set of job keys, and a key made of "name=value" fields.
// Each violation below leaks map order into the hashed bytes, so two
// processes (or two runs) derive different ids for the same content.

// RequestIDFromSet feeds the hash straight from a map walk: the digest
// depends on the visit order.
func RequestIDFromSet(seen map[string]bool) string {
	h := sha256.New()
	for k := range seen { // want: reaches output through hash.Hash.Write
		h.Write([]byte(k + "|"))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// FieldsByCounter stores each field at a running position: the slice is
// in visit order although no append is involved.
func FieldsByCounter(fields map[string]string) []string {
	out := make([]string, len(fields))
	i := 0
	for k, v := range fields { // want: by position without a subsequent sort
		out[i] = k + "=" + v
		i++
	}
	return out
}

// FieldsSortedTooEarly sorts before the loop fills the slice: the sort
// sees nothing, and the appended keys stay in visit order.
func FieldsSortedTooEarly(fields map[string]string) []string {
	out := make([]string, 0, len(fields))
	sort.Strings(out)
	for k := range fields { // want: append without a subsequent sort
		out = append(out, k)
	}
	return out
}

// FieldsByCounterSorted is the blessed form of the counter store:
// position by visit, then sort. This must stay silent.
func FieldsByCounterSorted(fields map[string]string) []string {
	out := make([]string, len(fields))
	i := 0
	for k := range fields {
		out[i] = k
		i++
	}
	sort.Strings(out)
	return out
}

// DenseByKey places each value at the position its key names, so the
// visit order cannot show. This must stay silent.
func DenseByKey(m map[int]uint64, n int) []uint64 {
	dense := make([]uint64, n)
	for k, v := range m {
		dense[k] = v
	}
	return dense
}

// RequestIDFromSortedSet is the blessed idiom: hash the keys in sorted
// order. This must stay silent.
func RequestIDFromSortedSet(seen map[string]bool) string {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k + "|"))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
