// Package clean is a lint test fixture containing only blessed idioms:
// the linter must report nothing here.
package clean

import "sort"

// Histogram folds a map order-insensitively and sorts before emitting.
func Histogram(counts map[int]uint64) []int {
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
