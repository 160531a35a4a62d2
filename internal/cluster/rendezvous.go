package cluster

import (
	"hash/fnv"
	"sort"
)

// hrwScore is the rendezvous weight of (worker, shard): a pure hash of
// the worker id salted with the shard number. The worker with the
// highest score owns the shard; the runner-up is its failover
// successor. Because each worker's score is independent of every other
// worker's, removing a worker from the candidate set remaps only the
// shards that worker owned — the property that keeps caches shard-local
// across membership changes.
func hrwScore(workerID string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workerID))
	h.Write([]byte{'|', byte(shard), byte(shard >> 8), byte(shard >> 16), byte(shard >> 24)})
	return h.Sum64()
}

// Rank orders worker ids by descending rendezvous score for the shard,
// breaking score ties by id so the order is total and deterministic.
// Rank(...)[0] is the shard's owner, Rank(...)[1] its successor.
func Rank(workerIDs []string, shard int) []string {
	out := make([]string, len(workerIDs))
	copy(out, workerIDs)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := hrwScore(out[i], shard), hrwScore(out[j], shard)
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Owner returns the rendezvous owner of the shard among the candidate
// workers, or "" when there are no candidates.
func Owner(workerIDs []string, shard int) string {
	if len(workerIDs) == 0 {
		return ""
	}
	best, bestScore := "", uint64(0)
	for _, id := range workerIDs {
		s := hrwScore(id, shard)
		if best == "" || s > bestScore || (s == bestScore && id < best) {
			best, bestScore = id, s
		}
	}
	return best
}

// Successor returns the second-ranked worker for the shard — where its
// submissions fail over to — or "" when fewer than two candidates exist.
func Successor(workerIDs []string, shard int) string {
	if len(workerIDs) < 2 {
		return ""
	}
	return Rank(workerIDs, shard)[1]
}
