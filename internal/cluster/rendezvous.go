package cluster

import (
	"hash/fnv"
	"sort"
)

// hrwScore is the rendezvous weight of (worker, shard): a pure hash of
// the worker id salted with the shard number. The worker with the
// highest score owns the shard; the runner-up is its failover
// successor. Because each worker's score is independent of every other
// worker's, a dead worker's requests move only to the next worker of
// each shard it owned — the property that keeps caches shard-local
// while a worker is down.
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
