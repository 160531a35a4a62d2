// Package cluster is the S25 distributed sweep fabric: a shard-routed
// router tier in front of N mimdserved workers. The content-hash
// request-id space is partitioned into a fixed number of virtual shards;
// each shard is assigned to a worker by rendezvous (highest-random-
// weight) hashing over a versioned membership table, so adding or losing
// a worker remaps only that worker's shards and every result store stays
// shard-local. A health prober, passive failure detection and per-worker
// circuit breakers move a dead worker's shards to their rendezvous
// successor, and a journal lets a restarted router resume in-flight
// submissions. Results are content-addressed, so a cluster run is
// byte-identical to a single-node run whatever the routing. See
// DESIGN.md §13.
package cluster

import "hash/fnv"

// DefaultNumShards is the size of the virtual shard space every router
// routes with. It is deliberately much larger than any realistic worker
// count so rendezvous assignment stays balanced.
const DefaultNumShards = 32

// ShardOf maps a content-hash request id onto a virtual shard. The
// mapping is a pure function of the id bytes — no wall clock, no
// randomness — so every router and worker computes the same shard for
// the same request forever.
func ShardOf(id string, numShards int) int {
	if numShards <= 0 {
		numShards = DefaultNumShards
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return int(h.Sum64() % uint64(numShards))
}
