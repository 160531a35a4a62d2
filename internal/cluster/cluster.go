// Package cluster is the S25 shard-routed router tier: a Router in front
// of a static fleet of serve workers. The content-hash request-id space
// is partitioned into a fixed number of virtual shards, and each shard
// ranks the fleet by rendezvous (highest-random-weight) hashing. The
// router keeps no state about workers between requests: every request
// walks its shard's ranking and moves on past a worker that fails it, so
// a dead worker's shards land on their rendezvous successor request by
// request. Results are content-addressed, so a cluster run is
// byte-identical to a single-node run whatever the routing. See
// DESIGN.md §13.
//
// Deprecated: on one host a single serve.Server with the fleet's total
// engine concurrency beat the router and two workers on every latency
// metric, and no chaos class that the router masks fails against it
// (DESIGN.md §13). The package stays only because the frozen benchmark/
// module's cluster-skewed workload and the internal/chaos campaign run
// it; ROADMAP direction 19 deletes it with them.
package cluster

import "hash/fnv"

// Worker identifies one mimdserved worker in the fleet. The ID feeds the
// rendezvous hash (it must be stable across restarts for the shard map
// to be stable); the URL is where the router proxies to.
type Worker struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

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
