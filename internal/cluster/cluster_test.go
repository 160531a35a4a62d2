package cluster

import (
	"fmt"
	"testing"
)

func TestShardOfIsStableAndBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("req-%024x", i)
		s := ShardOf(id, DefaultNumShards)
		if s < 0 || s >= DefaultNumShards {
			t.Fatalf("ShardOf(%s) = %d out of [0,%d)", id, s, DefaultNumShards)
		}
		if again := ShardOf(id, DefaultNumShards); again != s {
			t.Fatalf("ShardOf(%s) unstable: %d then %d", id, s, again)
		}
	}
}

func TestShardOfSpreadsAcrossShards(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[ShardOf(fmt.Sprintf("req-%d", i), DefaultNumShards)] = true
	}
	if len(seen) < DefaultNumShards/2 {
		t.Fatalf("2000 ids landed on only %d of %d shards", len(seen), DefaultNumShards)
	}
}

func TestRankIsDeterministicAndComplete(t *testing.T) {
	ids := []string{"w1", "w2", "w3"}
	for shard := 0; shard < DefaultNumShards; shard++ {
		r1 := Rank(ids, shard)
		r2 := Rank(ids, shard)
		if len(r1) != len(ids) {
			t.Fatalf("shard %d: rank has %d entries, want %d", shard, len(r1), len(ids))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("shard %d: rank not deterministic: %v vs %v", shard, r1, r2)
			}
		}
		seen := map[string]bool{}
		for _, id := range r1 {
			seen[id] = true
		}
		if len(seen) != len(ids) {
			t.Fatalf("shard %d: rank %v is not a permutation of %v", shard, r1, ids)
		}
	}
}

// TestRankMinimalDisruption is the rendezvous property that keeps a
// dead worker's failover local: dropping one worker from the ranking
// only moves the shards that worker owned — every other shard keeps its
// owner.
func TestRankMinimalDisruption(t *testing.T) {
	all := []string{"w1", "w2", "w3", "w4"}
	without := []string{"w1", "w2", "w4"}
	moved := 0
	for shard := 0; shard < 256; shard++ {
		before := Rank(all, shard)[0]
		after := Rank(without, shard)[0]
		if before != "w3" && before != after {
			t.Fatalf("shard %d: owner moved %s -> %s though w3 was not the owner", shard, before, after)
		}
		if before == "w3" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("w3 owned no shards out of 256; rendezvous spread is broken")
	}
}

// TestFleetValidation: the static fleet is checked once, in New — an
// empty fleet, a worker missing its id or URL, and a duplicate id are
// refused.
func TestFleetValidation(t *testing.T) {
	for _, fleet := range [][]Worker{
		nil,
		{{ID: "w1"}},
		{{URL: "http://a"}},
		{{ID: "x", URL: "http://a"}, {ID: "x", URL: "http://b"}},
	} {
		if _, err := New(Options{Workers: fleet, RequestID: contentID}); err == nil {
			t.Errorf("fleet %+v accepted", fleet)
		}
	}
	if _, err := New(Options{Workers: []Worker{{ID: "w1", URL: "http://a"}, {ID: "w2", URL: "http://b"}}, RequestID: contentID}); err != nil {
		t.Fatalf("valid fleet refused: %v", err)
	}
}
