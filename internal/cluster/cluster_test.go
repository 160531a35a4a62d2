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

// TestRankMinimalDisruption is the rendezvous property that makes the
// membership table safe to change mid-flight: removing one worker only
// moves the shards that worker owned — every other shard keeps its
// owner.
func TestRankMinimalDisruption(t *testing.T) {
	all := []string{"w1", "w2", "w3", "w4"}
	without := []string{"w1", "w2", "w4"}
	moved := 0
	for shard := 0; shard < 256; shard++ {
		before := Owner(all, shard)
		after := Owner(without, shard)
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

func TestOwnerAndSuccessorDiffer(t *testing.T) {
	ids := []string{"w1", "w2", "w3"}
	for shard := 0; shard < DefaultNumShards; shard++ {
		if Owner(ids, shard) == Successor(ids, shard) {
			t.Fatalf("shard %d: owner == successor", shard)
		}
	}
	if Successor([]string{"only"}, 0) != "" {
		t.Fatal("single-worker fleet should have no successor")
	}
}

func TestMembershipTransitions(t *testing.T) {
	m, err := NewMembership([]Worker{{ID: "w1", URL: "http://a"}, {ID: "w2", URL: "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.AliveCount(); got != 2 {
		t.Fatalf("fresh membership: %d alive, want 2", got)
	}
	v0 := m.Version()

	m.MarkDown("w1")
	if m.Alive("w1") {
		t.Fatal("w1 still alive after MarkDown")
	}
	if m.Version() == v0 {
		t.Fatal("version did not bump on MarkDown")
	}
	if ids := m.AliveIDs(); len(ids) != 1 || ids[0] != "w2" {
		t.Fatalf("alive ids = %v, want [w2]", ids)
	}

	v1 := m.Version()
	m.MarkDown("w1") // idempotent: no bump for a no-op transition
	if m.Version() != v1 {
		t.Fatal("version bumped on a no-op MarkDown")
	}

	m.MarkUp("w1")
	if !m.Alive("w1") || m.Version() == v1 {
		t.Fatal("MarkUp did not revive w1 with a version bump")
	}

	if m.Fail("w2") != 1 || m.Fail("w2") != 2 {
		t.Fatal("Fail streak did not count 1, 2")
	}
	m.MarkUp("w2")
	if m.Fail("w2") != 1 {
		t.Fatal("MarkUp did not reset the fail streak")
	}

	if _, err := NewMembership(nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewMembership([]Worker{{ID: "x", URL: "u"}, {ID: "x", URL: "v"}}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
}
