package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/retry"
)

// rebalanceLoop runs the p99-driven rebalancer until ctx is cancelled.
// Each poll scrapes every alive worker's /shardstats, merges the
// windowed digests per shard, and advances each shard's state machine:
//
//	normal     --[p99 ≥ hot for HotPolls polls]-->   replicated
//	replicated --[p99 ≤ recover (or the shard went
//	              idle) for CoolPolls polls]-->      normal
//
// Activating a replica fills the rendezvous successor's store from the
// owner and then alternates the shard's submissions between the two;
// retiring it simply stops routing there — the replica's store keeps
// its (content-addressed, byte-identical) objects, which is free read
// availability if the shard heats up again.
func (r *Router) rebalanceLoop(ctx context.Context) {
	//lint:ignore determinism rebalance cadence is wall-clock observability; no simulation result depends on it
	ticker := time.NewTicker(r.opts.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.RebalanceOnce(ctx)
		}
	}
}

// RebalanceOnce runs one rebalancer poll (exported so tests can drive
// the state machine deterministically).
func (r *Router) RebalanceOnce(ctx context.Context) {
	alive := r.members.AliveIDs()
	if len(alive) == 0 {
		return
	}
	stats := r.scrapeStats(ctx, alive)
	for shard := 0; shard < r.opts.NumShards; shard++ {
		merged := mergeDigests(shard, stats)
		r.stepShard(ctx, shard, merged, alive)
	}
	r.metrics.polls.Inc()
}

// scrapeStats fetches /shardstats from every alive worker; workers that
// fail to answer are simply absent this poll (the health prober owns
// liveness).
func (r *Router) scrapeStats(ctx context.Context, alive []string) map[string]StatsDoc {
	out := make(map[string]StatsDoc, len(alive))
	for _, id := range alive {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.members.URL(id)+"/shardstats", nil)
		if err != nil {
			continue
		}
		resp, err := r.probe.Do(req)
		if err != nil {
			continue
		}
		var doc StatsDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || doc.NumShards != r.opts.NumShards {
			continue
		}
		out[id] = doc
	}
	return out
}

// mergeDigests combines one shard's digests across workers: counts sum
// (a replicated shard's traffic splits across two stores) and the tail
// is the worst observed tail — a shard is only "recovered" when every
// worker serving it is fast.
func mergeDigests(shard int, stats map[string]StatsDoc) Digest {
	merged := Digest{Shard: shard}
	for _, doc := range stats {
		if shard >= len(doc.Shards) {
			continue
		}
		d := doc.Shards[shard]
		if d.Count == 0 {
			continue
		}
		merged.Count += d.Count
		if d.P99MS > merged.P99MS {
			merged.P99MS = d.P99MS
		}
		if d.P95MS > merged.P95MS {
			merged.P95MS = d.P95MS
		}
		if d.P50MS > merged.P50MS {
			merged.P50MS = d.P50MS
		}
		if d.MaxMS > merged.MaxMS {
			merged.MaxMS = d.MaxMS
		}
	}
	return merged
}

// stepShard advances one shard's replica state machine.
func (r *Router) stepShard(ctx context.Context, shard int, merged Digest, alive []string) {
	hot := merged.Count >= r.opts.MinSamples && merged.P99MS >= r.opts.HotP99MS
	cool := merged.Count == 0 || merged.P99MS <= r.opts.RecoverP99MS

	slot := &r.shards[shard]
	slot.mu.Lock()
	slot.lastP99MS = merged.P99MS
	rep := slot.replica
	if rep != "" && !r.members.Alive(rep) {
		// The replica itself died: stop routing there. Not a recovery —
		// the hot streak restarts from scratch so a still-hot shard
		// re-replicates onto the next successor.
		slot.replica = ""
		slot.hotStreak, slot.coolStreak = 0, 0
		rep = ""
	}
	var trip, retire bool
	if rep == "" {
		if hot {
			slot.hotStreak++
		} else {
			slot.hotStreak = 0
		}
		trip = slot.hotStreak >= r.opts.HotPolls
	} else {
		switch {
		case cool:
			slot.coolStreak++
		case hot:
			slot.coolStreak = 0
		}
		retire = slot.coolStreak >= r.opts.CoolPolls
		if retire {
			slot.replica = ""
			slot.hotStreak, slot.coolStreak = 0, 0
		}
	}
	slot.mu.Unlock()

	if retire {
		r.metrics.replicasRetired.Inc()
		return
	}
	if trip {
		r.addReplica(ctx, shard, alive)
	}
}

// addReplica activates the shard's rendezvous successor as a read
// replica: fill its store from the owner, then start alternating the
// shard's submissions. The fill runs under the shared retry policy
// (seeded by the shard index, so each shard's backoff schedule is
// reproducible); a fill that exhausts its attempts leaves the shard
// unreplicated, and the still-hot shard trips again next poll.
func (r *Router) addReplica(ctx context.Context, shard int, alive []string) {
	owner := Owner(alive, shard)
	succ := Successor(alive, shard)
	if owner == "" || succ == "" {
		return // a 1-worker fleet has nowhere to replicate
	}
	policy := retry.Policy{
		Base:        100 * time.Millisecond,
		Cap:         time.Second,
		MaxAttempts: 3,
		Seed:        uint64(shard),
	}
	var filled int64
	err := retry.Do(ctx, policy, func(ctx context.Context) error {
		n, ferr := r.fillReplica(ctx, r.members.URL(succ), r.members.URL(owner), shard)
		filled = n
		return ferr
	})
	if err != nil {
		return
	}
	slot := &r.shards[shard]
	slot.mu.Lock()
	slot.replica = succ
	slot.hotStreak, slot.coolStreak = 0, 0
	slot.mu.Unlock()
	r.metrics.replicasAdded.Inc()
	r.metrics.fillObjects.Add(filled)
}

// fillReplica asks the successor to pull the shard's completed results
// from the owner.
func (r *Router) fillReplica(ctx context.Context, succURL, ownerURL string, shard int) (int64, error) {
	body, err := json.Marshal(FillRequest{Source: ownerURL, Shard: shard, Shards: r.opts.NumShards})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, succURL+"/v1/replica/fill", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("cluster: replica fill: status %d", resp.StatusCode)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// A 4xx is deterministic (bad shard, mismatched fleet
			// config); retrying the same fill cannot fix it.
			return 0, retry.Permanent(err)
		}
		return 0, err
	}
	var fr FillResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return 0, err
	}
	return int64(fr.Objects), nil
}
