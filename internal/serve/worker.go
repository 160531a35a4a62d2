package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/sweep"
)

// errNoRawStore is returned when a replication operation needs raw
// payload access but the configured store does not provide it.
var errNoRawStore = errors.New("serve: store does not support raw replication access")

// recordShardLatency folds one completed flight's wall latency into the
// per-shard tracker (worker mode). The shard is derived from the
// content-hash request id with the same mapping the router uses, so the
// digests the worker publishes line up with the router's shard table.
func (s *Server) recordShardLatency(id string, wall time.Duration) {
	if s.tracker == nil {
		return
	}
	s.tracker.Record(cluster.ShardOf(id, s.tracker.NumShards()), wall)
}

// handleShardStats serves GET /shardstats: the windowed per-shard
// latency digests, rotated on each scrape. The read path of the tracker
// is lock-free (atomic snapshot swap), so scraping never blocks a
// request goroutine.
func (s *Server) handleShardStats(w http.ResponseWriter, _ *http.Request) {
	doc := cluster.StatsDoc{
		Worker:    s.opts.WorkerID,
		NumShards: s.tracker.NumShards(),
		Shards:    s.tracker.Snapshot(),
	}
	s.writeJSON(w, http.StatusOK, doc)
}

// handleReplicaManifest serves GET /v1/replica/manifest[?shard=N]: the
// completed flights this worker can replicate, each with the job keys
// whose store objects reproduce its result. The manifest covers the
// bounded completed-flight registry — replication is a read-availability
// optimization over recent results, not a full store dump.
func (s *Server) handleReplicaManifest(w http.ResponseWriter, r *http.Request) {
	wantShard := -1
	if v := r.URL.Query().Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad shard: "+v)
			return
		}
		wantShard = n
	}
	numShards := s.numShards()
	doc := cluster.ManifestDoc{Worker: s.opts.WorkerID, NumShards: numShards}
	s.mu.Lock()
	for _, id := range s.doneOrder {
		f, ok := s.done[id]
		if !ok || f.code != http.StatusOK {
			continue
		}
		shard := cluster.ShardOf(id, numShards)
		if wantShard >= 0 && shard != wantShard {
			continue
		}
		mf := cluster.ManifestFlight{ID: id, Shard: shard}
		for _, j := range f.req.jobs {
			mf.Keys = append(mf.Keys, j.Key)
		}
		doc.Flights = append(doc.Flights, mf)
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, doc)
}

// handleReplicaObject serves GET /v1/replica/objects/{key}: the exact
// checksum-verified payload bytes of one store object, so a replica's
// envelope is byte-identical to the owner's.
func (s *Server) handleReplicaObject(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rs, ok := s.opts.Store.(sweep.RawStore)
	if !ok {
		s.writeError(w, http.StatusNotImplemented, errNoRawStore.Error())
		return
	}
	payload, ok, err := rs.GetRaw(key)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, "no object for key "+key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// handleReplicaFill serves POST /v1/replica/fill: pull the named shard's
// completed results from the source worker into this worker's store —
// the replica fill the router triggers when a shard runs hot. The store
// interface itself is the replication sink (sweep.RawStore), so filled
// objects are indistinguishable from locally computed ones.
func (s *Server) handleReplicaFill(w http.ResponseWriter, r *http.Request) {
	var req cluster.FillRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad fill request: %v", err))
		return
	}
	if req.Source == "" {
		s.writeError(w, http.StatusBadRequest, "fill request needs a source URL")
		return
	}
	if req.Shards != s.numShards() {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("shard space mismatch: fill says %d, worker runs %d", req.Shards, s.numShards()))
		return
	}
	rs, ok := s.opts.Store.(sweep.RawStore)
	if !ok {
		s.writeError(w, http.StatusNotImplemented, errNoRawStore.Error())
		return
	}
	resp, err := s.pullReplica(rs, req)
	if err != nil {
		s.writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// pullReplica fetches the source's manifest for the shard and copies
// every missing object's raw payload into the local store.
func (s *Server) pullReplica(rs sweep.RawStore, req cluster.FillRequest) (cluster.FillResponse, error) {
	var out cluster.FillResponse
	url := req.Source + "/v1/replica/manifest"
	if req.Shard >= 0 {
		url += "?shard=" + strconv.Itoa(req.Shard)
	}
	mresp, err := s.replicaClient.Get(url)
	if err != nil {
		return out, fmt.Errorf("fetching manifest from %s: %w", req.Source, err)
	}
	var manifest cluster.ManifestDoc
	err = json.NewDecoder(mresp.Body).Decode(&manifest)
	mresp.Body.Close()
	if err != nil {
		return out, fmt.Errorf("decoding manifest from %s: %w", req.Source, err)
	}
	if mresp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("manifest from %s: status %d", req.Source, mresp.StatusCode)
	}
	if manifest.NumShards != req.Shards {
		return out, fmt.Errorf("manifest shard space %d does not match %d", manifest.NumShards, req.Shards)
	}
	for _, mf := range manifest.Flights {
		out.Flights++
		for _, key := range mf.Keys {
			if _, have, err := rs.GetRaw(key); err == nil && have {
				continue
			}
			payload, err := s.fetchObject(req.Source, key)
			if err != nil {
				return out, err
			}
			if err := rs.PutRaw(key, payload); err != nil {
				return out, err
			}
			out.Objects++
		}
	}
	return out, nil
}

// fetchObject pulls one raw payload from the source worker.
func (s *Server) fetchObject(source, key string) ([]byte, error) {
	resp, err := s.replicaClient.Get(source + "/v1/replica/objects/" + key)
	if err != nil {
		return nil, fmt.Errorf("fetching object %s: %w", key, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("object %s from %s: status %d", key, source, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// numShards returns the server's effective shard-space size.
func (s *Server) numShards() int {
	if s.opts.NumShards > 0 {
		return s.opts.NumShards
	}
	return cluster.DefaultNumShards
}
