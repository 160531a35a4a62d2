package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// clusterUnderTest is a router over N real serve workers, each with its
// own DirStore (stores[i] belongs to worker "w<i+1>").
type clusterUnderTest struct {
	base   string
	router *cluster.Router
	stores []*sweep.DirStore
}

// startTestCluster boots the fleet; opts carries the router tuning, its
// Workers and RequestID are filled in here.
func startTestCluster(t *testing.T, n int, opts cluster.Options) *clusterUnderTest {
	t.Helper()
	c := &clusterUnderTest{}
	var fleet []cluster.Worker
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i+1)
		ds, err := sweep.OpenDirStore(filepath.Join(t.TempDir(), id))
		if err != nil {
			t.Fatal(err)
		}
		c.stores = append(c.stores, ds)
		srv := serve.New(serve.Options{Store: ds, Worker: true, WorkerID: id})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		fleet = append(fleet, cluster.Worker{ID: id, URL: ts.URL})
	}
	idOpts := serve.Options{}
	opts.Workers = fleet
	opts.RequestID = func(body []byte) (string, error) { return serve.ComputeRequestID(body, idOpts) }
	r, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	c.base, c.router = ts.URL, r
	return c
}

func postJSON(t *testing.T, base, spec string) serve.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for %s: %s", resp.StatusCode, spec, out.Error)
	}
	return out
}

// TestClusterByteIdenticalToSingleNode is the tentpole acceptance test:
// the same submissions against a single mimdserved and against a
// 3-worker cluster must produce identical request ids, identical
// client-visible tables and reports, and byte-identical stored
// envelopes — the cluster tier adds capacity, never drift.
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}

	singleStore, err := sweep.OpenDirStore(filepath.Join(t.TempDir(), "single"))
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(serve.New(serve.Options{Store: singleStore}).Handler())
	defer single.Close()

	clus := startTestCluster(t, 3, cluster.Options{})

	specs := []string{
		`{"kind":"experiment","experiment":"fig7-1","seeds":[1,2]}`,
		`{"kind":"experiment","experiment":"fig6-1","seeds":[1]}`,
		`{"kind":"sweep","experiments":["fig6-1","fig6-2"],"seeds":[1]}`,
		`{"kind":"fault","fault":{"protocols":["rb","rwb"],"trials":1,"refs":200}}`,
	}
	for _, spec := range specs {
		want := postJSON(t, single.URL, spec)
		got := postJSON(t, clus.base, spec)
		if got.ID != want.ID {
			t.Fatalf("%s: id %s via cluster, %s single-node", spec, got.ID, want.ID)
		}
		if len(got.Tables) != len(want.Tables) {
			t.Fatalf("%s: %d tables via cluster, %d single-node", spec, len(got.Tables), len(want.Tables))
		}
		for i := range want.Tables {
			if got.Tables[i] != want.Tables[i] {
				t.Fatalf("%s: table %d differs between cluster and single node:\n%s\n--- vs ---\n%s",
					spec, i, got.Tables[i], want.Tables[i])
			}
		}
		if got.Report != want.Report {
			t.Fatalf("%s: fault report differs between cluster and single node", spec)
		}
	}

	// Stored envelopes: every job key the experiment/sweep specs expand
	// to must exist somewhere in the cluster with exactly the bytes the
	// single node stored.
	var jobs []sweep.Job
	for _, sp := range []struct {
		ids   []string
		seeds []uint64
	}{
		{[]string{"fig7-1"}, []uint64{1, 2}},
		{[]string{"fig6-1"}, []uint64{1}},
		{[]string{"fig6-1", "fig6-2"}, []uint64{1}},
	} {
		var ss []sweep.Spec
		for _, id := range sp.ids {
			s, err := sweep.SpecFor(id, sp.seeds, 1)
			if err != nil {
				t.Fatal(err)
			}
			ss = append(ss, s)
		}
		jobs = append(jobs, sweep.Expand(ss)...)
	}
	checked := 0
	for _, j := range jobs {
		want, err := os.ReadFile(objectPath(singleStore.Dir(), j.Key))
		if err != nil {
			t.Fatalf("single store missing %s: %v", j.Key, err)
		}
		found := false
		for _, ds := range clus.stores {
			got, err := os.ReadFile(objectPath(ds.Dir(), j.Key))
			if err != nil {
				continue
			}
			found = true
			if !bytes.Equal(got, want) {
				t.Fatalf("stored envelope for %s differs between cluster and single node", j.Key)
			}
		}
		if !found {
			t.Fatalf("no cluster worker stores key %s", j.Key)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no job keys checked")
	}
}

func objectPath(dir, key string) string {
	return filepath.Join(dir, "objects", key+".json")
}

// getStatus issues a body-less GET through the router and returns the
// status code, draining the body (an event stream runs to its terminal
// frame).
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestReplicaFillCopiesExactBytes walks a hot shard's life through the
// router over two real workers: the rebalancer trips a replica, the fill
// lands the owner's envelopes on it byte-for-byte, replica reads answer
// as pure cache hits with identical tables, and follow-up GETs by id —
// whose flight and profile doc live on one worker only — are answered
// whichever worker the alternation picks first.
func TestReplicaFillCopiesExactBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// Hair-trigger rebalancer: one submission's latency makes its shard
	// hot on the first poll.
	clus := startTestCluster(t, 2, cluster.Options{HotP99MS: 0.000001, MinSamples: 1, HotPolls: 1})
	const (
		runSpec  = `{"kind":"experiment","experiment":"fig7-1","seeds":[1]}`
		jobSpec  = `{"kind":"experiment","experiment":"fig6-1","seeds":[1]}`
		profSpec = `{"kind":"experiment","experiment":"fig7-1","seeds":[2],"profile":true}`
	)

	// Three cold submissions, each seen by its shard's owner only.
	cold := postJSON(t, clus.base, runSpec)
	if cold.Cache != "miss" || cold.Executed == 0 {
		t.Fatalf("cold run: cache=%s executed=%d, want a full miss", cold.Cache, cold.Executed)
	}
	jresp, err := http.Post(clus.base+"/v1/jobs", "application/json", strings.NewReader(jobSpec))
	if err != nil {
		t.Fatal(err)
	}
	var job serve.JobStatus
	err = json.NewDecoder(jresp.Body).Decode(&job)
	jresp.Body.Close()
	if err != nil || job.ID == "" {
		t.Fatalf("POST /v1/jobs: status %d, decode error %v", jresp.StatusCode, err)
	}
	if code := getStatus(t, clus.base+job.EventsURL); code != http.StatusOK { // runs to the terminal frame
		t.Fatalf("GET %s: status %d", job.EventsURL, code)
	}
	prof := postJSON(t, clus.base, profSpec)

	// One poll replicates every hot shard onto the other worker.
	clus.router.RebalanceOnce(context.Background())
	for _, id := range []string{cold.ID, job.ID, prof.ID} {
		if clus.router.ReplicaFor(cluster.ShardOf(id, cluster.DefaultNumShards)) == "" {
			t.Fatalf("rebalancer did not replicate the shard of %s", id)
		}
	}
	if clus.router.Metrics().ReplicasAdded() == 0 {
		t.Fatal("replica fill did not run")
	}

	// The fill copied the owner's envelopes exactly.
	replica, owner := clus.stores[0], clus.stores[1]
	if clus.router.ReplicaFor(cluster.ShardOf(cold.ID, cluster.DefaultNumShards)) == "w2" {
		replica, owner = owner, replica
	}
	sp, err := sweep.SpecFor("fig7-1", []uint64{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range sweep.Expand([]sweep.Spec{sp}) {
		want, err := os.ReadFile(objectPath(owner.Dir(), j.Key))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(objectPath(replica.Dir(), j.Key))
		if err != nil {
			t.Fatalf("replica missing replicated key %s: %v", j.Key, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replicated envelope for %s is not byte-identical", j.Key)
		}
	}

	// Resubmissions alternate owner and replica: within a few, one is a
	// replica read, and every one is a pure hit with the owner's table.
	for i := 0; i < 4 && clus.router.Metrics().ReplicaReads() == 0; i++ {
		warm := postJSON(t, clus.base, runSpec)
		if warm.Cache != "hit" || warm.Executed != 0 {
			t.Fatalf("resubmission %d: cache=%s executed=%d, want a pure hit", i, warm.Cache, warm.Executed)
		}
		if warm.Tables[0] != cold.Tables[0] {
			t.Fatal("replica-path table differs from the owner's")
		}
	}
	if clus.router.Metrics().ReplicaReads() == 0 {
		t.Fatal("no replica read after 4 resubmissions of a replicated shard")
	}

	// Follow-up GETs: the replica holds the shard's results but never saw
	// the flight or the profile doc, so half of these reach a worker that
	// answers 404; the router must move on to the one that holds them.
	for i := 0; i < 8; i++ {
		if code := getStatus(t, clus.base+job.EventsURL); code != http.StatusOK {
			t.Fatalf("events GET %d: status %d", i, code)
		}
		if code := getStatus(t, clus.base+"/v1/jobs/"+job.ID); code != http.StatusOK {
			t.Fatalf("status GET %d: status %d", i, code)
		}
		if code := getStatus(t, clus.base+prof.Profile); code != http.StatusOK {
			t.Fatalf("profile GET %d: status %d", i, code)
		}
	}
	if n := clus.router.Metrics().Failovers(); n != 0 {
		t.Fatalf("a 404 from a non-holder counted as %d failover(s)", n)
	}
}
