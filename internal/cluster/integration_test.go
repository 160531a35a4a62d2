package cluster_test

import (
	"bytes"
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
// own DirStore behind a crash gate (stores[i] belongs to worker
// "w<i+1>"; gates and urls are by worker id).
type clusterUnderTest struct {
	base   string
	router *cluster.Router
	stores []*sweep.DirStore
	gates  map[string]*cluster.CrashGate
	urls   map[string]string
	ids    []string
}

// startTestCluster boots the fleet; opts carries the router tuning, its
// Workers and RequestID are filled in here.
func startTestCluster(t *testing.T, n int, opts cluster.Options) *clusterUnderTest {
	t.Helper()
	c := &clusterUnderTest{gates: map[string]*cluster.CrashGate{}, urls: map[string]string{}}
	var fleet []cluster.Worker
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i+1)
		ds, err := sweep.OpenDirStore(filepath.Join(t.TempDir(), id))
		if err != nil {
			t.Fatal(err)
		}
		c.stores = append(c.stores, ds)
		c.gates[id] = &cluster.CrashGate{Inner: serve.New(serve.Options{Store: ds}).Handler()}
		ts := httptest.NewServer(c.gates[id])
		t.Cleanup(ts.Close)
		c.urls[id] = ts.URL
		c.ids = append(c.ids, id)
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

// TestFollowUpGetsFindFlightOnSuccessor: a submission made while its
// shard's owner is crashed runs on the rendezvous successor, so once the
// owner is back the router's first candidate for a GET by id is a real
// worker that answers 404. The router must walk on to the successor for
// the job status, its event stream and the profile doc, and a 404 from
// a non-holder is no failover.
func TestFollowUpGetsFindFlightOnSuccessor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	clus := startTestCluster(t, 2, cluster.Options{})
	// submitWithOwnerDown crashes the spec's shard owner, calls submit,
	// restarts the owner and returns its id.
	submitWithOwnerDown := func(spec string, submit func()) string {
		t.Helper()
		id, err := serve.ComputeRequestID([]byte(spec), serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		owner := cluster.Rank(clus.ids, cluster.ShardOf(id, cluster.DefaultNumShards))[0]
		clus.gates[owner].Crashed.Store(true)
		submit()
		clus.gates[owner].Crashed.Store(false)
		return owner
	}
	const (
		jobSpec  = `{"kind":"experiment","experiment":"fig6-1","seeds":[1]}`
		profSpec = `{"kind":"experiment","experiment":"fig7-1","seeds":[2],"profile":true}`
	)

	var job serve.JobStatus
	jobOwner := submitWithOwnerDown(jobSpec, func() {
		resp, err := http.Post(clus.base+"/v1/jobs", "application/json", strings.NewReader(jobSpec))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || job.ID == "" {
			t.Fatalf("POST /v1/jobs: status %d, decode error %v", resp.StatusCode, err)
		}
		if code := getStatus(t, clus.base+job.EventsURL); code != http.StatusOK { // runs to the terminal frame
			t.Fatalf("GET %s: status %d", job.EventsURL, code)
		}
	})
	var prof serve.Response
	profOwner := submitWithOwnerDown(profSpec, func() { prof = postJSON(t, clus.base, profSpec) })
	if prof.Profile == "" {
		t.Fatal("profiled run returned no profile path")
	}

	// The owners are alive again and hold neither flight nor doc.
	if code := getStatus(t, clus.urls[jobOwner]+"/v1/jobs/"+job.ID); code != http.StatusNotFound {
		t.Fatalf("owner %s answered the job status with %d, want 404", jobOwner, code)
	}
	if code := getStatus(t, clus.urls[profOwner]+prof.Profile); code != http.StatusNotFound {
		t.Fatalf("owner %s answered the profile doc with %d, want 404", profOwner, code)
	}

	failovers := clus.router.Metrics().Failovers()
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
	if n := clus.router.Metrics().Failovers() - failovers; n != 0 {
		t.Fatalf("a 404 from a non-holder counted as %d failover(s)", n)
	}
}
