package cluster

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Wire vocabulary shared by the router and by internal/serve (serve
// imports cluster, never the reverse): the shed/error answer both tiers
// give, and the worker-mode replication API's documents.

// SetRetryAfter adds the Retry-After hint to the statuses that promise
// one (429, 503): d in whole seconds, rounded up and at least 1 (the
// header's granularity).
func SetRetryAfter(h http.Header, code int, d time.Duration) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		h.Set("Retry-After", strconv.Itoa(max(1, int((d+time.Second-1)/time.Second))))
	}
}

// WriteError answers with the {"error": msg} document. msg may carry
// proxy and dial error text — arbitrary bytes, which only a JSON encoder
// escapes into valid JSON.
func WriteError(w http.ResponseWriter, code int, retryAfter time.Duration, msg string) {
	w.Header().Set("Content-Type", "application/json")
	SetRetryAfter(w.Header(), code, retryAfter)
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// FillRequest is the POST /v1/replica/fill body: it asks the receiving
// worker to pull every completed result in the shard from the source
// worker's store into its own — the replica fill that makes a hot
// shard's results readable from its rendezvous successor.
type FillRequest struct {
	// Source is the base URL of the worker to pull from (the shard's
	// owner).
	Source string `json:"source"`
	// Shard selects which virtual shard to fill; -1 means every shard
	// (full mirror).
	Shard int `json:"shard"`
	// Shards is the shard-space size the requester routed with; the
	// worker refuses a fill whose shard space disagrees with its own.
	Shards int `json:"shards"`
}

// FillResponse reports what a replica fill copied.
type FillResponse struct {
	// Flights is how many completed request manifests were inspected.
	Flights int `json:"flights"`
	// Objects is how many store objects were actually copied (already-
	// present keys are skipped).
	Objects int `json:"objects"`
}

// ManifestFlight is one completed request in a replication manifest: the
// request id, its shard, and the job keys whose store objects reproduce
// its result.
type ManifestFlight struct {
	ID    string   `json:"id"`
	Shard int      `json:"shard"`
	Keys  []string `json:"keys"`
}

// ManifestDoc is the GET /v1/replica/manifest response body.
type ManifestDoc struct {
	Worker    string           `json:"worker"`
	NumShards int              `json:"num_shards"`
	Flights   []ManifestFlight `json:"flights"`
}
