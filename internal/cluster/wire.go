package cluster

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Wire vocabulary shared by the router and by internal/serve (serve
// imports cluster, never the reverse): the shed/error answer both tiers
// give.

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
