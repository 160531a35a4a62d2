package serve

import (
	"crypto/sha256"

	"repro/internal/sweep"
)

// flight is one in-flight (or recently completed) execution of a
// request id. Concurrent identical submissions attach to the same
// flight — the singleflight that keeps N clients asking the same
// question from running the engine N times — and every waiter reads the
// same response once done closes.
type flight struct {
	id  string
	req *request
	// hub carries the engine's progress events: live while the flight
	// runs, a full replay afterwards.
	hub *sweep.Hub
	// done closes after resp and code are set.
	done chan struct{}
	resp Response
	code int
	// kept is set when the flight answered wholly from the store.
	kept *kept
	// answers counts the id's answers in the completed-flight window
	// (Server.answered); guarded by Server.mu.
	answers int
}

// kept is a store-served flight's answer as the sync door writes it,
// with the SHA-256 of each job payload it was built from, in job order.
// The request id hashes the jobs' version-salted keys, so the answer is
// a pure function of the id and those payloads: a repeat whose payloads
// re-read and hash the same may send body as it is (Server.repeat).
type kept struct {
	body   []byte
	sums   [][sha256.Size]byte
	silent int // fault campaigns' silent divergences, for the counter
}

func newFlight(req *request) *flight {
	return &flight{
		id:   req.id,
		req:  req,
		hub:  sweep.NewHub(),
		done: make(chan struct{}),
	}
}

// finished reports whether the flight has resolved.
func (f *flight) finished() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}
