package chaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Stats counts what a Transport actually injected — the campaign
// cross-checks these against the plan so a cell that happened to draw
// no faults is reported as such rather than as a vacuous pass.
type Stats struct {
	Requests  uint64
	Refused   uint64
	Delayed   uint64
	Truncated uint64
	Coded     uint64
}

// Faults is the total number of injected faults.
func (s Stats) Faults() uint64 { return s.Refused + s.Delayed + s.Truncated + s.Coded }

// trafficRequest numbers one campaign request for the Transport: every
// round trip made under a context carrying it is the next call of
// request index. A request's round trips are sequential (the router
// walks its candidates one at a time, and a client retries only after
// the previous attempt answered), so the numbering is exact however
// other requests interleave.
type trafficRequest struct {
	index uint64
	calls atomic.Uint64
}

type trafficKey struct{}

func withTrafficRequest(ctx context.Context, r *trafficRequest) context.Context {
	return context.WithValue(ctx, trafficKey{}, r)
}

// Transport wraps an http.RoundTripper with a Plan: each round trip
// suffers whatever the plan decided for its (request, call) position —
// taken from the campaign's tag on the request context; an untagged
// round trip is call 0 of request 0. The fleet under test never knows —
// refusals look like dial errors, injected 5xxes look like gateway
// responses, truncations look like clean short bodies.
type Transport struct {
	// Base performs the real round trip; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
	// Plan is the fault schedule.
	Plan Plan

	requests  atomic.Uint64
	refused   atomic.Uint64
	delayed   atomic.Uint64
	truncated atomic.Uint64
	coded     atomic.Uint64
}

// Stats returns a snapshot of the injection counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests:  t.requests.Load(),
		Refused:   t.refused.Load(),
		Delayed:   t.delayed.Load(),
		Truncated: t.truncated.Load(),
		Coded:     t.coded.Load(),
	}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var request, call uint64
	if tr, ok := req.Context().Value(trafficKey{}).(*trafficRequest); ok {
		request, call = tr.index, tr.calls.Add(1)-1
	}
	t.requests.Add(1)
	d := t.Plan.Decide(request, call)

	if d.Refuse {
		t.refused.Add(1)
		return nil, fmt.Errorf("chaos: connect %s: connection refused (plan request %d call %d)", req.URL.Host, request, call)
	}
	if d.Code != 0 {
		// The request never reaches the worker: a synthesized gateway
		// error has no side effects, so a later retry of the same
		// content-hash id replays cleanly.
		t.coded.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		h := make(http.Header)
		h.Set("Content-Type", "text/plain; charset=utf-8")
		if d.Code == http.StatusServiceUnavailable {
			h.Set("Retry-After", strconv.Itoa(1))
		}
		body := fmt.Sprintf("chaos: injected %d (plan request %d call %d)\n", d.Code, request, call)
		return &http.Response{
			Status:        fmt.Sprintf("%d %s", d.Code, http.StatusText(d.Code)),
			StatusCode:    d.Code,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        h,
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	if d.Delay > 0 {
		t.delayed.Add(1)
		//lint:ignore determinism the injected latency spike is a real wall-clock delay by design; its duration is plan-derived
		timer := time.NewTimer(d.Delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}

	resp, err := t.base().RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if d.TruncateAfter > 0 {
		t.truncated.Add(1)
		resp.Body = &truncatingBody{rc: resp.Body, remain: d.TruncateAfter}
		// Content-Length (when the worker sent one) stays intact: a real
		// mid-body cut happens after the headers are on the wire, so a
		// length-checking consumer CAN catch the short read on plain
		// responses. The seeded bug lives in streams, which carry no
		// Content-Length and end in a clean EOF mid-frame.
	}
	return resp, nil
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// truncatingBody cuts a response body short with a clean io.EOF after
// remain bytes — deliberately indistinguishable from a complete short
// body, which is the seeded bug: a consumer that does not check for the
// terminal end frame accepts the cut stream as a clean result.
type truncatingBody struct {
	rc     io.ReadCloser
	remain int
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, io.EOF
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= n
	if err == nil && b.remain <= 0 {
		err = io.EOF
	}
	return n, err
}

func (b *truncatingBody) Close() error { return b.rc.Close() }
