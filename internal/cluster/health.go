package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"repro/internal/retry"
)

// probeLoop runs the active health checker until ctx is cancelled:
// every ProbeInterval each declared worker is probed (with bounded
// retry + backoff inside the round, via the shared retry policy), and
// FailThreshold consecutive failed rounds mark it dead. A dead worker
// keeps being probed, so recovery is detected and the membership
// version bumps back. Routing additionally marks workers down passively
// on proxy errors — the prober is what brings them back.
func (r *Router) probeLoop(ctx context.Context) {
	//lint:ignore determinism health probing is wall-clock observability; no simulation result depends on it
	ticker := time.NewTicker(r.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce runs one probe round over the whole fleet (exported so tests
// and the chaos campaign can drive failure detection deterministically). A
// probe round is also the circuit breakers' clock tick: open circuits
// cool down in rounds, not wall time, so breaker recovery is as
// deterministic as the probing that drives it.
func (r *Router) ProbeOnce(ctx context.Context) {
	for _, wk := range r.members.Workers() {
		if r.probeWorker(ctx, wk.URL) {
			r.members.MarkUp(wk.ID)
			continue
		}
		if r.members.Fail(wk.ID) >= r.opts.FailThreshold {
			r.members.MarkDown(wk.ID)
		}
	}
	r.breakers.Tick()
}

// probePolicy builds one worker's probe retry policy: bounded attempts
// with capped backoff, the jitter stream keyed by the worker's URL so
// a fleet of probers doesn't thunder in lockstep yet every round's
// schedule is reproducible.
func (r *Router) probePolicy(url string) retry.Policy {
	h := fnv.New64a()
	h.Write([]byte(url))
	return retry.Policy{
		Base:        r.opts.ProbeBackoff,
		Cap:         8 * r.opts.ProbeBackoff,
		MaxAttempts: r.opts.ProbeRetries + 1,
		Seed:        h.Sum64(),
	}
}

// probeWorker runs one probe round against the worker's /healthz under
// the shared retry policy. Only a 200 counts as healthy: a draining
// worker (503) must stop receiving submissions just like a dead one.
func (r *Router) probeWorker(ctx context.Context, url string) bool {
	err := retry.Do(ctx, r.probePolicy(url), func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := r.probe.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		return nil
	})
	return err == nil
}
