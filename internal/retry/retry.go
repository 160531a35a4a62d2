// Package retry is the repository's single retry policy: capped
// exponential backoff with seeded, deterministic jitter. Before it
// existed the tree had three divergent hand-rolled loops (the cluster
// health prober's doubling backoff, the rebalancer's replica-fill
// retry, and a client's Retry-After honoring); they all run through
// Policy now, so "how we retry" is one audited decision instead of
// three accidents.
//
// Determinism: the delay for attempt k is a pure function of
// (Policy, Seed, k) — the jitter stream is a splitmix64 mix of the
// seed and the attempt index, never math/rand and never the wall
// clock. Two processes configured with the same policy and seed
// compute byte-identical backoff schedules, which is what lets the
// chaos campaign replay a run exactly. The *waiting* is wall-clock by
// nature (that is the point of a backoff) and is the one waived
// non-determinism in this package.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy describes one retry discipline: up to MaxAttempts tries, the
// k-th failure waiting Delay(k) before the next try.
type Policy struct {
	// Base is the pre-jitter delay after the first failure; it doubles
	// each further failure. 0 means 50ms.
	Base time.Duration
	// Cap bounds the pre-jitter delay; 0 means 5s.
	Cap time.Duration
	// MaxAttempts is the total number of tries, including the first;
	// 0 means 4.
	MaxAttempts int
	// Jitter is the fraction of each delay that is randomized (0..1):
	// the delay for attempt k is d*(1-Jitter) + d*Jitter*u(k) with
	// u(k) drawn from the seeded stream. Negative means no jitter;
	// 0 means the 0.25 default.
	Jitter float64
	// Seed keys the jitter stream. The same (Policy, Seed) always
	// yields the same schedule; derive per-site seeds from stable
	// identity (a worker id hash, a request index), never the clock.
	Seed uint64
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 5 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	switch {
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter == 0:
		p.Jitter = 0.25
	case p.Jitter > 1:
		p.Jitter = 1
	}
	return p
}

// mix64 is a splitmix64 finalizer: a pure bijective scramble used to
// derive the per-attempt jitter draw from (seed, attempt).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a 64-bit draw onto [0, 1).
func unit(x uint64) float64 {
	return float64(x>>11) / float64(uint64(1)<<53)
}

// Delay returns the wait before try attempt+2 — i.e. Delay(0) is the
// pause after the first failure. It is a pure function: capped
// exponential growth from Base, with the Jitter fraction drawn from
// the seeded stream.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 0 {
		attempt = 0
	}
	d := p.Base
	for i := 0; i < attempt && d < p.Cap; i++ {
		d *= 2
	}
	if d > p.Cap {
		d = p.Cap
	}
	if p.Jitter == 0 {
		return d
	}
	u := unit(mix64(p.Seed ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15))
	return time.Duration(float64(d) * ((1 - p.Jitter) + p.Jitter*u))
}

// AfterError carries a server-supplied retry hint (a 429/503
// Retry-After header): when an attempt fails with one, Do waits the
// hinted duration instead of the computed backoff.
type AfterError struct {
	// After is how long the server asked us to wait.
	After time.Duration
	// Err is the underlying failure.
	Err error
}

func (e *AfterError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("retry after %v", e.After)
	}
	return e.Err.Error()
}

func (e *AfterError) Unwrap() error { return e.Err }

// PermanentError marks a failure retrying cannot fix; Do stops
// immediately and returns the wrapped error.
type PermanentError struct{ Err error }

func (e *PermanentError) Error() string { return e.Err.Error() }
func (e *PermanentError) Unwrap() error { return e.Err }

// Permanent wraps err so Do gives up on it immediately (a 400, an
// invalid spec, a closed store — anything deterministic).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &PermanentError{Err: err}
}

// Do runs op under the policy: up to MaxAttempts tries, waiting
// Delay(k) (or the op's AfterError hint) between them, bailing out the
// moment ctx is cancelled or op fails permanently. It returns nil on
// the first success, ctx.Err() on cancellation, and the last attempt's
// error once the budget is spent.
func Do(ctx context.Context, p Policy, op func(context.Context) error) error {
	p = p.withDefaults()
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := p.Delay(attempt - 1)
			var hint *AfterError
			if errors.As(err, &hint) && hint.After > 0 {
				wait = hint.After
			}
			if serr := sleep(ctx, wait); serr != nil {
				return serr
			}
		}
		if err = op(ctx); err == nil {
			return nil
		}
		var perm *PermanentError
		if errors.As(err, &perm) {
			return perm.Err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return err
}

// sleep waits for d or until ctx is cancelled. The backoff wait is the
// one place this package touches wall time; no simulation result ever
// depends on it.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	//lint:ignore determinism backoff waiting is wall-clock by definition; the schedule itself is seed-derived
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
