// Package chaos is the cluster-tier analog of internal/fault: a seeded,
// deterministic fault-plan layer over the fleet's HTTP transport. Where
// the S23 layer perturbs buses, memories, and caches inside one
// simulator and classifies each trial against a byte-identity oracle,
// this layer perturbs the *distributed* machine — connections refused,
// latency spikes, responses truncated mid-frame, 5xx bursts, workers
// paused or crashed — and the campaign (Run, campaign.go) drives
// concurrent clients through a fleet under each plan and classifies
// whole traffic runs masked/degraded/failed against the fault-free
// single-node oracle.
//
// Every fault is a pure function of (seed, class, intensity, request
// index, round trip within the request): the same plan replays the same
// faults on the same requests forever, however the concurrent clients
// interleave, so a campaign cell is as reproducible as a fault-injection
// trial. No math/rand, no wall clock — the determinism analyzer holds
// this package to the same standard as the simulator, and the protolint
// fixture pair (seed-derived plan vs time-seeded plan) pins the idiom.
package chaos

import (
	"fmt"
	"time"
)

// Class enumerates the injectable cluster fault classes.
type Class uint8

const (
	// ConnRefuse fails the dial outright: the worker looks down for
	// exactly one proxy attempt — the transient network partition.
	ConnRefuse Class = iota
	// Latency delays the response by a plan-chosen amount — the slow
	// worker / congested link, kept far under the attempt timeout.
	Latency
	// Truncate cuts the response body short with a clean EOF —
	// including mid-SSE-frame — exactly the failure a stream consumer
	// mistakes for a short-but-complete result unless it checks for
	// the terminal end frame.
	Truncate
	// Burst5xx replaces runs of consecutive responses with gateway-ish
	// 5xx statuses (503 with Retry-After, bare 502) — the overloaded or
	// misbehaving worker the router's 5xx failover absorbs.
	Burst5xx
	// WorkerPause freezes a worker process for a stretch of the request
	// stream: connections are accepted but nothing answers (the SIGSTOP
	// / GC-death profile). Served through the process schedule, not the
	// transport.
	WorkerPause
	// WorkerCrash kills a worker and restarts it later in the stream
	// with its store intact — the rolling-restart / OOM-kill profile.
	// Served through the process schedule, not the transport.
	WorkerCrash
	numClasses
)

// String returns the class's kebab-case name (the campaign cell-id and
// CLI vocabulary).
func (c Class) String() string {
	switch c {
	case ConnRefuse:
		return "conn-refuse"
	case Latency:
		return "latency"
	case Truncate:
		return "truncate"
	case Burst5xx:
		return "burst-5xx"
	case WorkerPause:
		return "worker-pause"
	case WorkerCrash:
		return "worker-crash"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Classes returns every chaos class in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// ParseClass resolves a kebab-case class name.
func ParseClass(name string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown class %q (have %v)", name, Classes())
}

// Process reports whether the class is injected through the process
// schedule (pause/crash of whole workers) rather than the transport.
func (c Class) Process() bool { return c == WorkerPause || c == WorkerCrash }

// Intensity scales how often (and how hard) a plan injects.
type Intensity uint8

const (
	// Low injects rarely — the background-noise regime.
	Low Intensity = iota
	// Default is the campaign's standard regime: frequent enough that
	// every run sees faults, sparse enough that a fleet that fails over
	// keeps its contract.
	Default
	// High injects aggressively — the regime where degradation (shed
	// load, retries) is expected and only contract violations count as
	// failure.
	High
	numIntensities
)

// String returns the intensity's name.
func (i Intensity) String() string {
	switch i {
	case Low:
		return "low"
	case Default:
		return "default"
	case High:
		return "high"
	}
	return fmt.Sprintf("Intensity(%d)", uint8(i))
}

// Intensities returns every intensity in ascending order.
func Intensities() []Intensity {
	out := make([]Intensity, numIntensities)
	for i := range out {
		out[i] = Intensity(i)
	}
	return out
}

// ParseIntensity resolves an intensity name.
func ParseIntensity(name string) (Intensity, error) {
	for _, i := range Intensities() {
		if i.String() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown intensity %q (have %v)", name, Intensities())
}

// rate is the per-request injection probability in 1/1024ths.
func (i Intensity) rate() uint64 {
	switch i {
	case Low:
		return 51 // ~5%
	case High:
		return 358 // ~35%
	default:
		return 154 // ~15%
	}
}

// Plan is one cell's fault schedule, keyed by (seed, class,
// intensity). It carries no mutable state: every decision is computed
// on demand from the key and a position in the traffic.
type Plan struct {
	Seed      uint64
	Class     Class
	Intensity Intensity
}

// Decision is what the plan injects for one transport request.
type Decision struct {
	// Refuse fails the dial (connection refused).
	Refuse bool
	// Delay postpones the response by this much.
	Delay time.Duration
	// TruncateAfter, when positive, cuts the response body short with a
	// clean EOF after this many bytes.
	TruncateAfter int
	// Code, when non-zero, replaces the response with this status
	// (503 carries a Retry-After hint; 502 is bare).
	Code int
}

// Faulty reports whether the decision injects anything.
func (d Decision) Faulty() bool {
	return d.Refuse || d.Delay > 0 || d.TruncateAfter > 0 || d.Code != 0
}

// mix64 is a splitmix64 finalizer — the same pure scramble the sweep
// and fault layers use to derive independent streams from one seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw derives the n-th 64-bit value of the plan's stream at position
// (a, b): a pure function of (seed, class, intensity, a, b, n).
func (p Plan) draw(a, b, n uint64) uint64 {
	key := p.Seed
	key = mix64(key ^ uint64(p.Class)<<8 ^ uint64(p.Intensity))
	key = mix64(key ^ a*0x9e3779b97f4a7c15)
	key = mix64(key ^ b*0xbf58476d1ce4e5b9)
	return mix64(key ^ n*0x94d049bb133111eb)
}

// burstLen is how many consecutive round trips one Burst5xx granule
// spans.
const burstLen = 3

// Decide returns the injection for round trip call of traffic request
// request (both counted from 0; call counts every round trip made for
// the request, across its client retries). Process-level classes
// (WorkerPause, WorkerCrash) never inject at the transport; their
// schedule comes from ProcSchedule.
func (p Plan) Decide(request, call uint64) Decision {
	var d Decision
	if p.Class.Process() {
		return d
	}
	switch p.Class {
	case Burst5xx:
		// Burst membership is decided per granule of burstLen
		// consecutive round trips, so injected 5xxes arrive in runs.
		granule := call / burstLen
		if p.draw(request, granule, 0)%1024 < p.Intensity.rate() {
			if p.draw(request, granule, 1)%4 == 0 {
				d.Code = 502
			} else {
				d.Code = 503
			}
		}
	default:
		if p.draw(request, call, 0)%1024 >= p.Intensity.rate() {
			return d
		}
		switch p.Class {
		default:
			// Burst5xx and the process classes are handled above.
		case ConnRefuse:
			d.Refuse = true
		case Latency:
			// 20..120ms spike: visible next to a warm store hit, far
			// under any attempt timeout.
			d.Delay = time.Duration(20+p.draw(request, call, 1)%100) * time.Millisecond
		case Truncate:
			// Cut 16..271 bytes in: with SSE frames ~40-80 bytes this
			// lands mid-frame as often as between frames, and always
			// before a long stream's terminal end frame.
			d.TruncateAfter = int(16 + p.draw(request, call, 1)%256)
		}
	}
	return d
}

// ProcEvent is one scheduled process-level fault: worker index Worker
// is paused or crashed for traffic requests At up to Until (exclusive),
// and resumed or restarted before request Until.
type ProcEvent struct {
	// At is the request index the fault fires before.
	At uint64
	// Until is the request index the fault heals before (resume or
	// restart). Until > At.
	Until uint64
	// Worker indexes into the fleet (0-based).
	Worker int
	// Pause selects freeze/resume; false means crash/restart.
	Pause bool
}

// ProcSchedule derives the deterministic pause/crash schedule for a
// traffic run of total requests over a fleet of workers. Faults are
// spaced so at most one worker is dark at a time — the campaign's
// contract is stated for fleets with at least two healthy workers
// remaining — and every fault heals before the run ends.
func (p Plan) ProcSchedule(total uint64, workers int) []ProcEvent {
	if !p.Class.Process() || workers < 2 || total < 8 {
		return nil
	}
	// One fault per "period" of the stream; period length shrinks as
	// intensity grows. Each fault darkens a worker for a quarter of its
	// period, healing well before the next fault fires.
	var period uint64
	switch p.Intensity {
	case Low:
		period = total
	case High:
		period = total / 4
	default:
		period = total / 2
	}
	if period < 8 {
		period = 8
	}
	var events []ProcEvent
	for n, start := uint64(0), uint64(0); start+period <= total; n, start = n+1, start+period {
		at := start + 1 + p.draw(0, n, 0)%(period/2)
		dur := 2 + p.draw(0, n, 1)%(period/4+1)
		until := at + dur
		if until >= total {
			until = total - 1
		}
		if until <= at {
			continue
		}
		events = append(events, ProcEvent{
			At:     at,
			Until:  until,
			Worker: int(p.draw(0, n, 2) % uint64(workers)),
			Pause:  p.Class == WorkerPause,
		})
	}
	return events
}
