#!/bin/sh
# check.sh — the repository's single CI entry point. Every gate below
# must pass before merging; `make check` runs this script.
#
#   1. gofmt       formatting is canonical
#   2. go vet      the stock static checks
#   3. go build    everything compiles
#   4. go test     the full suite (fuzz seeds included) under the race
#                  detector at GOMAXPROCS = NumCPU: the one behavioural
#                  gate. Sweep, fault-campaign, serve, router,
#                  chaos-campaign and profiler determinism are ordinary
#                  tests in their packages, and so are the Section 4
#                  product-machine proof over every protocol at n = 2..5
#                  caches with its reachable states pinned (cmd/modelcheck,
#                  internal/check), the module's own analyzers
#                  (determinism and phaseaudit) over the whole tree
#                  (internal/lint's TestModuleIsClean, their only front
#                  end; `make lint` runs it alone) and the audit of
#                  every protocol table's arcs (internal/coherence's
#                  TestAuditRegisteredProtocolsClean: every registered
#                  table and RWB at k = 2-8); so are the paper's claims
#                  (internal/experiments' TestClaims: one data row per
#                  claim, read off each experiment's rendered table in
#                  one pass at seeds 1-4), EXPERIMENTS.md's generated
#                  blocks (TestExperimentsDoc) and the test names the
#                  docs cite (the root package's TestDocsCiteRealTests);
#                  the chaos matrix (one cell per
#                  class, two concurrent clients) runs again at -cpu 1,2,
#                  so its byte-identity bar holds on one core and on two,
#                  and so do serve's concurrent repeats of one id, over a
#                  good object and over one truncated under them (the
#                  store guard's race)
#   5. work        the steady-state zero-allocation regressions, the
#                  repository's only alloc gate (the machine pin runs
#                  RB/RWB at 1-130 PEs, the three core-* machines,
#                  TS/TTS spin locks fused and two-phase on 2-way caches
#                  and two buses, the TTS ones and core-sync with a PE
#                  parked, and 64 PEs on 4-way caches, four buses
#                  and memory latency 3; only mrc pins its own loop);
#                  the work ledger (machine.TestLedger against
#                  internal/machine/testdata/ledger.golden: bus, news and
#                  agent Next counts of the four core-* machines, the
#                  bytes one machine construction allocates, and the
#                  store and engine traffic of a sweep and of a serve
#                  request, cold and warm); the stream-identity golden
#                  over 5 M references of grown LRU stacks, the bus-trace
#                  golden of 65-130 PE machines, and the scale-10
#                  oracle of the Cm* stream pass (run without the race
#                  detector, whose instrumentation allocates and is 10x
#                  slower; the -race pass above skips them). The
#                  profiler's alloc pin and
#                  its feed tests (exact reads at every buffer state, no
#                  drain goroutine outliving its chunk) run at -cpu 1,2,
#                  so the drain both shares the machine's core and has
#                  one of its own; so does the sweep engine's dispatch
#                  test, since two workers must overlap even on one core.
#                  A package that matches no test fails the stage: go
#                  test passes a -run pattern that names nothing, so a
#                  renamed pin would otherwise leave the gate silently.
#   6. benchmark   the measurement harness is a module of its own that
#                  ./... never reaches: vet and test it, then run all
#                  seven workloads at 1/200 size with every correctness
#                  check on (checks, not measurements)
#   7. bench gate  scripts/gate.sh (`make bench-gate`): paired runs of
#                  the parent and the working tree (pairs.sh at N = 7,
#                  3 s a run) on each workload whose packages the change
#                  reaches, at GOMAXPROCS 1 and NumCPU; it fails only on
#                  a `worse` row whose median moved past the metric's
#                  BENCHMARK.json bound. Wall-time bound: 28 runs of
#                  5-10 s per reached workload on 2 vCPUs, about 4 minutes
#                  each and at most 30 minutes when all seven are
#                  reached; nothing when none is (a change to docs or
#                  tests only)
set -eu
cd "$(dirname "$0")/.."

# pins runs go test and fails if any package it runs reports
# "[no tests to run]".
pins() {
	out=$(go test "$@" 2>&1) && rc=0 || rc=$?
	echo "$out"
	[ "$rc" -eq 0 ] || exit "$rc"
	if echo "$out" | grep -q 'no tests to run'; then
		echo "check.sh: a package above matched no test of -run; a pin was renamed or deleted" >&2
		exit 1
	fi
}

echo "==> gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt: the following files are not canonically formatted:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...
pins -race -run 'CampaignSmoke' -cpu 1,2 -count=1 ./internal/chaos
pins -race -run '^TestConcurrentRepeatsIdentical$' -cpu 1,2 -count=1 ./internal/serve

echo "==> allocs/cycle and work ledger"
pins -run 'SteadyState.*AllocFree|Ledger|StreamIdentity|TraceGoldenAbove64PEs|CmStarOracleScale10' -count=1 ./internal/machine ./internal/workload ./internal/experiments
pins -run 'SteadyState.*AllocFree|AttachSettlesAtEveryRead|AttachLeavesNoGoroutine' -cpu 1,2 -count=1 ./internal/mrc
pins -run 'DispatchRunsJobsNotGroups' -cpu 1,2 -count=1 ./internal/sweep

echo "==> benchmark harness"
(cd benchmark && go vet . && go test .)
go run -C benchmark repro/benchmark -workload all -smoke

echo "==> benchmark gate"
sh scripts/gate.sh

echo "==> all checks passed"
