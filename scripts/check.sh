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
#                  internal/check) and the module's own analyzers over the
#                  whole tree (internal/lint's TestModuleIsClean and
#                  TestAuditRegisteredProtocolsClean; `make lint` is the
#                  same pass for people)
#   5. allocs      the steady-state zero-allocation regressions, the
#                  repository's only alloc gate (the machine pin runs
#                  RB/RWB at 1-130 PEs, the three core-* machines,
#                  TS/TTS spin locks fused and two-phase on 2-way caches
#                  and two buses, the TTS ones and core-sync with a PE
#                  parked, and 64 PEs on 4-way caches, four buses
#                  and memory latency 3; only mrc pins its own loop),
#                  the bytes one machine construction
#                  allocates, the stream-identity golden over 5 M references of grown
#                  LRU stacks, the bus-trace golden of 65-130 PE
#                  machines, the request-line phase's exact visit
#                  count and the CPU phase's exact agent Next calls
#                  (parked spinners make none) on two core machines,
#                  and the scale-10 machine
#                  oracle of the Cm* stream pass (run without the race
#                  detector, whose instrumentation allocates and is 10x
#                  slower; the -race pass above skips them). The
#                  profiler's alloc pin and
#                  its feed tests (exact reads at every buffer state, no
#                  drain goroutine outliving its chunk) run at -cpu 1,2,
#                  so the drain both shares the machine's core and has
#                  one of its own; so does the sweep engine's dispatch
#                  test, since two workers must overlap even on one core
#   6. benchmark   the measurement harness is a module of its own that
#                  ./... never reaches: vet and test it, then run all
#                  seven workloads at 1/200 size with every correctness
#                  check on (checks, not measurements)
set -eu
cd "$(dirname "$0")/.."

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

echo "==> allocs/cycle regression"
go test -run 'SteadyState.*AllocFree|ConstructionBytes|StreamIdentity|TraceGoldenAbove64PEs|NewsVisitsPerCycle|NextCallsPerCycle|CmStarOracleScale10' -count=1 ./internal/machine ./internal/workload ./internal/experiments
go test -run 'SteadyState.*AllocFree|AttachSettlesAtEveryRead|AttachLeavesNoGoroutine' -cpu 1,2 -count=1 ./internal/mrc
go test -run 'DispatchRunsJobsNotGroups' -cpu 1,2 -count=1 ./internal/sweep

echo "==> benchmark harness"
(cd benchmark && go vet . && go test .)
go run -C benchmark repro/benchmark -workload all -smoke

echo "==> all checks passed"
