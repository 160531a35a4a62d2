# Makefile — thin entry points over the go tool; `make check` is the CI
# gate (see scripts/check.sh for the individual stages).

GO ?= go

.PHONY: check build test race lint fuzz modelcheck fault bench bench-compare bench-pairs bench-gate serve cluster chaos profile fmt loc

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repo-local analyzers (determinism, phaseaudit) over the
# whole module: lint.TestModuleIsClean, the same test the gate runs in
# stage 4. It fails with one line per finding, or on a package that does
# not load.
lint:
	$(GO) test ./internal/lint -run TestModuleIsClean -count=1

# fuzz runs the protocol-step fuzzer for a bounded minute; CI runs only
# the checked-in seeds (via `make test`).
fuzz:
	$(GO) test ./internal/coherence -run FuzzProtocolStep -fuzz FuzzProtocolStep -fuzztime 60s

# modelcheck prints the full default sweep (every protocol, 2..5 caches);
# `go test ./cmd/modelcheck` compares it with the recorded counts.
modelcheck:
	$(GO) run ./cmd/modelcheck -all

# fault runs the default S23 fault-injection campaign and prints the
# per-protocol resilience matrix.
fault:
	$(GO) run ./cmd/faultcampaign

# bench runs the one measurement harness (BENCHMARK.json, benchmark/):
# every workload, three runs each, all metrics to bench.json.
# bench-compare A=old.json B=new.json exits 1 on a regression beyond a
# bound or a changed simulated count.
bench:
	$(GO) run -C benchmark repro/benchmark -workload all -runs 3 -out $(CURDIR)/bench.json

bench-compare:
	$(GO) run -C benchmark repro/benchmark -compare $(abspath $(A)) $(abspath $(B))

# bench-pairs W=<workload> [PARENT=<rev>] [N=10] is the measurement a
# performance claim rests on: N alternated runs of PARENT (default HEAD)
# and of the working tree, quartiles and wins per end-to-end metric.
bench-pairs:
	sh scripts/pairs.sh $(W) $(or $(PARENT),HEAD) $(or $(N),10)

# bench-gate [BASE=<rev>] is check.sh's benchmark gate: bench-pairs at
# N = 7 and 3 s runs, on one CPU and on all, over the workloads whose
# packages the change reaches; it fails only on a `worse` row past its
# metric's bound (scripts/gate.sh).
bench-gate:
	sh scripts/gate.sh $(BASE)

# serve runs the S24 simulation-as-a-service daemon on its default
# loopback port with an on-disk result store.
serve:
	$(GO) run ./cmd/mimdserved -cache-dir .servecache

# cluster runs the S25 tier self-contained: a router on its default port
# with three in-process workers. Point curl at it.
cluster:
	$(GO) run ./cmd/mimdrouter -spawn 3

# chaos runs the S27 chaos campaign over every fault class at every
# intensity and prints the masked/degraded/failed matrix.
chaos:
	$(GO) run ./cmd/chaoscampaign -intensities low,default,high

# profile cross-validates the online miss-ratio-curve profiler against
# the offline stack algorithm: every protocol x 3 seeds, exact.
profile:
	$(GO) test ./internal/mrc -run TestOnlineMatchesOffline

fmt:
	gofmt -w .

# loc prints the sizes ROADMAP quotes ("lines removed at constant
# goldens"): every line of non-test Go outside benchmark/ (lint fixtures
# under testdata/ included), test lines separately so that code moved
# into _test.go files is not mistaken for code removed, then package,
# binary (every directory outside benchmark/ that holds a package main,
# wherever it sits) and CI stage counts, and the cmd/ and internal/
# packages that have no test.
loc:
	@printf 'non-test Go lines outside benchmark/: '; find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l
	@printf 'test Go lines outside benchmark/:     '; find . -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l
	@printf 'internal packages:                    '; ls -d internal/*/ | wc -l
	@printf 'binaries:                             '; grep -rl --include='*.go' '^package main$$' . | grep -v '^./benchmark/' | xargs -n1 dirname | sort -u | wc -l
	@printf 'check.sh stages:                      '; grep '^echo "==> ' scripts/check.sh | grep -vc 'all checks passed'
	@printf 'cmd/ packages without a _test.go:    '; for d in cmd/*/; do ls $$d*_test.go >/dev/null 2>&1 || printf ' %s' $$(basename $$d); done; echo
	@printf 'internal/ packages without a _test.go:'; for d in internal/*/; do ls $$d*_test.go >/dev/null 2>&1 || printf ' %s' $$(basename $$d); done; echo
