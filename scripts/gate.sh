#!/bin/sh
# gate.sh — the benchmark gate (`make bench-gate`, check.sh stage 7):
# scripts/pairs.sh, shortened, on every workload of BENCHMARK.json whose
# packages the change under review reaches.
#
#   scripts/gate.sh [BASE]
#
# The change under review is the working tree against BASE. BASE
# defaults to HEAD when the uncommitted change reaches a workload, else
# to HEAD's parent (the last commit is the change). A file reaches a
# workload when it is non-test Go in one of the packages the table below
# lists for it, or anything under benchmark/, BENCHMARK.json or go.mod
# (every workload). Each reached workload runs 7 pairs of 3 s runs
# (pairs.sh at N = 7, SECONDS = 3) twice: on one CPU and on all of them,
# so the harness runs at GOMAXPROCS 1 and NumCPU. It prints each table,
# and exits 1 only on a `worse` row whose median moved further in the
# metric's bad direction than the metric's BENCHMARK.json bound; at
# N = 7 a `worse` verdict needs all seven pairs lost. At N = 5 and 2 s a
# comment-only change read p25_ms `worse` by 25.0 % against a 25 % bound
# on cluster-skewed at one CPU, so the shorter setting could not tell a
# change from the noise.
#
# Wall time: 28 runs per reached workload of 5-10 s each on 2 vCPUs (the
# harness's set-up plus 3 s), so about 4 minutes a workload and at most
# 30 minutes with all seven reached; a change that reaches none costs
# nothing.
set -eu
cd "$(dirname "$0")/.."

# The workload -> package table, from the harness's imports (benchmark/
# core.go, sweepwl.go, servewl.go) and their `go list -deps` closure.
core="internal/bandwidth internal/bus internal/cache internal/coherence internal/machine internal/memory internal/processor internal/stats internal/workload"
sweep="$core internal/batch internal/experiments internal/hier internal/mrc internal/report internal/sweep internal/trace"
serve="$sweep internal/cluster internal/fault internal/metrics internal/retry internal/serve"
packages() {
	case $1 in
	core-saturated | core-private | core-sync) echo "$core" ;;
	core-profiled) echo "$core internal/mrc" ;;
	sweep-paper) echo "$sweep" ;;
	serve-mixed | cluster-skewed) echo "$serve" ;;
	esac
}
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)

# changed BASE lists the files the working tree changes against BASE.
changed() {
	{ git diff --name-only "$1" --; git ls-files --others --exclude-standard; } | sort -u
}

# reached FILES prints the workloads the files reach.
reached() {
	for w in $workloads; do
		for f in $1; do
			case $f in
			benchmark/* | BENCHMARK.json | go.mod) echo "$w"; break ;;
			*_test.go | */testdata/*) continue ;;
			*.go) ;;
			*) continue ;;
			esac
			if echo " $(packages "$w") " | grep -q " $(dirname "$f") "; then
				echo "$w"
				break
			fi
		done
	done
}

base=${1:-}
if [ -z "$base" ]; then
	base=HEAD
	if [ -z "$(reached "$(changed HEAD)")" ]; then
		base=HEAD~1
	fi
fi
if ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
	echo "gate: no commit $base to compare with; nothing to run"
	exit 0
fi
run=$(reached "$(changed "$base")")
if [ -z "$run" ]; then
	echo "gate: the change against $(git rev-parse --short "$base") reaches no workload; nothing to run"
	exit 0
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
trap 'exit 1' INT TERM
bad=0
for w in $run; do
	for cpus in $(printf '1\n%s\n' "$(nproc)" | sort -u); do
		sh scripts/pairs.sh "$w" "$base" 7 3 "$cpus" | tee "$out"
		if ! awk '$NF == "worse" { by = $(NF-2); b = $(NF-1); gsub(/[+%]/, "", by); gsub(/%/, "", b)
			if (by + 0 > b + 0) { print "gate: " $1 " is worse by " $(NF-2) ", past its bound " $(NF-1); bad = 1 } }
			END { exit bad }' "$out"; then
			bad=1
		fi
	done
done
exit "$bad"
