#!/bin/sh
# pairs.sh — the paired measurement a performance claim rests on
# (`make bench-pairs`): PARENT against the working tree, on one workload
# of BENCHMARK.json.
#
#   scripts/pairs.sh WORKLOAD [PARENT] [N] [SECONDS] [CPUS]
#
# PARENT defaults to HEAD, N to 10, SECONDS to BENCHMARK.json's run
# length and CPUS to every CPU. PARENT is exported (git archive) into a
# temporary directory, each side's benchmark binary is built once, and N
# pairs of untraced runs follow: SECONDS each, on the first CPUS CPUs
# (taskset; the harness runs at GOMAXPROCS = its CPU count), the pair's
# number as the seed of both its runs, odd pairs running the parent first
# and even pairs the change. Per end-to-end metric it prints each side's
# quartiles and median, how many pairs the change won (ties count for
# neither), how far the change's median is from the parent's in the
# metric's bad direction, the metric's bound from BENCHMARK.json and a
# verdict; then the operations attempted and failed. The verdict is
# `gain` when the change wins at least nine tenths of the pairs and the
# medians differ by more than the parent's own q1..q3 distance, `worse`
# for the mirror of that (the parent wins nine tenths), `flat` otherwise:
# only `gain` may be claimed, and "no metric got worse" is no `worse`
# row. It reads benchmark/ and BENCHMARK.json and edits nothing.
set -eu
cd "$(dirname "$0")/.."

w=${1:?usage: scripts/pairs.sh WORKLOAD [PARENT] [N] [SECONDS] [CPUS]}
parent=${2:-HEAD}
n=${3:-10}
secs=${4:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)}
cpus=${5:-$(nproc)}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/parent" "$tmp/run"
git archive "$parent" | tar -x -C "$tmp/parent"
go build -C "$tmp/parent/benchmark" -o "$tmp/parent.bin" repro/benchmark
go build -C benchmark -o "$tmp/change.bin" repro/benchmark

# one prints "side pair" and the driver's line of one run.
one() {
	printf '%s %s ' "$1" "$2"
	(cd "$tmp/run" && taskset -c "0-$((cpus - 1))" "$tmp/$1.bin" -workload "$w" -seed "$2" -seconds "$secs" | tail -n 1)
}

i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		one "$side" "$i" >>"$tmp/lines"
	done
	echo "pair $i/$n done" >&2
	i=$((i + 1))
done

echo "$w: $n pairs, parent $(git rev-parse --short "$parent") against the working tree, ${secs} s a run on $cpus CPU(s), seeds 1..$n"
awk -v pairs="$n" '
function num(line, key,    s) {
	s = line; sub(".*\"" key "\":(\\{\"value\":)?", "", s); sub("[,}].*", "", s); return s + 0
}
# quantile of v[1..pairs] by linear interpolation between order statistics
function quantile(v, q,    i, j, t, s, pos, lo) {
	for (i = 1; i <= pairs; i++) s[i] = v[i]
	for (i = 2; i <= pairs; i++) for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
	pos = 1 + (pairs - 1) * q; lo = int(pos)
	return lo >= pairs ? s[pairs] : s[lo] + (pos - lo) * (s[lo+1] - s[lo])
}
FNR == NR {
	if ($0 ~ /"end_to_end"/) on = 1
	else if (on && $0 ~ /\]/) on = 0
	else if (on && $0 ~ /"name"/) { m++; name[m] = $0; gsub(/.*: *"|".*/, "", name[m]) }
	else if (on && $0 ~ /"better"/) higher[m] = ($0 ~ /higher/)
	else if (on && $0 ~ /"bound"/) { bound[m] = $0; gsub(/.*: *|,.*/, "", bound[m]) }
	next
}
{
	side = $1; pair = $2
	attempted[side] += num($0, "attempted"); failed[side] += num($0, "failed")
	if ($0 !~ /"correct":true/) wrong[side]++
	for (k = 1; k <= m; k++) val[side, k, pair] = num($0, name[k])
}
END {
	printf "%-12s %-7s %-32s %-32s %-12s %-9s %-6s %s\n", "metric", "better", "parent q1 / median / q3", "change q1 / median / q3", "change wins", "worse by", "bound", "verdict"
	for (k = 1; k <= m; k++) {
		wins = losses = 0
		for (p = 1; p <= pairs; p++) {
			a[p] = val["parent", k, p]; b[p] = val["change", k, p]
			if (higher[k] ? b[p] > a[p] : b[p] < a[p]) wins++
			else if (a[p] != b[p]) losses++
		}
		a1 = quantile(a, .25); a2 = quantile(a, .5); a3 = quantile(a, .75); b2 = quantile(b, .5)
		better = higher[k] ? b2 - a2 : a2 - b2
		verdict = "flat"
		if (10 * wins >= 9 * pairs && better > a3 - a1) verdict = "gain"
		else if (10 * losses >= 9 * pairs && -better > a3 - a1) verdict = "worse"
		printf "%-12s %-7s %-32s %-32s %-12s %-9s %-6s %s\n", name[k], higher[k] ? "higher" : "lower",
			sprintf("%.4g / %.4g / %.4g", a1, a2, a3),
			sprintf("%.4g / %.4g / %.4g", quantile(b, .25), b2, quantile(b, .75)), wins "/" pairs,
			sprintf("%+.1f%%", a2 != 0 ? -100 * better / a2 : 0), sprintf("%g%%", 100 * bound[k]), verdict
	}
	printf "failed: parent %d of %d, change %d of %d; runs not correct: parent %d, change %d\n",
		failed["parent"], attempted["parent"], failed["change"], attempted["change"], wrong["parent"], wrong["change"]
}' BENCHMARK.json "$tmp/lines"
