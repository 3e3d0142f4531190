#!/bin/sh
# Paired micro-benchmark comparison of two revisions: builds the root
# package's test binary at PARENT and at CHANGE, then runs the selected
# `go test -bench` benchmarks N times on each, alternating which side
# goes first, so drift of the host hits both sides alike. For each
# benchmark it prints the parent's ns/op quartiles, the change's
# median, the change/parent ratio of the medians, and in how many of
# the N pairs the change was the faster side. A change inside the
# parent's quartile spread is noise; claim a speed-up only from
# benchmark/run.sh pairs (benchmark/README.md).
#
# Usage:
#   scripts/pair.sh [-n 10] [-bench RE] [-benchtime T] PARENT CHANGE
#
# PARENT and CHANGE are any git revisions (HEAD HEAD measures the
# noise floor). Each is exported with `git archive` into a temporary
# directory, so uncommitted edits are not measured and the repository
# is left untouched.
set -eu

n=10
bench='BenchmarkAdderKernel$|BenchmarkAdderSharded$|BenchmarkSplitterSharded$|BenchmarkSplitterStage$'
benchtime=1s
while [ $# -gt 2 ]; do
    case "$1" in
    -n) n="$2"; shift 2 ;;
    -bench) bench="$2"; shift 2 ;;
    -benchtime) benchtime="$2"; shift 2 ;;
    *) echo "pair.sh: unknown flag $1" >&2; exit 2 ;;
    esac
done
case "$n" in '' | *[!0-9]* | 0) set -- ;; esac
if [ $# -ne 2 ]; then
    echo "usage: scripts/pair.sh [-n 10] [-bench RE] [-benchtime T] PARENT CHANGE" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for side in parent change; do
    rev="$1"
    shift
    mkdir "$tmp/$side"
    git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$tmp/$side"
    (cd "$tmp/$side" && go test -c -o "$tmp/$side.test" .)
done

# One line per measurement: side, benchmark, ns/op.
i=1
while [ "$i" -le "$n" ]; do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        (cd "$tmp/$side" && "$tmp/$side.test" -test.run '^$' -test.bench "$bench" -test.benchtime "$benchtime" -test.timeout 30m) |
            awk -v side="$side" '/^Benchmark/ { for (f = 3; f < NF; f++) if ($(f+1) == "ns/op") print side, $1, $f }' >>"$tmp/samples"
    done
    i=$((i + 1))
done

awk -v n="$n" '
function sortv(a, k,    i, j, t) {
    for (i = 2; i <= k; i++)
        for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function quant(a, k, q,    p, lo) {
    p = 1 + (k - 1) * q; lo = int(p)
    return lo >= k ? a[k] : a[lo] + (p - lo) * (a[lo+1] - a[lo])
}
{
    if (!($2 in seen)) { seen[$2] = 1; names[++nb] = $2 }
    m = ++cnt[$1, $2]; v[$1, $2, m] = $3
}
END {
    printf "%-40s %12s %12s %12s %12s %7s %5s\n", "benchmark", "parent_q1", "parent_med", "parent_q3", "change_med", "ratio", "led"
    for (b = 1; b <= nb; b++) {
        name = names[b]; k = cnt["parent", name]
        if (k != cnt["change", name]) { printf "%-40s unpaired samples\n", name; continue }
        led = 0
        for (i = 1; i <= k; i++) {
            p[i] = v["parent", name, i]; c[i] = v["change", name, i]
            if (c[i] < p[i]) led++
        }
        sortv(p, k); sortv(c, k)
        pm = quant(p, k, 0.5); cm = quant(c, k, 0.5)
        printf "%-40s %12.0f %12.0f %12.0f %12.0f %7.3f %2d/%-2d\n", name, quant(p, k, 0.25), pm, quant(p, k, 0.75), cm, cm / pm, led, k
    }
}' "$tmp/samples"
