#!/bin/sh
# End-to-end smoke of distributed imaging: run idgdistrib twice with 4
# exec'd idgworker processes — once clean, once with worker 2 killed
# mid-stream by an injected crash at a checkpoint rename — and require
# both runs to print the SAME final grid SHA-256. Workers grid their
# partitions serially and the reduction tree's associativity is fixed,
# so a killed worker that resumes from its checkpoint must not change
# a single output bit; the chaos run must also report exactly one
# restart. The pair runs twice: on the rows axis, and on the W-planes
# axis of a W-stacked observation (40-wavelength layers), whose
# workers checkpoint at every W-layer end.
set -eux

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

go build -o "$workdir/idgworker" ./cmd/idgworker
go build -o "$workdir/idgdistrib" ./cmd/idgdistrib

obs="-stations 8 -steps 32 -channels 2 -grid 128 -subgrid 16 -support 4 -margin 16 -aterm-interval 16 -sources 3"

# pair NAME ARGS...: a clean 4-worker pass, then a chaos pass whose
# worker 2 dies at its first checkpoint rename and is relaunched by
# the coordinator with -resume; both must print the same SHA-256.
pair() {
    name="$1"
    shift
    "$workdir/idgdistrib" -worker-bin "$workdir/idgworker" \
        -workers 4 -chunk-items 4 $obs "$@" \
        -json >"$workdir/$name-clean.json"
    "$workdir/idgdistrib" -worker-bin "$workdir/idgworker" \
        -workers 4 -chunk-items 4 $obs "$@" \
        -checkpoint-root "$workdir/ckpt-$name" -checkpoint-every 2 \
        -kill 2:before-rename \
        -json >"$workdir/$name-chaos.json"

    clean_sha="$(sed -n 's/.*"sha256": "\([0-9a-f]*\)".*/\1/p' "$workdir/$name-clean.json")"
    chaos_sha="$(sed -n 's/.*"sha256": "\([0-9a-f]*\)".*/\1/p' "$workdir/$name-chaos.json")"
    restarts="$(sed -n 's/.*"restarts": \([0-9]*\).*/\1/p' "$workdir/$name-chaos.json")"

    test -n "$clean_sha"
    if [ "$clean_sha" != "$chaos_sha" ]; then
        echo "distrib_smoke: $name: killed-and-resumed run diverged: clean $clean_sha chaos $chaos_sha" >&2
        exit 1
    fi
    if [ "$restarts" != "1" ]; then
        echo "distrib_smoke: $name: expected exactly 1 restart, got '$restarts'" >&2
        exit 1
    fi
    echo "distrib_smoke: $name OK (sha256 $clean_sha, 1 worker killed and resumed)"
}

pair rows -axis rows
pair wstacked -axis wplanes -wstep 40
