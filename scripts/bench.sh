#!/bin/sh
# Perf-regression harness: run the repo's benchmarks and write a
# deterministic JSON snapshot (sorted keys, normalized names) named after
# the current revision. Optionally measure a base revision side by side
# with the working tree. To compare two existing snapshots, run
# `go run ./cmd/fpbbench -compare OLD NEW`.
#
# Usage:
#   scripts/bench.sh [-quick] [-out FILE] [-against REV]
#
#   -quick      microbenchmark subset only (seconds, for CI smoke); the
#               default also runs the Fig. 18 end-to-end benchmark.
#   -out FILE   snapshot path (default BENCH_<rev>.json in the repo root)
#   -against REV
#               measure REV and the working tree on this host in one run:
#               build both sides' benchmark binaries (REV from a temporary
#               git worktree), run them in alternating rounds, each round
#               flipping which side goes first, so host load falls on both
#               alike. Microbenchmarks run at -test.cpu 1: on a small
#               shared host, the default GOMAXPROCS spreads medians far
#               more than any change under test. Writes REV's snapshot to
#               FILE with .base before .json, the working tree's to FILE,
#               and compares them.
# Regressions are reported but do not fail the script (CI treats them as
# warnings; pass judgement in review). Temporary files go under $TMPDIR.
set -eu
cd "$(dirname "$0")/.."

QUICK=0
OUT=""
AGAINST=""
usage() {
    echo "usage: $0 [-quick] [-out FILE] [-against REV]" >&2
    exit 2
}
while [ $# -gt 0 ]; do
    case "$1" in
    -quick) QUICK=1 ;;
    -out)
        OUT="$2"
        shift
        ;;
    -against)
        AGAINST="$2"
        shift
        ;;
    *) usage ;;
    esac
    shift
done

# Staleness check: warn when the committed bench/ snapshots predate the
# newest commit touching a perf-relevant tree — baselines go stale silently
# otherwise, and -compare then flags phantom regressions (or misses real
# ones). Warning only: measuring is still the right move, that's what this
# script is for.
PERF_PATHS="internal/sim internal/pcm internal/power internal/cache internal/mem internal/core internal/cpu internal/system cmd/fpbbench"
if git rev-parse --git-dir >/dev/null 2>&1; then
    # shellcheck disable=SC2086 # PERF_PATHS is a deliberate word list
    LAST_PERF=$(git log -1 --format=%ct HEAD -- $PERF_PATHS 2>/dev/null || true)
    LAST_SNAP=$(git log -1 --format=%ct HEAD -- bench/ 2>/dev/null || true)
    if [ -n "${LAST_PERF:-}" ] && [ "${LAST_SNAP:-0}" -lt "$LAST_PERF" ]; then
        echo "bench.sh: WARNING: newest bench/ snapshot ($(date -d "@${LAST_SNAP:-0}" +%F 2>/dev/null || echo never)) predates the newest perf-touching commit ($(date -d "@$LAST_PERF" +%F 2>/dev/null || echo '?')); consider committing a fresh snapshot" >&2
    fi
fi

REV=$(git rev-parse --short HEAD 2>/dev/null || echo workdir)
if ! git diff --quiet 2>/dev/null; then
    REV="${REV}-dirty"
fi
[ -n "$OUT" ] || OUT="BENCH_${REV}.json"

# Hot-path microbenchmarks: sim kernel, profile build (a new write each
# time, and, matched by the same pattern, BenchmarkProfileBuildRepeat's
# sweep-like rebuilds through the draw memo) and its parts (cell diff,
# change count, iteration draw), the PCM store's bytes per scattered line,
# power manager, refused write admission, cache, cache prefill (one core's
# warm-up, the bulk of building a system), dispatch guards.
# Five runs each: the snapshot records their median and range.
MICRO='BenchmarkEngineScheduleAndRun|BenchmarkEngineReschedule|BenchmarkProfileBuild|BenchmarkDiffCells256B|BenchmarkCountChangedCells|BenchmarkIterModelDraw|BenchmarkStoreScatteredWrites|BenchmarkTryAcquireRelease|BenchmarkTryStartRefused|BenchmarkCacheAccess|BenchmarkHierarchyAccess|BenchmarkPrefill|BenchmarkDispatch'
PKGS="./internal/sim/ ./internal/pcm/ ./internal/power/ ./internal/core/ ./internal/cache/ ./internal/system/ ./internal/obs/"
RUNS=5
TMP=$(mktemp -d)
WORKTREE=""
cleanup() {
    if [ -n "$WORKTREE" ]; then
        git worktree remove --force "$WORKTREE" >/dev/null 2>&1 || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

if [ -z "$AGAINST" ]; then
    # shellcheck disable=SC2086 # PKGS is a deliberate word list
    go test -run '^$' -bench "$MICRO" -count "$RUNS" -benchmem $PKGS |
        tee "$TMP/raw"
    if [ "$QUICK" -eq 0 ]; then
        # End-to-end throughput benchmark (the tentpole target). One
        # iteration is enough: the simulation itself is deterministic and
        # long.
        go test -run '^$' -bench 'BenchmarkFig18Throughput' -benchtime 1x -benchmem . |
            tee -a "$TMP/raw"
    fi
    go run ./cmd/fpbbench -out "$OUT" <"$TMP/raw"
    echo "wrote $OUT"
    exit 0
fi

# -against: one test binary per package and side, so both sides run the
# same way and nothing is rebuilt between rounds.
BASE_REV=$(git rev-parse --verify "$AGAINST^{commit}")
WORKTREE="$TMP/base"
git worktree add --detach "$WORKTREE" "$BASE_REV" >/dev/null
build() { # side, checkout
    mkdir -p "$TMP/$1"
    for pkg in $PKGS; do
        (cd "$2" && go test -c -o "$TMP/$1/$(basename "$pkg").test" "$pkg")
    done
    if [ "$QUICK" -eq 0 ]; then
        (cd "$2" && go test -c -o "$TMP/$1/fpb.test" .)
    fi
}
run() { # side, checkout: one run of every benchmark, appended to side.raw
    echo "bench.sh: $1 ($(if [ "$1" = base ]; then echo "$BASE_REV"; else echo "$REV"; fi))" >&2
    for pkg in $PKGS; do
        (cd "$2/$pkg" && "$TMP/$1/$(basename "$pkg").test" -test.run '^$' \
            -test.bench "$MICRO" -test.count 1 -test.cpu 1 -test.benchmem) | tee -a "$TMP/$1.raw"
    done
    if [ "$QUICK" -eq 0 ]; then
        (cd "$2" && "$TMP/$1/fpb.test" -test.run '^$' -test.bench 'BenchmarkFig18Throughput' \
            -test.benchtime 1x -test.benchmem) | tee -a "$TMP/$1.raw"
    fi
}
build base "$WORKTREE"
build head "$PWD"
round=1
while [ "$round" -le "$RUNS" ]; do
    if [ $((round % 2)) -eq 1 ]; then
        run base "$WORKTREE"
        run head "$PWD"
    else
        run head "$PWD"
        run base "$WORKTREE"
    fi
    round=$((round + 1))
done
BASE_OUT="${OUT%.json}.base.json"
go run ./cmd/fpbbench -out "$BASE_OUT" <"$TMP/base.raw"
go run ./cmd/fpbbench -out "$OUT" <"$TMP/head.raw"
echo "wrote $BASE_OUT ($BASE_REV) and $OUT ($REV)"
go run ./cmd/fpbbench -compare -threshold 0.20 "$BASE_OUT" "$OUT"
