#!/bin/sh
# Perf-regression harness: run the repo's benchmarks and write a
# deterministic JSON snapshot (sorted keys, normalized names) named after
# the current revision. Optionally compare against a baseline snapshot.
#
# Usage:
#   scripts/bench.sh [-quick] [-out FILE] [-baseline FILE]
#
#   -quick      microbenchmark subset only (seconds, for CI smoke); the
#               default also runs the Fig. 18 end-to-end benchmark.
#   -out FILE   snapshot path (default BENCH_<rev>.json in the repo root)
#   -baseline FILE
#               after measuring, run `fpbbench -compare` against FILE.
#               Regressions are reported but do not fail the script
#               (CI treats them as warnings; pass judgement in review).
set -eu
cd "$(dirname "$0")/.."

QUICK=0
OUT=""
BASELINE=""
while [ $# -gt 0 ]; do
    case "$1" in
    -quick) QUICK=1 ;;
    -out)
        OUT="$2"
        shift
        ;;
    -baseline)
        BASELINE="$2"
        shift
        ;;
    *)
        echo "usage: $0 [-quick] [-out FILE] [-baseline FILE]" >&2
        exit 2
        ;;
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

# Hot-path microbenchmarks: sim kernel, profile build and its parts (cell
# diff, change count, iteration draw), power manager, cache, cache prefill
# (one core's warm-up, the bulk of building a system), dispatch guards.
# Five runs each: the snapshot records their median and range.
MICRO='BenchmarkEngineScheduleAndRun|BenchmarkEngineReschedule|BenchmarkProfileBuild|BenchmarkDiffCells256B|BenchmarkCountChangedCells|BenchmarkIterModelDraw|BenchmarkTryAcquireRelease|BenchmarkCacheAccess|BenchmarkHierarchyAccess|BenchmarkPrefill|BenchmarkDispatch'
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$MICRO" -count 5 -benchmem \
    ./internal/sim/ ./internal/pcm/ ./internal/power/ ./internal/cache/ ./internal/system/ ./internal/obs/ |
    tee "$RAW"

if [ "$QUICK" -eq 0 ]; then
    # End-to-end throughput benchmark (the tentpole target). One iteration
    # is enough: the simulation itself is deterministic and long.
    go test -run '^$' -bench 'BenchmarkFig18Throughput' -benchtime 1x -benchmem . |
        tee -a "$RAW"
fi

go run ./cmd/fpbbench -out "$OUT" <"$RAW"
echo "wrote $OUT"

if [ -n "$BASELINE" ]; then
    go run ./cmd/fpbbench -compare -threshold 0.20 "$BASELINE" "$OUT"
fi
