#!/bin/sh
# Tier-1 verification gate: gofmt cleanliness, vet, build, and race-enabled
# tests. Equivalent to `make check`, for environments without make.
set -eux
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt required for:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
go build ./...
go test -race ./...
# fpbdebug swaps in the Store.Get aliasing guard; run the packages that
# exercise it so the debug build stays green.
go test -tags fpbdebug ./internal/pcm/ ./internal/mem/
# Checkpoint/warm-start gate: one fpbsim run checkpoints its warmup, a
# second restores it, and the full metrics snapshots must be byte-identical;
# fpbbench -warm repeats the assertion across the whole Fig. 18 grid.
# CKPT=0 skips (the unit suite still covers the codecs).
if [ "${CKPT:-1}" = 1 ]; then
    CKDIR=$(mktemp -d)
    go run ./cmd/fpbsim -workload mcf_m -scheme fpb -instr 3000 -warmup 500000 \
        -checkpoint-dir "$CKDIR" -metrics "$CKDIR/cold.json" >/dev/null
    go run ./cmd/fpbsim -workload mcf_m -scheme fpb -instr 3000 -warmup 500000 \
        -checkpoint-dir "$CKDIR" -metrics "$CKDIR/warm.json" >/dev/null
    cmp "$CKDIR/cold.json" "$CKDIR/warm.json"
    go run ./cmd/fpbbench -warm 500000 -instr 2000 >/dev/null
    rm -rf "$CKDIR"
fi
# End-to-end daemon smoke: real fpbd binary, one job through the full
# lifecycle, both /metrics formats asserted. SMOKE=0 skips it (e.g. for
# sandboxes without loopback listeners); it needs curl.
if [ "${SMOKE:-1}" = 1 ]; then
    ./scripts/smoke.sh
fi
