#!/bin/sh
# Tier-1 verification gate: gofmt cleanliness, vet, build, race-enabled
# tests, the fpbdebug tests and, unless SMOKE=0, the daemon smoke. `make
# check` runs this script with SMOKE=0.
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
# End-to-end daemon smoke: real fpbd binary, one job through the full
# lifecycle, both /metrics formats asserted. SMOKE=0 skips it (e.g. for
# sandboxes without loopback listeners); it needs curl.
if [ "${SMOKE:-1}" = 1 ]; then
    ./scripts/smoke.sh
fi
