#!/bin/sh
# Tier-1 verification gate: gofmt cleanliness, vet, build, race-enabled
# tests, the fpbdebug tests, vet and tests of the perfbench module and,
# unless SMOKE=0, the daemon smoke. `make check` runs this script with
# SMOKE=0.
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
# perfbench is its own module (it imports exp.ByID, exp.Runner, system.Key
# and client.Fleet through a replace directive): vet and test it here, so a
# change to an API it uses fails this gate rather than the next benchmark.
(cd perfbench && go vet ./... && go test ./...)
# End-to-end daemon smoke: real fpbd binary, one job through the full
# lifecycle, the Prometheus /metrics text asserted, a panicking job failed
# alone, then the 3-node fleet. SMOKE=0 skips it (e.g. for sandboxes
# without loopback listeners); it needs curl.
if [ "${SMOKE:-1}" = 1 ]; then
    ./scripts/smoke.sh
fi
