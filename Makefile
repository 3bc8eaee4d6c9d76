# Tier-1 gate: everything `make check` runs must stay green.

GO ?= go

.PHONY: all build fmt vet test race check bench clean

all: check

build:
	$(GO) build ./...

# Fails if any file needs gofmt (scripts/check.sh runs the same check).
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full pre-merge gate, defined once in scripts/check.sh: gofmt, vet,
# build, the race-enabled tests and the fpbdebug tests. The daemon smoke
# (scripts/smoke.sh) runs on its own, as in CI.
check:
	SMOKE=0 ./scripts/check.sh

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

clean:
	$(GO) clean ./...
	rm -f fpbsim fpbexp *.trace *.prof probes.csv
