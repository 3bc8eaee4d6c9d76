#!/bin/sh
# Daemon smoke test: builds fpbd, fpbtop and fpbsim, boots a daemon on a
# loopback port, drives one job through the full lifecycle, asserts that the
# /metrics Prometheus text reflects it and that a panicking job fails alone
# — the end-to-end proof behind the serving + observability stack that unit
# tests can't give (real binary, real HTTP, real store on disk).
#
# Requires: go, curl. Exits non-zero on any failed assertion.
set -eu
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
BIN="$TMP/bin"
LOG="$TMP/fpbd.log"
mkdir -p "$BIN"

fail() {
    echo "smoke: FAIL: $*" >&2
    for l in "$LOG" "$TMP"/fleet1.log "$TMP"/fleet2.log "$TMP"/fleet3.log; do
        if [ -s "$l" ]; then
            echo "--- $l ---" >&2
            cat "$l" >&2
        fi
    done
    exit 1
}

cleanup() {
    for pid in "${FPBD_PID:-}" "${FLEET1_PID:-}" "${FLEET2_PID:-}" "${FLEET3_PID:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "smoke: building fpbd, fpbtop, fpbsim"
go build -o "$BIN/fpbd" ./cmd/fpbd
go build -o "$BIN/fpbtop" ./cmd/fpbtop
go build -o "$BIN/fpbsim" ./cmd/fpbsim

echo "smoke: starting fpbd on :$PORT"
"$BIN/fpbd" -addr "127.0.0.1:$PORT" -store "$TMP/store" \
    -workers 2 -log-format json -log-level debug >"$LOG" 2>&1 &
FPBD_PID=$!

# Wait for liveness (up to ~5s).
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 50 ] && fail "daemon did not become healthy"
    sleep 0.1
done

SPEC='{"workload":"mix_1","scheme":"gcp","instr_per_core":2000}'

echo "smoke: submitting a job"
RESP="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/jobs")"
echo "$RESP" | grep -q '"state": *"done"' || fail "job did not finish: $RESP"
echo "$RESP" | grep -q '"outcome": *"fresh"' || fail "missing fresh lifecycle record: $RESP"
JOB_ID="$(echo "$RESP" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n1)"
[ -n "$JOB_ID" ] || fail "no job id in response: $RESP"

echo "smoke: resubmitting the identical job (must be a cache hit)"
RESP2="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/jobs")"
echo "$RESP2" | grep -q '"cached": *true' || fail "identical job not served from cache: $RESP2"
echo "$RESP2" | grep -q '"outcome": *"cache-hit"' || fail "missing cache-hit lifecycle record: $RESP2"

echo "smoke: checking metrics"
MBARE="$(curl -fsS "$BASE/metrics")"
echo "$MBARE" | grep -q '^serve_jobs_done 1$' || fail "serve_jobs_done != 1 in bare /metrics: $MBARE"
echo "$MBARE" | grep -q '^serve_cache_hits 1$' || fail "serve_cache_hits != 1 in bare /metrics: $MBARE"
echo "$MBARE" | grep -q '^# TYPE serve_job_sim_ms histogram$' || fail "missing sim_ms histogram TYPE"
echo "$MBARE" | grep -q '^serve_job_sim_ms_count 1$' || fail "sim_ms histogram did not record the job"

echo "smoke: checking the /metrics content type"
CT="$(curl -fsS -o /dev/null -w '%{content_type}' "$BASE/metrics")"
case "$CT" in text/plain*) : ;; *) fail "bare /metrics returned $CT" ;; esac

echo "smoke: fpbtop one-shot snapshot"
TOP="$("$BIN/fpbtop" -addr "127.0.0.1:$PORT" -n 1)"
echo "$TOP" | grep -q 'cache' || fail "fpbtop rendered nothing useful: $TOP"
echo "$TOP" | grep -q 'simulation' || fail "fpbtop missing latency table: $TOP"

echo "smoke: structured logs carry the job id"
grep -q "$JOB_ID" "$LOG" || fail "job id $JOB_ID absent from daemon logs"
grep -q '"msg":"job done"' "$LOG" || fail "no 'job done' log line"

# A one-token DIMM budget passes Validate but can never admit a write, so
# the simulator's deadlock guard panics: that must fail one job (422), not
# the daemon.
echo "smoke: a panicking simulation fails one job, not the daemon"
if DL="$("$BIN/fpbsim" -workload mcf_m -scheme dimm+chip -mapping ne -tokens 1 -instr 2000 \
    -remote "127.0.0.1:$PORT" 2>&1)"; then
    fail "deadlock spec succeeded: $DL"
fi
echo "$DL" | grep -q '422: simulation panicked: system: deadlock' || fail "deadlock spec did not get a 422 naming the panic: $DL"
curl -fsS "$BASE/healthz" >/dev/null || fail "daemon unhealthy after a panicking job"
RESP3="$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"workload":"mcf_m","scheme":"gcp","instr_per_core":2000}' "$BASE/v1/jobs")"
echo "$RESP3" | grep -q '"state": *"done"' || fail "job after a panicking job did not finish: $RESP3"
curl -fsS "$BASE/metrics" | grep -q '^serve_jobs_failed 1$' || fail "panicking job not counted in serve_jobs_failed"
grep -q '"msg":"job panicked"' "$LOG" || fail "no 'job panicked' log line"

echo "smoke: graceful shutdown"
kill -TERM "$FPBD_PID"
wait "$FPBD_PID" || fail "daemon exited non-zero"
grep -q '"msg":"exit"' "$LOG" || fail "no exit-time metrics summary in logs"
FPBD_PID=""

# ---------------------------------------------------------------------------
# Fleet smoke: a 3-node consistent-hash cluster. Submits a sweep through
# fpbctl, kills one member, and asserts the fleet still completes sweeps and
# exposes its ring/sweep metrics. FLEET_SMOKE=0 skips this section.
# ---------------------------------------------------------------------------
if [ "${FLEET_SMOKE:-1}" = 1 ]; then
    echo "smoke: building fpbctl, fpbexp"
    go build -o "$BIN/fpbctl" ./cmd/fpbctl
    go build -o "$BIN/fpbexp" ./cmd/fpbexp

    P1=$((PORT + 1))
    P2=$((PORT + 2))
    P3=$((PORT + 3))
    A1="127.0.0.1:$P1"
    A2="127.0.0.1:$P2"
    A3="127.0.0.1:$P3"

    echo "smoke: starting a 3-node fleet on :$P1 :$P2 :$P3"
    "$BIN/fpbd" -addr "$A1" -advertise "$A1" -peers "$A2,$A3" -replicas 2 \
        -store "$TMP/fleet1" -workers 2 -log-format json >"$TMP/fleet1.log" 2>&1 &
    FLEET1_PID=$!
    "$BIN/fpbd" -addr "$A2" -advertise "$A2" -peers "$A1,$A3" -replicas 2 \
        -store "$TMP/fleet2" -workers 2 -log-format json >"$TMP/fleet2.log" 2>&1 &
    FLEET2_PID=$!
    "$BIN/fpbd" -addr "$A3" -advertise "$A3" -peers "$A1,$A2" -replicas 2 \
        -store "$TMP/fleet3" -workers 2 -log-format json >"$TMP/fleet3.log" 2>&1 &
    FLEET3_PID=$!

    for a in "$A1" "$A2" "$A3"; do
        i=0
        until curl -fsS "http://$a/healthz" >/dev/null 2>&1; do
            i=$((i + 1))
            [ "$i" -ge 50 ] && fail "fleet node $a did not become healthy"
            sleep 0.1
        done
    done

    echo "smoke: fleet membership"
    MEMBERS="$("$BIN/fpbctl" -addr "$A1" members)" || fail "fpbctl members failed"
    echo "$MEMBERS" | grep -q '3 members' || fail "expected 3 members: $MEMBERS"

    echo "smoke: fleet sweep (2 schemes x 2 workloads) via fpbctl"
    SWEEP="$("$BIN/fpbctl" -addr "$A1" sweep -schemes gcp,ideal -workloads mcf_m,mix_1 \
        -seed 7 -instr 2000 -wait)" || fail "fleet sweep failed: ${SWEEP:-}"
    echo "$SWEEP" | grep -q '4/4 done' || fail "sweep incomplete: $SWEEP"

    echo "smoke: fpbtop fleet view"
    TOPF="$("$BIN/fpbtop" -addr "$A1,$A2,$A3" -n 1)" || fail "fpbtop fleet view failed"
    echo "$TOPF" | grep -q 'fleet' || fail "fpbtop missing fleet totals: $TOPF"

    echo "smoke: killing one fleet member"
    kill -9 "$FLEET3_PID" 2>/dev/null || true
    wait "$FLEET3_PID" 2>/dev/null || true
    FLEET3_PID=""

    echo "smoke: sweep still completes with a dead member"
    SWEEP2="$("$BIN/fpbctl" -addr "$A1" sweep -schemes gcp,ideal -workloads xal_m,mum_m \
        -seed 8 -instr 2000 -wait)" || fail "post-kill sweep failed: ${SWEEP2:-}"
    echo "$SWEEP2" | grep -q '4/4 done' || fail "post-kill sweep incomplete: $SWEEP2"

    echo "smoke: fpbexp -remote over the fleet with a dead member"
    EXPOUT="$("$BIN/fpbexp" -exp tab3 -instr 2000 -workloads mcf_m -remote "$A1,$A2,$A3" 2>&1)" ||
        fail "fpbexp -remote failed with a dead member: $EXPOUT"

    echo "smoke: fpbsim -remote at the dead member fails fast"
    T0="$(date +%s)"
    if timeout 60 "$BIN/fpbsim" -workload mcf_m -scheme gcp -instr 2000 -remote "$A3" >/dev/null 2>&1; then
        fail "fpbsim -remote at a dead daemon succeeded"
    fi
    T1="$(date +%s)"
    [ $((T1 - T0)) -le 5 ] || fail "fpbsim -remote at a dead daemon took $((T1 - T0))s to fail (want <= 5s)"

    echo "smoke: fleet metrics"
    MFLEET="$(curl -fsS "http://$A1/metrics")"
    echo "$MFLEET" | grep -q '^cluster_ring_members 3$' || fail "missing cluster_ring_members"
    echo "$MFLEET" | grep -q '^cluster_sweeps_done [1-9]' || fail "missing cluster_sweeps_done"
    echo "$MFLEET" | grep -q '^cluster_jobs_done [1-9]' || fail "missing cluster_jobs_done"

    echo "smoke: fpbtop one-shot exits non-zero with a down member"
    if "$BIN/fpbtop" -addr "$A1,$A2,$A3" -n 1 >/dev/null 2>&1; then
        fail "fpbtop should exit non-zero when a fleet member is unreachable"
    fi

    echo "smoke: fleet graceful shutdown"
    for pid in "$FLEET1_PID" "$FLEET2_PID"; do
        kill -TERM "$pid"
        wait "$pid" || fail "fleet daemon exited non-zero"
    done
    FLEET1_PID=""
    FLEET2_PID=""
fi

echo "smoke: PASS"
