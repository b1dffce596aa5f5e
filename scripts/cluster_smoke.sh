#!/usr/bin/env bash
# Loopback cluster smoke test for a4nn_run's cluster modes:
#
#  1. A master (--listen) with two workers (--connect) on 127.0.0.1, one
#     SIGKILLed while it holds a job, must report at least one re-dispatch
#     and finish with a Pareto front BIT-identical (hexfloat dump) to plain
#     solo a4nn_run with the same flags: dispatch, heartbeat-loss detection
#     and re-dispatch in one go.
#  2. With non-default engine flags, a master and one matching worker must
#     match the solo run again, and a worker launched with a different
#     --function must be rejected at the handshake (exit 2).
#
# Usage: cluster_smoke.sh <path-to-a4nn_run-binary> [workdir]
set -euo pipefail

BIN=${1:?usage: cluster_smoke.sh <a4nn_run binary> [workdir]}
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"

# Calibrated so the solo run takes a few seconds: long enough that w0 is
# seen holding a job before the run ends, short enough for CI.
FLAGS=(--population 4 --offspring 4 --generations 3 --epochs 6
       --images 80 --pixels 12 --intensity medium --no-engine
       --gpus 2 --seed 7)
# Long enough for the engine to stop some models early, so the front
# depends on the engine settings the handshake digest covers.
ENGINE_FLAGS=(--population 3 --offspring 3 --generations 2 --epochs 10
              --images 40 --pixels 10 --function logistic --window 4
              --seed 11)
# How long to wait for w0 to start a job before giving up.
HOLD_TIMEOUT_S=60

PIDS=()
cleanup() { kill -9 "${PIDS[@]}" 2>/dev/null || true; }
trap cleanup EXIT
fail() { echo "FAIL: $*" >&2; exit 1; }
# master LOG PARETO PORT MIN_WORKERS FLAGS...: start a master in the background.
master() {
    "$BIN" --listen "127.0.0.1:$3" --min-workers "$4" --wait-workers-ms 15000 \
        --pareto-out "$WORK/$2" "${@:5}" > "$WORK/$1" 2>&1 &
    PIDS+=($!)
}
# worker NAME PORT FLAGS...: start a worker in the background, log NAME.log.
worker() {
    "$BIN" --connect "127.0.0.1:$2" --worker-name "$1" "${@:3}" \
        > "$WORK/$1.log" 2>&1 &
    PIDS+=($!)
}
finish() {  # finish MASTER_PID LOG: the master must exit 0
    wait "$1" || { tail -n 30 "$WORK/$2" >&2; fail "master exited nonzero"; }
}
same_front() {
    diff -u "$WORK/$1" "$WORK/$2" || fail "$2 differs from the solo run"
    echo "PARETO BIT-IDENTICAL: $2 ($(wc -l < "$WORK/$1") model(s))"
}

echo "=== solo baseline (a4nn_run, no --listen) ==="
"$BIN" "${FLAGS[@]}" --pareto-out "$WORK/solo.pareto" | tail -n 6

echo "=== cluster run: master + 2 workers, one SIGKILLed mid-run ==="
master master.log cluster.pareto 7517 2 "${FLAGS[@]}" \
    --heartbeat-interval-ms 100 --heartbeat-timeout-ms 500 \
    --trace-out "$WORK/cluster_trace.json"
MASTER_PID=$!
sleep 0.3
worker w0 7517 "${FLAGS[@]}"
W0_PID=$!
worker w1 7517 "${FLAGS[@]}"

# SIGKILL w0 while it holds a job (its log shows more jobs started than
# finished): the master must detect the silence, re-dispatch, and still
# finish bit-identically.
holding() {
    local started finished
    started=$(grep -c ") started$" "$WORK/w0.log" || true)
    finished=$(grep -c ") finished$" "$WORK/w0.log" || true)
    [ "$started" -gt "$finished" ]
}
waited=0
until holding; do
    kill -0 "$W0_PID" 2>/dev/null || fail "worker w0 exited before taking a job"
    [ "$waited" -lt $((HOLD_TIMEOUT_S * 20)) ] ||
        fail "worker w0 took no job in ${HOLD_TIMEOUT_S}s"
    sleep 0.05
    waited=$((waited + 1))
done
kill -9 "$W0_PID" || fail "cannot kill worker w0 (pid $W0_PID)"
echo "killed worker w0 (pid $W0_PID) while it held a job"
finish "$MASTER_PID" master.log
grep -E "^cluster:" "$WORK/master.log" || true
grep -qE ", [1-9][0-9]* re-dispatch\(es\)" "$WORK/master.log" ||
    fail "the master re-dispatched no job after w0 was killed holding one"
same_front solo.pareto cluster.pareto

# The trace's pid-3 lanes must agree with the cluster counters exactly.
if command -v python3 > /dev/null; then
    python3 "$(dirname "$0")/check_trace.py" "$WORK/cluster_trace.json"
fi

echo "=== engine flags over the wire: --function logistic --window 4 ==="
"$BIN" "${ENGINE_FLAGS[@]}" --pareto-out "$WORK/engine_solo.pareto" \
    > "$WORK/engine_solo.log"
grep -qE " [1-9][0-9]* early terminations" "$WORK/engine_solo.log" ||
    fail "the engine stopped no model early; its flags went unused"
master engine_master.log engine_cluster.pareto 7518 1 "${ENGINE_FLAGS[@]}"
MASTER_PID=$!

# The mismatched worker connects first; the master must turn it away
# before any job is sent, and the worker must say so with exit code 2.
status=0
"$BIN" --connect 127.0.0.1:7518 --worker-name mismatched \
    "${ENGINE_FLAGS[@]}" --function pow_exp \
    > "$WORK/mismatched.log" 2>&1 || status=$?
[ "$status" -eq 2 ] ||
    fail "worker with a different --function exited $status, want 2"
echo "mismatched --function worker rejected at the handshake (exit 2)"

worker w2 7518 "${ENGINE_FLAGS[@]}"
finish "$MASTER_PID" engine_master.log
grep -E "^cluster:" "$WORK/engine_master.log"
# The matching worker must have trained jobs, or the diff below would
# only compare solo against local fallback.
grep -qE "^cluster: [1-9][0-9]* remote job" "$WORK/engine_master.log" ||
    fail "the matching worker served no jobs"
same_front engine_solo.pareto engine_cluster.pareto

trap - EXIT
cleanup
echo "cluster_smoke: PASS (artifacts in $WORK)"
