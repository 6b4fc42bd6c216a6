#!/usr/bin/env bash
# Serving-tier smoke: start shiftex-serve from the committed tiny
# checkpoint, assert /predict and /healthz answer 200, hot-swap the
# snapshot over HTTP, verify graceful SIGTERM drain, then run the load
# generator for ~2 seconds and assert the BENCH_serving.json artifact
# parses and clears the 10k predictions/sec floor. A second, cold-traffic
# loadgen pass (route cache disabled) regenerates BENCH_serving-cold.json
# and additionally gates on the mean micro-batch size — proof that the
# batched GEMM pipeline engages when every request pays the full routing
# path. A short -tracebench run exercises the interleaved trial-pair
# protocol with no timing gate, and the committed BENCH_tracing.json is
# held to its 5% overhead gate. A final closed-loop pass runs -adaptbench: the continual
# controller must detect an injected shift, train new experts from the
# live sketches, and hot-swap with zero dropped requests, gated with
# -check-adapt. CI runs this on every commit; it is also runnable
# locally: ./scripts/smoke_serve.sh
set -euo pipefail

cd "$(dirname "$0")/.."
WORKDIR=$(mktemp -d)
BIN="$WORKDIR/bin"
LOG="$WORKDIR/log"
mkdir -p "$BIN" "$LOG"
HTTP_ADDR="127.0.0.1:18641"
CKPT=internal/serve/testdata/checkpoint_tiny.json
# The committed checkpoint was trained with -samples 40 -test 20 (see
# EXPERIMENTS.md "Serving benchmark"); the loadgen must regenerate the
# same scenario shape.
SAMPLES=40
TEST=20
SERVE_PID=""

cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
    echo "SMOKE FAIL: $1" >&2
    echo "--- serve log ---" >&2; cat "$LOG/serve.log" >&2 || true
    exit 1
}

echo "== building shiftex-serve"
go build -o "$BIN" ./cmd/shiftex-serve

echo "== starting the serving daemon from $CKPT"
"$BIN/shiftex-serve" -checkpoint "$CKPT" -http "$HTTP_ADDR" \
    -metrics-out "$WORKDIR/final_metrics.json" >"$LOG/serve.log" 2>&1 &
SERVE_PID=$!

for i in $(seq 1 50); do
    curl -sf "http://$HTTP_ADDR/healthz" >/dev/null 2>&1 && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done

echo "== /healthz"
code=$(curl -s -o "$WORKDIR/health.json" -w '%{http_code}' "http://$HTTP_ADDR/healthz")
[ "$code" = 200 ] || fail "/healthz returned $code"
grep -q '"status": "ok"' "$WORKDIR/health.json" || fail "/healthz body unexpected: $(cat "$WORKDIR/health.json")"

echo "== /predict"
# The committed checkpoint serves 32-dimensional inputs (FMoW spec).
X=$(seq 1 32 | awk '{printf "%s%.2f", (NR==1 ? "" : ","), $1/32}')
code=$(curl -s -o "$WORKDIR/predict.json" -w '%{http_code}' \
    -X POST -d "{\"x\":[$X]}" "http://$HTTP_ADDR/predict")
[ "$code" = 200 ] || fail "/predict returned $code: $(cat "$WORKDIR/predict.json")"
grep -q '"class"' "$WORKDIR/predict.json" || fail "/predict body unexpected: $(cat "$WORKDIR/predict.json")"

echo "== /v1/debug/drift (monitor on by default in daemon mode)"
code=$(curl -s -o "$WORKDIR/drift.json" -w '%{http_code}' "http://$HTTP_ADDR/v1/debug/drift")
[ "$code" = 200 ] || fail "/v1/debug/drift returned $code: $(cat "$WORKDIR/drift.json")"
grep -q '"enabled": true' "$WORKDIR/drift.json" || fail "/v1/debug/drift reports the monitor disabled: $(cat "$WORKDIR/drift.json")"
grep -q '"schemaVersion"' "$WORKDIR/drift.json" || fail "/v1/debug/drift body unexpected: $(cat "$WORKDIR/drift.json")"

echo "== hot swap over HTTP"
code=$(curl -s -o "$WORKDIR/swap.json" -w '%{http_code}' \
    -X POST -d "{\"path\":\"$CKPT\"}" "http://$HTTP_ADDR/snapshot")
[ "$code" = 200 ] || fail "POST /snapshot returned $code: $(cat "$WORKDIR/swap.json")"
grep -q '"version": 2' "$WORKDIR/swap.json" || fail "swap did not bump the snapshot version"

echo "== graceful SIGTERM drain"
kill -TERM "$SERVE_PID"
drain_ok=0
for i in $(seq 1 100); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then drain_ok=1; break; fi
    sleep 0.1
done
[ "$drain_ok" = 1 ] || fail "daemon did not exit on SIGTERM"
SERVE_PID=""
grep -q "drained:" "$LOG/serve.log" || fail "daemon exited without draining"
[ -s "$WORKDIR/final_metrics.json" ] || fail "final metrics snapshot missing"

echo "== load generation (~2s, mid-load hot swap)"
"$BIN/shiftex-serve" -checkpoint "$CKPT" -loadgen \
    -samples "$SAMPLES" -test "$TEST" -repeat 1000000 -duration 2s \
    -concurrency 8 -swap-mid-load -json "$WORKDIR" >"$LOG/serve.log" 2>&1 \
    || fail "load generation failed"

echo "== artifact gate (parses, zero errors, >=10k predictions/sec)"
"$BIN/shiftex-serve" -check "$WORKDIR/BENCH_serving.json" -min-throughput 10000 \
    || fail "serving artifact did not validate"

echo "== cold-traffic load generation (~2s, route cache disabled)"
"$BIN/shiftex-serve" -checkpoint "$CKPT" -loadgen -cold \
    -samples "$SAMPLES" -test "$TEST" -repeat 1000000 -duration 2s \
    -concurrency 32 -json "$WORKDIR" >"$LOG/serve.log" 2>&1 \
    || fail "cold load generation failed"

echo "== cold artifact gate (>=10k predictions/sec, mean batch >= 2, vs committed baseline)"
"$BIN/shiftex-serve" -check "$WORKDIR/BENCH_serving-cold.json" \
    -min-throughput 10000 -min-mean-batch 2 -against BENCH_serving-cold.json \
    || fail "cold serving artifact did not validate"

echo "== tracing-overhead bench (short; no timing gate on a shared runner)"
"$BIN/shiftex-serve" -checkpoint "$CKPT" -tracebench \
    -samples "$SAMPLES" -test "$TEST" -repeat 20 -concurrency 8 -trials 2 \
    -max-overhead 0 >"$LOG/serve.log" 2>&1 \
    || fail "tracing-overhead bench failed"

echo "== committed tracing artifact gate (overhead <= 5%)"
"$BIN/shiftex-serve" -check-tracing BENCH_tracing.json \
    || fail "committed tracing artifact did not validate"

echo "== drift detection under an injected shift (~2s, cold, frost/5 at 50%)"
# Cold traffic because route-cache hits skip embedding and are invisible to
# the monitor; baseline/window of 160 cover the scenario's 8×20-item replay
# cycle (a shorter window reads clean traffic as drift).
"$BIN/shiftex-serve" -checkpoint "$CKPT" -loadgen -cold \
    -samples "$SAMPLES" -test "$TEST" -repeat 1000000 -duration 2s \
    -concurrency 8 -shift-at 0.5 \
    -monitor-baseline 160 -monitor-window 160 -monitor-eval-every 1024 \
    -monitor-sample 64 -monitor-resamples 20 >"$LOG/serve.log" 2>&1 \
    || fail "shift-injection load generation failed"
grep -q "drift detected:" "$LOG/serve.log" \
    || fail "injected shift was not detected: $(grep drift "$LOG/serve.log" || true)"

echo "== committed drift artifact gate (detected, no false positives, overhead <= 3%)"
"$BIN/shiftex-serve" -check-drift BENCH_drift.json \
    || fail "committed drift artifact did not validate"

echo "== closed-loop adaptation (detect -> train from live sketches -> hot swap)"
# The continual controller must close the loop on the injected shift:
# window completes, snapshot hot-swaps with zero dropped requests, and
# the shifted regime's routing strictly improves over the frozen
# baseline. Cooldown 60s keeps the post-swap recovery pass clean.
"$BIN/shiftex-serve" -checkpoint "$CKPT" -adaptbench \
    -samples "$SAMPLES" -test "$TEST" -concurrency 8 \
    -monitor-baseline 160 -monitor-window 160 -monitor-eval-every 512 \
    -monitor-resamples 20 -adapt-cooldown 60s -json "$WORKDIR" >"$LOG/serve.log" 2>&1 \
    || fail "closed-loop adaptation benchmark failed"
grep -q "windows completed=1" "$LOG/serve.log" \
    || fail "adaptation window did not complete: $(cat "$LOG/serve.log")"

echo "== adapt artifact gate (detected, swapped, zero drops, recovery strictly better)"
"$BIN/shiftex-serve" -check-adapt "$WORKDIR/BENCH_adapt-live.json" \
    || fail "adapt-live artifact did not validate"

echo "== committed adapt artifact gate"
"$BIN/shiftex-serve" -check-adapt BENCH_adapt-live.json \
    || fail "committed adapt-live artifact did not validate"

echo "SMOKE OK"
