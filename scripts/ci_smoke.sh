#!/usr/bin/env bash
# Distributed smoke tests over real processes. Five legs, gated by
# SMOKE_ONLY (core|elastic|rollout|telemetry|generate|all, default all):
#
# core — build the binaries, boot a 4-task localhost cluster as real
# processes, run a CG solve and an SGD epoch over TCP (collectives ring
# between the tfserver tasks), a fused multi-tensor SGD epoch over the same
# cluster, and fail on nonzero exit — tfcg enforces the residual tolerance
# itself and tfsgd enforces loss decrease and replica consistency. The fusion
# leg additionally asserts the engine's numerics contract: a fused run's
# final weights must be bit-identical to the unfused run's (both reduce
# through the same doubling tree), compared via checkpoint files. Then the
# serving smoke: tfsgd checkpoints its trained model, tfserve serves it, and
# concurrent HTTP predicts must coalesce while staying bit-identical to
# single-request answers.
#
# elastic — the fault-tolerance contract: boot 4 tfservers, kill -9 one of
# them mid-epoch, restart it, and require the training run to shrink around
# the casualty, resume from its checkpoint, grow back to full width when the
# task returns, and land within tolerance of an uninterrupted run — without
# the driver restarting.
#
# rollout — the control-plane contract: boot a tfserve fleet with
# -autoscale/-canary, put it under sustained HTTP load, and require a full
# lifecycle — autoscaler scale-up, canary rollout stepped to promotion,
# scale-down after the load stops — with zero dropped requests and zero
# autoscaler flaps (rollout_smoke fails on any non-2xx or flap).
#
# telemetry — the observability contract: every serving leg above also
# scrapes /metricz and fails on absent or non-monotonic counters; this leg
# additionally runs two cross-process exercises with TFHPC_TRACE_OUT set —
# a collective allreduce between two tfserver tasks and a routed predict
# through a tfserve router over two replicas — and runs trace_check over the
# per-process dumps: the merged document must parse, span >= 2 pids, carry an
# s/f flow pair across pids, and keep every parent/child link resolvable.
# The merged artifacts land in $BIN/logs/ ready for ui.perfetto.dev.
#
# generate — the generative serving contract: tfsgd trains and checkpoints an
# autoregressive model, tfserve serves it with the continuous-batching engine,
# and generate_smoke drives concurrent SSE token streams that must be
# bit-identical to a sequential reference while decoding in interleaved
# engine steps (continuous batching, not flush-and-refill), then cancels one
# stream mid-decode and requires /metricz to show the slot reclaimed with the
# slot-leak counter exactly zero.
#
# Every leg runs under a timeout(1) wrapper: a hung leg exits with the
# distinct code 97 instead of stalling the CI job to its global limit.
#
# Server processes log to $BIN/logs/ so CI can upload them when a leg fails.
set -euo pipefail
# Absolute self-path, captured before the cd: the timeout wrapper re-execs
# this script for each leg.
SELF="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
cd "$(dirname "$0")/.."

BIN=${BIN:-bin}
LOGDIR="$BIN/logs"
mkdir -p "$BIN" "$LOGDIR"
go build -o "$BIN/tfserver" ./cmd/tfserver
go build -o "$BIN/tfcg" ./cmd/tfcg
go build -o "$BIN/tfsgd" ./cmd/tfsgd
go build -o "$BIN/tfserve" ./cmd/tfserve
go build -o "$BIN/serving_smoke" ./scripts/serving_smoke
go build -o "$BIN/rollout_smoke" ./scripts/rollout_smoke
go build -o "$BIN/generate_smoke" ./scripts/generate_smoke
go build -o "$BIN/trace_check" ./scripts/trace_check

BASE_PORT=${BASE_PORT:-17841}
SMOKE_ONLY=${SMOKE_ONLY:-all}
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT
# timeout(1) TERMs the leg process; without this the EXIT trap would not run
# and booted servers would leak past the leg.
trap 'cleanup; exit 143' TERM INT

# scrape_metric ADDR SERIES prints the value of one /metricz series (SERIES is
# the exact exposition token, labels included), retrying while the server
# comes up. Exits nonzero when the series never appears.
scrape_metric() {
  local addr=$1 series=$2 v
  for _ in $(seq 1 50); do
    v=$(curl -sf "http://$addr/metricz" | awk -v n="$series" '$1 == n { print $2; exit }')
    if [ -n "$v" ]; then
      echo "$v"
      return 0
    fi
    sleep 0.1
  done
  echo "smoke: FAIL — metric $series never appeared on $addr/metricz" >&2
  return 1
}

# assert_monotonic NAME BEFORE AFTER fails unless AFTER > BEFORE: the counter
# must exist on both scrapes and move under load.
assert_monotonic() {
  local name=$1 before=$2 after=$3
  if [ -z "$before" ] || [ -z "$after" ] || [ "$after" -le "$before" ]; then
    echo "smoke: FAIL — counter $name not monotonic under load (before=$before after=$after)"
    exit 1
  fi
  echo "smoke: counter $name $before -> $after OK"
}

run_core() {
  local TASKS=4
  local SPEC=""
  # Bind the wildcard address but dial loopback: the listen and advertised
  # addresses genuinely differ, exercising tfserver -advertise.
  for i in $(seq 0 $((TASKS - 1))); do
    local port=$((BASE_PORT + i))
    local addr="127.0.0.1:${port}"
    SPEC="${SPEC:+$SPEC,}$addr"
    "$BIN/tfserver" -job worker -task "$i" -listen "0.0.0.0:${port}" -advertise "$addr" \
      >"$LOGDIR/tfserver-$i.log" 2>&1 &
    pids+=($!)
  done
  echo "smoke: booted $TASKS tfserver tasks: $SPEC (logs in $LOGDIR)"

  echo "smoke: CG solve over TCP"
  "$BIN/tfcg" -mode cluster -spec "$SPEC" -workers $TASKS -n 256 -iters 300 -tol 1e-6

  echo "smoke: SGD training over TCP"
  "$BIN/tfsgd" -mode cluster -spec "$SPEC" -workers $TASKS -features 128 -rows 256 -steps 25 -lr 0.3

  echo "smoke: fused multi-tensor SGD over TCP (AllReduceFused + async loss handles)"
  "$BIN/tfsgd" -mode cluster -spec "$SPEC" -workers $TASKS -features 128 -rows 256 -steps 25 -lr 0.3 \
    -param-tensors 4 -fuse

  # --- fusion bit-identity: fused and unfused runs must end on the same bits
  local CKPT_UNFUSED CKPT_FUSED
  CKPT_UNFUSED=$(mktemp -t tfhpc_smoke_unfused_XXXX.ckpt)
  CKPT_FUSED=$(mktemp -t tfhpc_smoke_fused_XXXX.ckpt)
  echo "smoke: fused-vs-unfused bit-identity on final weights"
  "$BIN/tfsgd" -mode real -features 64 -rows 128 -workers 2 -steps 20 \
    -param-tensors 4 -checkpoint "$CKPT_UNFUSED"
  "$BIN/tfsgd" -mode real -features 64 -rows 128 -workers 2 -steps 20 \
    -param-tensors 4 -fuse -checkpoint "$CKPT_FUSED"
  if ! cmp -s "$CKPT_UNFUSED" "$CKPT_FUSED"; then
    echo "smoke: FAIL — fused SGD checkpoint differs from unfused (fusion broke bit-identity)"
    exit 1
  fi
  rm -f "$CKPT_UNFUSED" "$CKPT_FUSED"

  # --- serving smoke: train -> checkpoint -> serve -> predict ---------------
  local CKPT SERVE_PORT SERVE_ADDR
  CKPT=$(mktemp -t tfhpc_smoke_XXXX.ckpt)
  SERVE_PORT=$((BASE_PORT + 100))
  SERVE_ADDR="127.0.0.1:${SERVE_PORT}"

  echo "smoke: training + checkpointing the serving model"
  "$BIN/tfsgd" -mode real -features 64 -rows 256 -workers 2 -steps 30 -checkpoint "$CKPT"

  echo "smoke: booting tfserve on $SERVE_ADDR"
  "$BIN/tfserve" -listen "$SERVE_ADDR" -model "smoke=$CKPT" -max-batch 32 \
    >"$LOGDIR/tfserve.log" 2>&1 &
  pids+=($!)

  local ROWS_BEFORE BATCHES_BEFORE
  ROWS_BEFORE=$(scrape_metric "$SERVE_ADDR" tfhpc_batcher_rows_total)
  BATCHES_BEFORE=$(scrape_metric "$SERVE_ADDR" tfhpc_batcher_batches_total)

  echo "smoke: concurrent HTTP predicts (batched must equal single, bit-for-bit)"
  "$BIN/serving_smoke" -addr "http://$SERVE_ADDR" -model smoke -features 64

  echo "smoke: /metricz scrape after load"
  local ROWS_AFTER BATCHES_AFTER
  ROWS_AFTER=$(scrape_metric "$SERVE_ADDR" tfhpc_batcher_rows_total)
  BATCHES_AFTER=$(scrape_metric "$SERVE_ADDR" tfhpc_batcher_batches_total)
  assert_monotonic tfhpc_batcher_rows_total "$ROWS_BEFORE" "$ROWS_AFTER"
  assert_monotonic tfhpc_batcher_batches_total "$BATCHES_BEFORE" "$BATCHES_AFTER"
  rm -f "$CKPT"
}

run_elastic() {
  local TASKS=4 VICTIM=2
  local EBASE=$((BASE_PORT + 20))
  local ESPEC=""
  local -a epids=()
  for i in $(seq 0 $((TASKS - 1))); do
    local port=$((EBASE + i))
    local addr="127.0.0.1:${port}"
    ESPEC="${ESPEC:+$ESPEC,}$addr"
    "$BIN/tfserver" -job worker -task "$i" -listen "0.0.0.0:${port}" -advertise "$addr" \
      >"$LOGDIR/elastic-tfserver-$i.log" 2>&1 &
    epids[$i]=$!
    pids+=($!)
  done
  echo "smoke: elastic leg booted $TASKS tfserver tasks: $ESPEC"

  local SGD_ARGS=(-spec "$ESPEC" -workers $TASKS -features 64 -rows 128 -steps 40 -lr 0.3 -ckpt-every 3)

  echo "smoke: elastic baseline (uninterrupted)"
  "$BIN/tfsgd" -mode elastic "${SGD_ARGS[@]}" >"$LOGDIR/elastic-baseline.log" 2>&1
  cat "$LOGDIR/elastic-baseline.log"
  local BASE_LOSS
  BASE_LOSS=$(sed -n 's/.*final_loss=\([^ ]*\).*/\1/p' "$LOGDIR/elastic-baseline.log")
  if [ -z "$BASE_LOSS" ]; then
    echo "smoke: FAIL — elastic baseline printed no final_loss"
    exit 1
  fi

  local CKPT
  CKPT=$(mktemp -u -t tfhpc_elastic_XXXX.ckpt)
  echo "smoke: elastic run with kill -9 of task $VICTIM mid-epoch"
  # -step-delay paces the run so the kill lands mid-training and the restart
  # is back before the final checkpoint boundaries.
  "$BIN/tfsgd" -mode elastic "${SGD_ARGS[@]}" -ckpt-file "$CKPT" -step-delay 50ms \
    >"$LOGDIR/elastic-run.log" 2>&1 &
  local run_pid=$!
  sleep 0.8
  echo "smoke: kill -9 tfserver task $VICTIM (pid ${epids[$VICTIM]})"
  kill -9 "${epids[$VICTIM]}"
  sleep 0.4
  local vport=$((EBASE + VICTIM))
  local vaddr="127.0.0.1:${vport}"
  echo "smoke: restarting tfserver task $VICTIM on $vaddr"
  "$BIN/tfserver" -job worker -task "$VICTIM" -listen "0.0.0.0:${vport}" -advertise "$vaddr" \
    >"$LOGDIR/elastic-tfserver-$VICTIM-restarted.log" 2>&1 &
  pids+=($!)

  if ! wait "$run_pid"; then
    echo "smoke: FAIL — elastic run exited nonzero"
    cat "$LOGDIR/elastic-run.log"
    exit 1
  fi
  cat "$LOGDIR/elastic-run.log"
  rm -f "$CKPT"

  local SUMMARY LOSS SHRINKS GROWS WORKERS
  SUMMARY=$(grep 'final_loss=' "$LOGDIR/elastic-run.log")
  LOSS=$(sed -n 's/.*final_loss=\([^ ]*\).*/\1/p' <<<"$SUMMARY")
  SHRINKS=$(sed -n 's/.*shrinks=\([0-9]*\).*/\1/p' <<<"$SUMMARY")
  GROWS=$(sed -n 's/.*grows=\([0-9]*\).*/\1/p' <<<"$SUMMARY")
  WORKERS=$(sed -n 's/.*workers=\([0-9]*\).*/\1/p' <<<"$SUMMARY")
  if [ "${SHRINKS:-0}" -lt 1 ]; then
    echo "smoke: FAIL — run never shrank (the kill missed the training window)"
    exit 1
  fi
  if [ "${GROWS:-0}" -lt 1 ]; then
    echo "smoke: FAIL — restarted task never rejoined"
    exit 1
  fi
  if [ "${WORKERS:-0}" -ne $TASKS ]; then
    echo "smoke: FAIL — finished at width ${WORKERS:-0}, want $TASKS"
    exit 1
  fi
  awk -v got="$LOSS" -v base="$BASE_LOSS" 'BEGIN {
    d = got - base; if (d < 0) d = -d
    b = base; if (b < 0) b = -b
    if (b == 0) { print "smoke: FAIL — degenerate baseline loss 0"; exit 1 }
    rel = d / b
    if (rel > 1e-3) {
      printf "smoke: FAIL — elastic loss %g vs baseline %g (relative diff %g > 1e-3)\n", got, base, rel
      exit 1
    }
    printf "smoke: elastic loss %g vs baseline %g (relative diff %g) OK\n", got, base, rel
  }'
}

run_rollout() {
  local RPORT=$((BASE_PORT + 60))
  local RADDR="127.0.0.1:${RPORT}"
  local CKPT_V1 CKPT_V2
  CKPT_V1=$(mktemp -t tfhpc_rollout_v1_XXXX.ckpt)
  CKPT_V2=$(mktemp -t tfhpc_rollout_v2_XXXX.ckpt)

  echo "smoke: training rollout checkpoints (v1: 30 steps, v2: 60 steps)"
  "$BIN/tfsgd" -mode real -features 64 -rows 256 -workers 2 -steps 30 -checkpoint "$CKPT_V1"
  "$BIN/tfsgd" -mode real -features 64 -rows 256 -workers 2 -steps 60 -checkpoint "$CKPT_V2"

  echo "smoke: booting tfserve control plane on $RADDR"
  "$BIN/tfserve" -listen "$RADDR" -model "smoke=$CKPT_V1" \
    -autoscale "min=1,max=3,target=3,tick=100ms,down-cooldown=1500ms" \
    -canary "steps=25;100,hold=1200ms,maxp99=500ms,maxerr=0.02,min-samples=10" \
    -slo-window 10s \
    >"$LOGDIR/tfserve-rollout.log" 2>&1 &
  pids+=($!)

  local REQ_BEFORE
  REQ_BEFORE=$(scrape_metric "$RADDR" 'tfhpc_monitor_requests_total{arm="stable"}')

  echo "smoke: full lifecycle under load (scale-up -> canary -> promote -> scale-down)"
  "$BIN/rollout_smoke" -addr "http://$RADDR" -model smoke \
    -canary-ckpt "$CKPT_V2" -version 60 -features 64 -clients 16

  echo "smoke: control-plane /metricz scrape after lifecycle"
  local REQ_AFTER CANARY_REQ SCALE_UPS TRANSITIONS
  REQ_AFTER=$(scrape_metric "$RADDR" 'tfhpc_monitor_requests_total{arm="stable"}')
  CANARY_REQ=$(scrape_metric "$RADDR" 'tfhpc_monitor_requests_total{arm="canary"}')
  SCALE_UPS=$(scrape_metric "$RADDR" tfhpc_autoscaler_scale_ups_total)
  TRANSITIONS=$(scrape_metric "$RADDR" tfhpc_rollout_transitions_total)
  assert_monotonic 'tfhpc_monitor_requests_total{arm="stable"}' "$REQ_BEFORE" "$REQ_AFTER"
  if [ "${CANARY_REQ:-0}" -le 0 ] || [ "${SCALE_UPS:-0}" -le 0 ] || [ "${TRANSITIONS:-0}" -le 0 ]; then
    echo "smoke: FAIL — control-plane counters flat (canary_req=$CANARY_REQ scale_ups=$SCALE_UPS transitions=$TRANSITIONS)"
    exit 1
  fi
  echo "smoke: control-plane counters canary_req=$CANARY_REQ scale_ups=$SCALE_UPS transitions=$TRANSITIONS OK"
  rm -f "$CKPT_V1" "$CKPT_V2"
}

run_telemetry() {
  # --- cross-process collective allreduce trace -----------------------------
  local TBASE=$((BASE_PORT + 80))
  local TSPEC="" i
  local -a tpids=()
  for i in 0 1; do
    local port=$((TBASE + i))
    local addr="127.0.0.1:${port}"
    TSPEC="${TSPEC:+$TSPEC,}$addr"
    TFHPC_TRACE_OUT="$LOGDIR/trace-coll-$i.json" "$BIN/tfserver" -job worker -task "$i" \
      -listen "0.0.0.0:${port}" -advertise "$addr" \
      >"$LOGDIR/telemetry-tfserver-$i.log" 2>&1 &
    tpids+=($!)
    pids+=($!)
  done
  echo "smoke: telemetry leg booted 2 traced tfserver tasks: $TSPEC"
  "$BIN/tfcg" -mode cluster -spec "$TSPEC" -workers 2 -n 128 -iters 200 -tol 1e-6
  for pid in "${tpids[@]}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${tpids[@]}"; do wait "$pid" 2>/dev/null || true; done

  echo "smoke: validating merged collective allreduce trace"
  "$BIN/trace_check" -require-span collective_allreduce \
    -merge "$LOGDIR/trace-collective-merged.json" \
    "$LOGDIR/trace-coll-0.json" "$LOGDIR/trace-coll-1.json"

  # --- cross-process routed predict trace -----------------------------------
  local RTBASE=$((TBASE + 10))
  local FRONT="127.0.0.1:$((RTBASE))"
  local -a rpids=()
  local REPLICAS=""
  for i in 1 2; do
    local haddr="127.0.0.1:$((RTBASE + 2 * i))"
    local raddr="127.0.0.1:$((RTBASE + 2 * i + 1))"
    REPLICAS="${REPLICAS:+$REPLICAS,}$raddr"
    TFHPC_TRACE_OUT="$LOGDIR/trace-replica-$i.json" "$BIN/tfserve" -listen "$haddr" -rpc "$raddr" \
      -synthetic routed -features 32 -steps 10 \
      >"$LOGDIR/telemetry-replica-$i.log" 2>&1 &
    rpids+=($!)
    pids+=($!)
  done
  TFHPC_TRACE_OUT="$LOGDIR/trace-router.json" "$BIN/tfserve" -listen "$FRONT" -route "$REPLICAS" \
    >"$LOGDIR/telemetry-router.log" 2>&1 &
  rpids+=($!)
  pids+=($!)

  echo "smoke: routed predicts through the traced front"
  local BODY='{"instances": [[0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1]]}'
  local ok=0
  for _ in $(seq 1 100); do
    if curl -sf -X POST "http://$FRONT/v1/models/routed:predict" -d "$BODY" >/dev/null; then
      ok=$((ok + 1))
      [ "$ok" -ge 20 ] && break
    fi
    sleep 0.1
  done
  if [ "$ok" -lt 20 ]; then
    echo "smoke: FAIL — only $ok/20 routed predicts succeeded"
    exit 1
  fi
  local ROUTED
  ROUTED=$(scrape_metric "$FRONT" tfhpc_router_routed_total)
  if [ "${ROUTED:-0}" -lt 20 ]; then
    echo "smoke: FAIL — router /metricz shows routed=$ROUTED, want >= 20"
    exit 1
  fi
  for pid in "${rpids[@]}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${rpids[@]}"; do wait "$pid" 2>/dev/null || true; done

  echo "smoke: validating merged routed-predict trace"
  "$BIN/trace_check" -require-span router_predict -require-span stream_predict_serve \
    -merge "$LOGDIR/trace-routed-merged.json" \
    "$LOGDIR/trace-router.json" "$LOGDIR/trace-replica-1.json" "$LOGDIR/trace-replica-2.json"
}

run_generate() {
  local GPORT=$((BASE_PORT + 120))
  local GADDR="127.0.0.1:${GPORT}"
  local GCKPT
  GCKPT=$(mktemp -t tfhpc_generate_XXXX.ckpt)

  echo "smoke: training + checkpointing the autoregressive model"
  "$BIN/tfsgd" -mode real -features 32 -rows 128 -workers 2 -steps 30 -gen-checkpoint "$GCKPT"

  echo "smoke: booting tfserve with the generative engine on $GADDR"
  # -gen-max-tokens lifted: the join-proof stream must keep decoding under
  # backpressure until the client has seen it straddle a whole second stream.
  "$BIN/tfserve" -listen "$GADDR" -genmodel "gen=$GCKPT" -gen-slots 4 -deadline 10s \
    -gen-max-tokens 1048576 \
    >"$LOGDIR/tfserve-generate.log" 2>&1 &
  pids+=($!)

  echo "smoke: concurrent SSE streams (bit-identity, interleaving, cancel reclaim)"
  "$BIN/generate_smoke" -addr "http://$GADDR" -model gen -features 32 -streams 6

  echo "smoke: generate /metricz scrape after load"
  local SEQS TOKENS
  SEQS=$(scrape_metric "$GADDR" tfhpc_generate_sequences_total)
  TOKENS=$(scrape_metric "$GADDR" tfhpc_generate_tokens_total)
  if [ "${SEQS:-0}" -lt 13 ] || [ "${TOKENS:-0}" -le 0 ]; then
    echo "smoke: FAIL — generate counters flat (sequences=$SEQS tokens=$TOKENS, want >= 13 sequences)"
    exit 1
  fi
  echo "smoke: generate counters sequences=$SEQS tokens=$TOKENS OK"
  rm -f "$GCKPT"
}

# Internal re-entry point: `ci_smoke.sh --leg <name>` runs one leg directly
# (no timeout wrapper) — it is what the wrapper execs under timeout(1).
if [ "${1:-}" = "--leg" ]; then
  "run_${2:?--leg needs a leg name}"
  exit 0
fi

LEG_TIMEOUT=${LEG_TIMEOUT:-420}
run_leg() {
  local leg=$1 rc=0
  echo "smoke: leg '$leg' (timeout ${LEG_TIMEOUT}s)"
  timeout --kill-after=20 "$LEG_TIMEOUT" "$SELF" --leg "$leg" || rc=$?
  if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
    echo "smoke: FAIL — leg '$leg' exceeded its ${LEG_TIMEOUT}s timeout" >&2
    exit 97
  elif [ "$rc" -ne 0 ]; then
    echo "smoke: FAIL — leg '$leg' exited $rc" >&2
    exit "$rc"
  fi
}

case "$SMOKE_ONLY" in
  core) run_leg core ;;
  elastic) run_leg elastic ;;
  rollout) run_leg rollout ;;
  telemetry) run_leg telemetry ;;
  generate) run_leg generate ;;
  all)
    run_leg core
    run_leg elastic
    run_leg rollout
    run_leg telemetry
    run_leg generate
    ;;
  *)
    echo "smoke: unknown SMOKE_ONLY=$SMOKE_ONLY (want core|elastic|rollout|telemetry|generate|all)" >&2
    exit 1
    ;;
esac

echo "smoke: OK"
