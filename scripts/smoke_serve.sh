#!/usr/bin/env bash
# End-to-end smoke test of the serving layer: build the CLI, start
# `semblock serve` with persistence, drive the HTTP API (create a sharded
# collection, bulk-ingest JSONL, drain candidates, snapshot, metrics),
# register a consumer group with a webhook sink (a local receiver that
# refuses the first delivery, proving bounded retries + at-least-once),
# compact the segment chain through the new endpoint, shut down gracefully
# with SIGTERM, assert the final checkpoint landed on disk, then restart
# the server from the compacted data dir and check the collection — and the
# webhook worker, which must resume delivering from its durable cursor —
# came back intact. CI runs this as the "serve-smoke" job; locally: make smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SMOKE_PORT:-8726}"
BASE="http://$ADDR"
SINK_ADDR="127.0.0.1:${SMOKE_SINK_PORT:-8727}"
BIN="$(mktemp -d)/semblock"
SINKBIN="$(dirname "$BIN")/webhooksink"
DATA="$(mktemp -d)"
LOG="$(mktemp)"
DELIVERIES="$(mktemp)"

cleanup() {
    kill "$PID" 2>/dev/null || true
    kill "$SINKPID" 2>/dev/null || true
    rm -rf "$(dirname "$BIN")" "$DATA" "$LOG" "$DELIVERIES"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/semblock
go build -o "$SINKBIN" ./scripts/webhooksink

start_server() {
    "$BIN" serve -addr "$ADDR" -data-dir "$DATA" -shards 2 -checkpoint 1h -webhook-backoff 50ms >>"$LOG" 2>&1 &
    PID=$!
    for _ in $(seq 1 100); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
        kill -0 "$PID" 2>/dev/null || { echo "server died:"; cat "$LOG"; exit 1; }
        sleep 0.1
    done
    curl -fsS "$BASE/healthz" >/dev/null
}

start_server

curl -fsS -X POST "$BASE/v1/collections" \
    -d '{"name":"smoke","attrs":["name"],"q":2,"k":2,"l":8,"seed":1,"shards":2}' >/dev/null

curl -fsS -X POST "$BASE/v1/collections/smoke/records" \
    -H 'Content-Type: application/x-ndjson' \
    --data-binary $'{"attrs":{"name":"robert smith"}}\n{"attrs":{"name":"mary johnson"}}\n{"attrs":{"name":"robert smyth"}}\n' \
    | grep -q '"count":3'

curl -fsS "$BASE/v1/collections/smoke/candidates" | grep -q '"pairs"'
# One cursor behind two routes: the legacy drain above moved the default
# consumer group to the end of the emitted sequence, so the group route has
# nothing left to hand out.
DEFAULT="$(curl -fsS "$BASE/v1/collections/smoke/consumers/default")"
DEF_CURSOR="$(echo "$DEFAULT" | grep -o '"cursor":[0-9]*' | cut -d: -f2)"
DEF_TOTAL="$(echo "$DEFAULT" | grep -o '"emitted_total":[0-9]*' | cut -d: -f2)"
test "$DEF_TOTAL" -gt 0 && test "$DEF_CURSOR" = "$DEF_TOTAL" \
    || { echo "/candidates did not move the default group's cursor: $DEFAULT"; exit 1; }
curl -fsS "$BASE/v1/collections/smoke/consumers/default/drain" | grep -q '"count":0' \
    || { echo "consumers/default/drain still had pairs after /candidates"; exit 1; }
curl -fsS "$BASE/v1/collections/smoke/snapshot" | grep -q '"technique":"lsh"'
curl -fsS "$BASE/v1/collections/smoke" | grep -q '"records":3'
# The exposition is large now (histogram families); grab it once — piping
# straight into `grep -q` makes curl fail with EPIPE under pipefail.
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q '^semblock_ingested_records_total 3'
echo "$METRICS" | grep -q '^semblock_drained_pairs_total [1-9]' || { echo "the /candidates drain counted no pairs"; exit 1; }

# Observability: every request carries a trace id (header + /debug/traces),
# and the latency histograms exported on /metrics must have observed the
# traffic above — non-zero _count series with HELP/TYPE metadata.
TRACE_ID="$(curl -fsS -D - -o /dev/null "$BASE/v1/collections/smoke" | tr -d '\r' | awk 'tolower($1)=="x-semblock-trace:" {print $2}')"
test -n "$TRACE_ID" || { echo "missing X-Semblock-Trace header"; exit 1; }
curl -fsS "$BASE/debug/traces" | grep -q "\"$TRACE_ID\""
METRICS="$(curl -fsS "$BASE/metrics")"
for family in \
    semblock_http_request_duration_seconds \
    semblock_ingest_batch_duration_seconds \
    semblock_drain_duration_seconds \
    semblock_signature_staging_duration_seconds \
    semblock_gc_pause_seconds; do
    echo "$METRICS" | grep -q "^# TYPE $family histogram" \
        || { echo "missing histogram family $family"; exit 1; }
done
# The traffic above must actually have been observed (gc_pause is exempt:
# a short-lived server may legitimately not have GC'd yet).
for family in \
    semblock_http_request_duration_seconds \
    semblock_ingest_batch_duration_seconds \
    semblock_drain_duration_seconds \
    semblock_signature_staging_duration_seconds; do
    echo "$METRICS" | grep "^${family}_count" | grep -qv ' 0$' \
        || { echo "histogram $family never observed"; exit 1; }
done
echo "$METRICS" | grep -q '^semblock_goroutines [1-9]' || { echo "missing goroutine gauge"; exit 1; }
# The band counters: the three records above were signed (plain LSH skips
# no band, so the skipped family is present at zero).
echo "$METRICS" | grep -q '^semblock_sign_bands_total [1-9]' || { echo "no signed bands counted"; exit 1; }
echo "$METRICS" | grep -q '^semblock_sign_bands_skipped_total 0$' || { echo "missing skipped-bands counter"; exit 1; }

# Consumer groups + push delivery: start a local webhook receiver that
# refuses the first delivery (exercising a retry), register a group from the
# start of the emitted sequence, and wait for the worker to push every pair.
"$SINKBIN" -addr "$SINK_ADDR" -out "$DELIVERIES" -fail-first 1 >>"$LOG" 2>&1 &
SINKPID=$!
for _ in $(seq 1 50); do
    # Probe with GET: the sink only serves POST, so readiness costs none of
    # its -fail-first budget and writes nothing to the delivery file.
    curl -s -o /dev/null "http://$SINK_ADDR/" 2>/dev/null && break
    sleep 0.1
done

curl -fsS -X POST "$BASE/v1/collections/smoke/consumers" \
    -d '{"group":"hook"}' | grep -q '"group":"hook"'
curl -fsS -X PUT "$BASE/v1/collections/smoke/consumers/hook/webhook" \
    -d "{\"url\":\"http://$SINK_ADDR/\"}" | grep -q '"webhook"'
# The group listing shows both cursors; the error envelope is the one error
# shape (stable machine code + message).
curl -fsS "$BASE/v1/collections/smoke/consumers" | grep -q '"group":"default"'
curl -s "$BASE/v1/collections/smoke/consumers/ghost" | grep -q '"code":"unknown_consumer"'

# At-least-once through the refused first attempt: every emitted pair must
# land in the sink file, and the group cursor must reach the emitted total.
PAIRS="$(curl -fsS "$BASE/v1/collections/smoke" | grep -o '"pairs":[0-9]*' | head -1 | cut -d: -f2)"
test "$PAIRS" -gt 0 || { echo "collection emitted no pairs"; exit 1; }
for _ in $(seq 1 100); do
    CURSOR="$(curl -fsS "$BASE/v1/collections/smoke/consumers/hook" | grep -o '"cursor":[0-9]*' | cut -d: -f2)"
    [ "$CURSOR" = "$PAIRS" ] && break
    sleep 0.1
done
test "$CURSOR" = "$PAIRS" || { echo "webhook cursor stuck at $CURSOR of $PAIRS"; cat "$LOG"; exit 1; }
grep -q '"pairs":' "$DELIVERIES" || { echo "sink received no deliveries"; cat "$LOG"; exit 1; }
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q '^semblock_webhook_retries_total [1-9]' \
    || { echo "refused delivery produced no retry"; exit 1; }
echo "$METRICS" | grep -q "semblock_consumer_lag{collection=\"smoke\",group=\"hook\"} 0" \
    || { echo "missing consumer lag gauge"; exit 1; }

# Checkpoint, then compact the chain through the endpoint: the response
# carries the compaction summary and the collection must land on
# generation 1 with a single compacted segment.
curl -fsS -X POST "$BASE/v1/collections/smoke/checkpoint" >/dev/null
COMPACT="$(curl -fsS -X POST "$BASE/v1/collections/smoke/compact")"
echo "$COMPACT" | grep -q '"generation":1'
echo "$COMPACT" | grep -q '"segments_after":1'
curl -fsS "$BASE/metrics" | grep '^semblock_compactions_total 1' >/dev/null
test -f "$DATA/smoke/segment-g001-000001.jsonl" || { echo "missing compacted segment"; ls -R "$DATA"; exit 1; }
test ! -f "$DATA/smoke/segment-000001.jsonl" || { echo "old generation not swept"; ls -R "$DATA"; exit 1; }

kill -TERM "$PID"
wait "$PID" || { echo "server exited non-zero:"; cat "$LOG"; exit 1; }

# The graceful shutdown must have taken a final checkpoint on top of the
# compacted generation.
test -f "$DATA/smoke/manifest.json" || { echo "missing manifest after shutdown"; ls -R "$DATA"; exit 1; }
grep -q '"records": 3' "$DATA/smoke/manifest.json"
grep -q '"generation": 1' "$DATA/smoke/manifest.json"

# Restart from the compacted data dir: restore-on-boot must replay only the
# compacted generation and bring the collection back intact — including the
# consumer group, whose webhook spec and acknowledged cursor rode the
# manifest.
start_server
curl -fsS "$BASE/v1/collections/smoke" | grep -q '"records":3'
curl -fsS "$BASE/v1/collections/smoke" | grep -q '"generation":1'
curl -fsS "$BASE/v1/collections/smoke/snapshot" | grep -q '"technique":"lsh"'
HOOK="$(curl -fsS "$BASE/v1/collections/smoke/consumers/hook")"
echo "$HOOK" | grep -q "\"url\":\"http://$SINK_ADDR/\"" || { echo "webhook spec lost across restart: $HOOK"; exit 1; }
echo "$HOOK" | grep -q "\"cursor\":$PAIRS" || { echo "webhook cursor lost across restart: $HOOK"; exit 1; }

# The restored worker keeps delivering: new records whose pairs reach the
# sink without re-registering anything.
BEFORE="$(wc -l < "$DELIVERIES")"
curl -fsS -X POST "$BASE/v1/collections/smoke/records" \
    -d '{"attrs":{"name":"robert smythe"}}' | grep -q '"count":1'
for _ in $(seq 1 100); do
    AFTER="$(wc -l < "$DELIVERIES")"
    [ "$AFTER" -gt "$BEFORE" ] && break
    sleep 0.1
done
test "$AFTER" -gt "$BEFORE" || { echo "restored webhook worker never delivered"; cat "$LOG"; exit 1; }

kill -TERM "$PID"
wait "$PID" || { echo "server exited non-zero after restart:"; cat "$LOG"; exit 1; }

echo "serve smoke OK"
