#!/usr/bin/env bash
# Distributed smoke test: the worker protocol's correctness contract,
# end to end over real HTTP with real processes.
#
#   1. A distributed campaign executed by two reprod worker processes —
#      one of which abandons its leases mid-run, simulating a crash —
#      must produce a dataset whose SHA-256 equals cmd/determinism's
#      hash for the same spec. Lease expiry and re-issue must not cost
#      a byte of correctness.
#   2. The lease telemetry must record the crash: expiries and
#      re-issues on repro_lease_events_total, every shard accepted
#      exactly once on repro_shard_results_total, and per-worker
#      shard-duration histograms for both worker IDs.
#   3. The coordinator itself must never simulate: runs_started stays 1
#      (the distributed job) and no in-process campaign runs.
#
# CI runs this as the distributed-smoke job; locally: make distributed-smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:8072}"
BASE="http://$ADDR"
SPEC='{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0,"execution":"distributed"}'
LEASE_TTL="2s"

WORK="$(mktemp -d)"
SERVER_PID=""
RUN_PID=""
cleanup() {
    [ -n "$RUN_PID" ] && kill "$RUN_PID" 2>/dev/null || true
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "distributed-smoke: $*"; }

go build -o "$WORK/reprod" ./cmd/reprod
go build -o "$WORK/determinism" ./cmd/determinism

say "reference hash from cmd/determinism (direct engine run)"
"$WORK/determinism" \
    -scenario uncongested -workers 1 -slices 1 \
    > "$WORK/determinism.out"
REF_HASH="$(head -n1 "$WORK/determinism.out" | cut -d' ' -f1)"
say "reference $REF_HASH"

"$WORK/reprod" serve -addr "$ADDR" -data "$WORK/data" -lease-ttl "$LEASE_TTL" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then say "FAIL: server did not come up on $ADDR"; exit 1; fi
    sleep 0.2
done

say "submitting distributed campaign (awaits workers)"
"$WORK/reprod" run -coordinator "$BASE" -spec "$SPEC" -out "$WORK/dataset.jsonl" \
    > "$WORK/report.json" 2> "$WORK/run.log" &
RUN_PID=$!

say "worker w1: claims a batch, crashes after one accepted upload"
"$WORK/reprod" worker -coordinator "$BASE" -id w1 -batch 4 -exit-after-results 1 \
    > "$WORK/w1.stats" 2>/dev/null
say "w1 stats: $(cat "$WORK/w1.stats")"

# One count of running jobs, whoever executes them: the open distributed
# job is in it.
RUNNING="$(curl -fsS "$BASE/v1/healthz" | python3 -c 'import json,sys; print(json.load(sys.stdin)["jobs_running"])')"
[ "$RUNNING" -ge 1 ] \
    || { say "FAIL: healthz jobs_running = $RUNNING with a distributed job open"; exit 1; }

say "letting w1's orphaned leases lapse (TTL $LEASE_TTL)"
sleep 3

say "worker w2: drains the job"
"$WORK/reprod" worker -coordinator "$BASE" -id w2 -batch 4 -exit-when-idle \
    > "$WORK/w2.stats" 2>/dev/null
say "w2 stats: $(cat "$WORK/w2.stats")"

if ! wait "$RUN_PID"; then
    say "FAIL: reprod run did not succeed"
    cat "$WORK/run.log"
    exit 1
fi
RUN_PID=""

GOT_HASH="$(sha256sum "$WORK/dataset.jsonl" | cut -d' ' -f1)"
if [ "$GOT_HASH" != "$REF_HASH" ]; then
    say "FAIL: distributed dataset hash $GOT_HASH != determinism hash $REF_HASH"
    exit 1
fi
say "two-worker dataset (with mid-run crash) matches cmd/determinism: $GOT_HASH"

REPORT_HASH="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["dataset_sha256"])' "$WORK/report.json")"
[ "$REPORT_HASH" = "$REF_HASH" ] \
    || { say "FAIL: run report hash $REPORT_HASH != $REF_HASH"; exit 1; }

say "lease telemetry"
curl -fsS "$BASE/v1/metrics" -o "$WORK/metrics.txt"
SHARDS="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["shards"])' "$WORK/report.json")"
python3 - "$WORK/metrics.txt" "$SHARDS" <<'EOF'
import sys

series = {}
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, _, value = line.rpartition(" ")
    series[name] = float(value)
shards = int(sys.argv[2])

def get(name):
    assert name in series, f"missing series {name}"
    return series[name]

# Every shard accepted exactly once, despite the crash.
assert get('repro_shard_results_total{result="accepted"}') == shards, series
# The crash left leases to expire and be re-issued.
assert get('repro_lease_events_total{event="grant"}') > shards, series
assert get('repro_lease_events_total{event="expire"}') >= 1, series
assert get('repro_lease_events_total{event="reissue"}') >= 1, series
# Both workers left shard-duration samples.
assert get('repro_worker_shard_duration_seconds_count{worker="w1"}') >= 1, series
assert get('repro_worker_shard_duration_seconds_count{worker="w2"}') >= 1, series
# The coordinator merged; it did not simulate. The one started "run" is
# the distributed job itself, and the engine saw zero in-process shards.
assert get('repro_jobs_total{event="started"}') == 1, series
assert get('repro_jobs_total{event="done"}') == 1, series
assert "repro_campaign_shard_duration_seconds_count" not in series or \
    series["repro_campaign_shard_duration_seconds_count"] == 0, series
print("distributed-smoke: lease telemetry OK")
EOF

say "OK: crash-tolerant two-worker campaign == cmd/determinism ($REF_HASH); lease expiry/re-issue recorded"
