#!/usr/bin/env bash
# Service smoke test: the control plane's correctness contract, end to
# end over real HTTP against a real cmd/reprod process.
#
#   1. A dataset served by reprod must hash to cmd/determinism's SHA-256
#      for the same spec — the engine's determinism invariant carried
#      over HTTP — and to the hash reprod's own run report claims.
#   2. Resubmitting the spec must be a cache hit: byte-identical
#      dataset, and the job series on /v1/metrics prove no second
#      simulation ran (one job started, one store hit).
#   3. The flight recorder works end to end: /v1/metrics serves the key
#      Prometheus series with values matching the run that just
#      happened, and /v1/jobs/{id}/events replays the job's lifecycle.
#
# CI runs this as the service-smoke job; locally: make smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:8071}"
BASE="http://$ADDR"
SPEC='{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0}'

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "service-smoke: $*"; }
jsonval() { python3 -c 'import json,sys; print(json.load(sys.stdin)['"$1"'])'; }

go build -o "$WORK/reprod" ./cmd/reprod
go build -o "$WORK/determinism" ./cmd/determinism

say "reference hash from cmd/determinism (direct engine run)"
"$WORK/determinism" \
    -scenario uncongested -workers 1 -slices 1 \
    > "$WORK/determinism.out"
REF_HASH="$(head -n1 "$WORK/determinism.out" | cut -d' ' -f1)"
say "reference $REF_HASH"

"$WORK/reprod" serve -addr "$ADDR" -data "$WORK/data" &
SERVER_PID=$!

for i in $(seq 1 50); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then say "FAIL: server did not come up on $ADDR"; exit 1; fi
    sleep 0.2
done

say "cold submission"
SUBMIT="$(curl -fsS -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/campaigns")"
JOB="$(echo "$SUBMIT" | jsonval '"id"')"

for i in $(seq 1 300); do
    STATE="$(curl -fsS "$BASE/v1/jobs/$JOB" | jsonval '"state"')"
    case "$STATE" in
        done) break ;;
        failed) say "FAIL: job failed"; curl -fsS "$BASE/v1/jobs/$JOB"; exit 1 ;;
    esac
    if [ "$i" = 300 ]; then say "FAIL: job $JOB did not finish"; exit 1; fi
    sleep 0.2
done
say "job $JOB done"

# Per-shard completion is exposed and fully done.
SHARDS="$(curl -fsS "$BASE/v1/jobs/$JOB/shards" \
    | python3 -c 'import json,sys; s=json.load(sys.stdin)["shards"]; print(len(s), sum(x["state"]=="done" for x in s))')"
say "shards (total done): $SHARDS"
[ "$(echo "$SHARDS" | awk '{print ($1>0 && $1==$2)}')" = 1 ] \
    || { say "FAIL: shards not all done: $SHARDS"; exit 1; }

curl -fsS "$BASE/v1/jobs/$JOB/dataset" -o "$WORK/dataset1.jsonl"
GOT_HASH="$(sha256sum "$WORK/dataset1.jsonl" | cut -d' ' -f1)"
if [ "$GOT_HASH" != "$REF_HASH" ]; then
    say "FAIL: served dataset hash $GOT_HASH != determinism hash $REF_HASH"
    exit 1
fi
say "served dataset matches cmd/determinism: $GOT_HASH"

META_HASH="$(curl -fsS "$BASE/v1/jobs/$JOB/report" | jsonval '"dataset_sha256"')"
[ "$META_HASH" = "$REF_HASH" ] \
    || { say "FAIL: report hash $META_HASH != $REF_HASH"; exit 1; }

say "resubmission (must be served from cache)"
SUBMIT2="$(curl -fsS -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/campaigns")"
CACHED="$(echo "$SUBMIT2" | python3 -c 'import json,sys; j=json.load(sys.stdin); print(j["cached"], j["state"])')"
[ "$CACHED" = "True done" ] \
    || { say "FAIL: resubmission not a cache hit: $SUBMIT2"; exit 1; }

JOB2="$(echo "$SUBMIT2" | jsonval '"id"')"
curl -fsS "$BASE/v1/jobs/$JOB2/dataset" -o "$WORK/dataset2.jsonl"
cmp -s "$WORK/dataset1.jsonl" "$WORK/dataset2.jsonl" \
    || { say "FAIL: cache hit served different bytes"; exit 1; }

say "metrics scrape"
curl -fsS "$BASE/v1/metrics" -o "$WORK/metrics.txt"
python3 - "$WORK/metrics.txt" <<'EOF'
import sys

series = {}
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, _, value = line.rpartition(" ")
    series[name] = float(value)

def get(name):
    assert name in series, f"missing series {name}"
    return series[name]

# Two submissions, one run simulated, one store hit, nothing in flight.
assert get('repro_jobs_total{event="submitted"}') == 2, series
assert get('repro_jobs_total{event="started"}') == 1, series
assert get('repro_jobs_total{event="done"}') == 1, series
assert get('repro_store_requests_total{result="hit"}') == 1, series
assert get("repro_jobs_running") == 0, series
assert get("repro_campaign_shards_running") == 0, series
# The engine's counters flushed: every shard completed on the wheel
# scheduler, traces merged, durations observed.
done = get('repro_campaign_shards_completed_total{result="ok"}')
assert done > 0, series
assert get('repro_sim_events_total{sched="wheel"}') > 0, series
assert get("repro_campaign_traces_completed_total") > 0, series
assert get("repro_campaign_shard_duration_seconds_count") == done, series
# HTTP middleware saw the submissions.
assert get('repro_http_requests_total{route="POST /v1/campaigns",code_class="2xx"}') == 2, series
print(f"service-smoke: metrics OK ({len(series)} series)")
EOF

say "job event journal"
curl -fsS "$BASE/v1/jobs/$JOB/events" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
kinds = [e["kind"] for e in doc["events"]]
assert kinds[0] == "queued" and kinds[1] == "running" and kinds[-1] == "done", kinds
leases, dones = kinds.count("shard-leased"), kinds.count("shard-done")
assert leases > 0 and leases == dones, kinds
assert all(e["job"] == doc["id"] for e in doc["events"]), doc
print(f"service-smoke: journal OK ({len(kinds)} events, {leases} shards)")
' || { say "FAIL: job events journal wrong"; exit 1; }

# A local job's shards were leased like any other: the loopback workers
# are on the scoreboard, in good standing.
curl -fsS "$BASE/v1/workers" | python3 -c '
import json, sys
workers = {w["id"]: w for w in json.load(sys.stdin)["workers"]}
assert "local" in workers and workers["local"]["strikes"] == 0 and workers["local"]["accepted"] > 0, workers
' || { say "FAIL: /v1/workers does not list the loopback workers"; exit 1; }

say "typed-client companion (reprod run via internal/apiclient)"
# The same spec through the typed client must be another pure cache
# hit serving the same bytes, and the decoded report must agree.
"$WORK/reprod" run -coordinator "$BASE" -spec "$SPEC" -out "$WORK/dataset3.jsonl" \
    > "$WORK/report3.json" 2>/dev/null
cmp -s "$WORK/dataset1.jsonl" "$WORK/dataset3.jsonl" \
    || { say "FAIL: typed client fetched different bytes"; exit 1; }
CLIENT_HASH="$(jsonval '"dataset_sha256"' < "$WORK/report3.json")"
[ "$CLIENT_HASH" = "$REF_HASH" ] \
    || { say "FAIL: typed-client report hash $CLIENT_HASH != $REF_HASH"; exit 1; }
curl -fsS "$BASE/v1/metrics" | python3 -c '
import sys
series = dict(l.strip().rpartition(" ")[::2] for l in sys.stdin if l.strip() and not l.startswith("#"))
assert series["repro_jobs_total{event=\"started\"}"] == "1", "typed-client resubmit re-ran the campaign"
assert series["repro_store_requests_total{result=\"hit\"}"] == "2", series
' || { say "FAIL: typed-client resubmit was not a cache hit"; exit 1; }

say "OK: dataset over HTTP == cmd/determinism ($REF_HASH); cache hit did not re-simulate; flight recorder live"
