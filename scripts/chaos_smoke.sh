#!/usr/bin/env bash
# Chaos smoke test: the self-healing path, end to end with real
# processes and a deterministically hostile network.
#
#   1. A distributed campaign is worked by one WEDGED worker — it
#      claims a two-shard batch and heartbeats forever without
#      executing — plus two healthy reprod worker processes that reach
#      the coordinator only through the reprod chaosproxy (dropped,
#      delayed, and duplicated requests on fixed counters).
#   2. The job must still complete: straggler speculation re-exposes
#      the wedged shards as speculative twins, the healthy workers win
#      the race, and the dataset's SHA-256 must equal cmd/determinism's
#      hash for the same spec — chaos costs nothing in bytes.
#   3. The scoreboard must bench the straggler: two speculation-loss
#      strikes (quarantine-threshold 2) put the wedged worker in
#      quarantine, visible on GET /v1/workers, and the speculation
#      metrics must record the issued/won race.
#
# CI runs this as the chaos-smoke job; locally: make chaos-smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:8074}"
PROXY_ADDR="${SMOKE_PROXY_ADDR:-127.0.0.1:8075}"
BASE="http://$ADDR"
PROXY_BASE="http://$PROXY_ADDR"
SPEC='{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0,"execution":"distributed"}'
LEASE_TTL="10s"

WORK="$(mktemp -d)"
SERVER_PID=""
PROXY_PID=""
WEDGE_PID=""
RUN_PID=""
W_PIDS=""
cleanup() {
    [ -n "$RUN_PID" ] && kill "$RUN_PID" 2>/dev/null || true
    [ -n "$WEDGE_PID" ] && kill "$WEDGE_PID" 2>/dev/null || true
    for p in $W_PIDS; do kill "$p" 2>/dev/null || true; done
    [ -n "$PROXY_PID" ] && kill "$PROXY_PID" 2>/dev/null || true
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "chaos-smoke: $*"; }

go build -o "$WORK/reprod" ./cmd/reprod
go build -o "$WORK/determinism" ./cmd/determinism

say "reference hash from cmd/determinism (direct engine run)"
"$WORK/determinism" \
    -scenario uncongested -workers 1 -slices 1 \
    > "$WORK/determinism.out"
REF_HASH="$(head -n1 "$WORK/determinism.out" | cut -d' ' -f1)"
say "reference $REF_HASH"

say "coordinator: lease-ttl $LEASE_TTL, speculate-after 1.5, quarantine-threshold 2"
"$WORK/reprod" serve -addr "$ADDR" -data "$WORK/data" \
    -lease-ttl "$LEASE_TTL" -speculate-after 1.5 -quarantine-threshold 2 &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then say "FAIL: server did not come up on $ADDR"; exit 1; fi
    sleep 0.2
done

say "chaos proxy: drop every 7th, delay every 5th by 100ms, dup every 9th"
"$WORK/reprod" chaosproxy -listen "$PROXY_ADDR" -target "$BASE" \
    -drop-every 7 -delay-every 5 -delay 100ms -dup-every 9 2> "$WORK/proxy.log" &
PROXY_PID=$!
sleep 0.3

say "submitting distributed campaign (awaits workers)"
"$WORK/reprod" run -coordinator "$BASE" -spec "$SPEC" -out "$WORK/dataset.jsonl" \
    > "$WORK/report.json" 2> "$WORK/run.log" &
RUN_PID=$!

JOB=""
for i in $(seq 1 50); do
    JOB="$(curl -fsS "$BASE/v1/jobs?state=running" 2>/dev/null \
        | python3 -c 'import json,sys; jobs=json.load(sys.stdin)["jobs"]; print(jobs[0]["id"] if jobs else "")')"
    [ -n "$JOB" ] && break
    sleep 0.2
done
[ -n "$JOB" ] || { say "FAIL: no running job appeared"; exit 1; }
say "job $JOB"

say "wedged worker: claims two shards, heartbeats, never executes"
"$WORK/reprod" worker -coordinator "$BASE" -id wedged -wedge -batch 2 \
    > "$WORK/wedged.stats" 2>/dev/null &
WEDGE_PID=$!
for i in $(seq 1 100); do
    HELD="$(curl -fsS "$BASE/v1/jobs/$JOB/shards" \
        | python3 -c 'import json,sys; print(sum(1 for s in json.load(sys.stdin)["shards"] if s.get("worker")=="wedged" and s.get("state")=="leased"))')"
    [ "$HELD" = 2 ] && break
    if [ "$i" = 100 ]; then say "FAIL: wedged worker never claimed its batch"; exit 1; fi
    sleep 0.1
done
say "wedged worker holds $HELD shards"

say "healthy workers w1, w2 behind the chaos proxy"
"$WORK/reprod" worker -coordinator "$PROXY_BASE" -id w1 -batch 4 \
    > "$WORK/w1.stats" 2>/dev/null &
W_PIDS="$!"
"$WORK/reprod" worker -coordinator "$PROXY_BASE" -id w2 -batch 4 \
    > "$WORK/w2.stats" 2>/dev/null &
W_PIDS="$W_PIDS $!"

if ! wait "$RUN_PID"; then
    say "FAIL: reprod run did not succeed"
    cat "$WORK/run.log"
    exit 1
fi
RUN_PID=""

GOT_HASH="$(sha256sum "$WORK/dataset.jsonl" | cut -d' ' -f1)"
if [ "$GOT_HASH" != "$REF_HASH" ]; then
    say "FAIL: chaos dataset hash $GOT_HASH != determinism hash $REF_HASH"
    exit 1
fi
say "dataset under chaos + wedged worker matches cmd/determinism: $GOT_HASH"

say "speculation and quarantine telemetry"
curl -fsS "$BASE/v1/metrics" -o "$WORK/metrics.txt"
curl -fsS "$BASE/v1/workers" -o "$WORK/workers.json"
python3 - "$WORK/metrics.txt" "$WORK/workers.json" <<'EOF'
import json, sys

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

# The wedged shards were re-exposed and the healthy twins won.
assert get('repro_speculation_total{event="issued"}') >= 2, series
assert get('repro_speculation_total{event="won"}') >= 2, series
# The straggler took speculation-loss strikes and was benched.
assert get('repro_worker_health_events_total{event="quarantine"}') >= 1, series

workers = {w["id"]: w for w in json.load(open(sys.argv[2]))["workers"]}
wedged = workers.get("wedged")
assert wedged is not None, workers
assert wedged["state"] == "quarantined", wedged
assert wedged["speculation_losses"] >= 2, wedged
print("chaos-smoke: speculation + quarantine telemetry OK")
EOF

say "OK: wedged worker beaten by speculation and quarantined; chaos-proxied dataset == cmd/determinism ($REF_HASH)"
