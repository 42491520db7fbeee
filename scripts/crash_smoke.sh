#!/usr/bin/env bash
# Crash-smoke test: the coordinator's crash-recovery contract, end to
# end with real processes and a real kill.
#
#   1. A coordinator armed with REPRO_FAILPOINT=server.accept-result:
#      crash-after-journal dies with exit 137 — os.Exit, no cleanup, no
#      flushes — at the exact instant the first shard result is
#      journaled but not yet acknowledged. Two workers are mid-campaign
#      when it happens.
#   2. A fresh coordinator on the same -data directory replays the
#      journal: the journaled result is owned (its worker's retry acks
#      as "duplicate", never a double merge), pending shards are
#      re-exposed, and the workers — riding transparent retry/backoff —
#      drain the job without operator help.
#   3. The merged dataset's SHA-256 must equal cmd/determinism's hash
#      for the same spec: the crash is invisible in the output bytes.
#   4. The telemetry must tell the story: recovery outcome "resumed"
#      with restored shards on the restarted process, worker stats with
#      non-zero retries, runs_started exactly 1 (the resumed job — no
#      shard executes twice beyond what lease re-issue forces), and the
#      journal directory empty once the run files.
#   5. While the job is in flight its journal is exactly one file, and
#      a second coordinator pointed at the live -data directory exits
#      non-zero naming the lock instead of sharing it.
#
# CI runs this as the crash-smoke job; locally: make crash-smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:8073}"
BASE="http://$ADDR"
SPEC='{"spec":1,"scale":"small","traces":2,"seed":2015,"stride":0,"execution":"distributed"}'
# The TTL must outlast the coordinator's restart window: a worker whose
# heartbeats fail for a full TTL abandons the shard it is executing.
LEASE_TTL="5s"

WORK="$(mktemp -d)"
SERVER_PID=""
W1_PID=""
W2_PID=""
cleanup() {
    for pid in "$W1_PID" "$W2_PID" "$SERVER_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "crash-smoke: $*"; }

go build -o "$WORK/reprod" ./cmd/reprod
go build -o "$WORK/determinism" ./cmd/determinism

say "reference hash from cmd/determinism (direct engine run)"
"$WORK/determinism" \
    -scenario uncongested -workers 1 -slices 1 \
    > "$WORK/determinism.out"
REF_HASH="$(head -n1 "$WORK/determinism.out" | cut -d' ' -f1)"
say "reference $REF_HASH"

say "starting doomed coordinator (failpoint: crash after first journaled result)"
REPRO_FAILPOINT="server.accept-result:crash-after-journal" \
    "$WORK/reprod" serve -addr "$ADDR" -data "$WORK/data" -lease-ttl "$LEASE_TTL" \
    2> "$WORK/server1.log" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then say "FAIL: server did not come up on $ADDR"; exit 1; fi
    sleep 0.2
done

say "submitting distributed campaign"
JOB="$(curl -fsS -X POST "$BASE/v1/campaigns" -d "$SPEC" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')"
say "job $JOB"

say "in-flight job: one journal file, one coordinator per data directory"
WALS="$(cd "$WORK/data/journal" && ls *.wal)"
if [ "$WALS" != "$JOB.wal" ]; then
    say "FAIL: journal/ holds [$WALS] for in-flight job $JOB, want exactly $JOB.wal"
    exit 1
fi
RC=0
timeout 10 "$WORK/reprod" serve -addr 127.0.0.1:0 -data "$WORK/data" 2> "$WORK/intruder.log" || RC=$?
if [ "$RC" = 0 ] || ! grep -q "$WORK/data/LOCK" "$WORK/intruder.log"; then
    say "FAIL: second coordinator on the live data dir exited $RC without naming the lock"
    cat "$WORK/intruder.log"
    exit 1
fi

say "starting two workers (they must ride through the crash on retries)"
"$WORK/reprod" worker -coordinator "$BASE" -id w1 -batch 2 -exit-when-idle \
    -retry-max 40 -retry-base 100ms -retry-cap 1s \
    > "$WORK/w1.stats" 2> "$WORK/w1.log" &
W1_PID=$!
"$WORK/reprod" worker -coordinator "$BASE" -id w2 -batch 2 -exit-when-idle \
    -retry-max 40 -retry-base 100ms -retry-cap 1s \
    > "$WORK/w2.stats" 2> "$WORK/w2.log" &
W2_PID=$!

say "waiting for the failpoint to kill the coordinator"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=""
if [ "$RC" != 137 ]; then
    say "FAIL: doomed coordinator exited $RC, want 137"
    cat "$WORK/server1.log"
    exit 1
fi
say "coordinator died with 137 mid-upload; journal owns the unacked result"

say "restarting coordinator on the same data directory (no failpoint)"
"$WORK/reprod" serve -addr "$ADDR" -data "$WORK/data" -lease-ttl "$LEASE_TTL" \
    2> "$WORK/server2.log" &
SERVER_PID=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then say "FAIL: restarted server did not come up"; cat "$WORK/server2.log"; exit 1; fi
    sleep 0.2
done
grep -q "replaying coordinator journal" "$WORK/server2.log" \
    || { say "FAIL: restarted server did not replay the journal"; cat "$WORK/server2.log"; exit 1; }

say "waiting for the workers to drain the recovered job"
wait "$W1_PID" || { say "FAIL: worker w1 errored"; cat "$WORK/w1.log"; exit 1; }
W1_PID=""
wait "$W2_PID" || { say "FAIL: worker w2 errored"; cat "$WORK/w2.log"; exit 1; }
W2_PID=""
say "w1 stats: $(cat "$WORK/w1.stats")"
say "w2 stats: $(cat "$WORK/w2.stats")"

job_state() {
    curl -fsS "$BASE/v1/jobs/$JOB" \
        | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])'
}
STATE="$(job_state)"
if [ "$STATE" != "done" ]; then
    # Both workers can exit idle while lapsed leases still shadow the
    # last shards; one mop-up pass after expiry settles it.
    say "job is '$STATE' after both workers; mopping up after lease expiry"
    sleep 6
    "$WORK/reprod" worker -coordinator "$BASE" -id w3 -batch 4 -exit-when-idle \
        > "$WORK/w3.stats" 2>/dev/null
    STATE="$(job_state)"
fi
[ "$STATE" = "done" ] || { say "FAIL: job state $STATE after recovery, want done"; exit 1; }

GOT_HASH="$(curl -fsS "$BASE/v1/jobs/$JOB/dataset" | sha256sum | cut -d' ' -f1)"
if [ "$GOT_HASH" != "$REF_HASH" ]; then
    say "FAIL: post-crash dataset hash $GOT_HASH != determinism hash $REF_HASH"
    exit 1
fi
say "dataset across the kill matches cmd/determinism: $GOT_HASH"

say "checking worker retries, recovery telemetry and journal cleanup"
curl -fsS "$BASE/v1/metrics" -o "$WORK/metrics.txt"
python3 - "$WORK" <<'EOF'
import glob, json, os, sys

work = sys.argv[1]

# The workers rode through the crash on transparent retries.
retries = 0
for path in (os.path.join(work, "w1.stats"), os.path.join(work, "w2.stats")):
    retries += json.load(open(path)).get("retries", 0)
assert retries > 0, "no worker recorded a retry across the coordinator crash"

series = {}
for line in open(os.path.join(work, "metrics.txt")):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, _, value = line.rpartition(" ")
    series[name] = float(value)

def get(name):
    assert name in series, f"missing series {name}"
    return series[name]

# The restarted process recovered the job from the journal: resumed,
# with the pre-crash journaled result restored (never re-executed).
assert get('repro_recovery_jobs_total{outcome="resumed"}') == 1, series
assert get("repro_recovery_shards_total") >= 1, series
# One job started in the restarted process: the one resumed job. No
# shard's execution is counted beyond what lease re-issue forces.
assert get('repro_jobs_total{event="started"}') == 1, series
# The journal deleted itself once the merged run filed in the store.
leftover = glob.glob(os.path.join(work, "data", "journal", "*.wal"))
assert not leftover, f"journal files survived a completed run: {leftover}"
print("crash-smoke: recovery telemetry OK "
      f"(worker retries={retries}, recovered_shards={int(get('repro_recovery_shards_total'))})")
EOF

say "OK: kill -9-equivalent mid-upload, restart, drain — dataset == cmd/determinism ($REF_HASH)"
