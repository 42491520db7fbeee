#!/usr/bin/env bash
# perf_gate.sh — benchmark regression gate: base ref vs working tree.
#
# Runs the hot-path benchmark set twice — once in a git worktree of the
# base ref, once in the current tree — renders a benchstat comparison,
# and fails on any of:
#
#   * >PERF_GATE_MAX_REGRESSION_PCT (default 10) slowdown in campaign
#     wall-clock (BenchmarkCampaignWorkers);
#   * >PERF_GATE_MAX_REGRESSION_PCT slowdown in the per-shard world
#     setup cost (BenchmarkShardBuild) — shared frozen blueprints
#     collapsed it from a full generation + all-pairs routing to a
#     lightweight instantiation, and this gate keeps it collapsed;
#   * any allocs/op > 0 on the pooled packet-path, forwarding,
#     scheduler, telemetry and TCP/HTTP exchange benchmarks
#     (BenchmarkCEMarkThroughput, BenchmarkBuildUDPBuf,
#     BenchmarkChecksum1500, BenchmarkRouterForward,
#     BenchmarkICMPRoundTrip — a TTL expiry quoted into the reply's
#     pooled buffer and read in place by the receiver —
#     BenchmarkSimSchedule, BenchmarkSimScheduleSparse,
#     BenchmarkTelemetryHotPath — the flight recorder's write path must
#     stay allocation-free — BenchmarkHandshakeAndExchange,
#     BenchmarkGetExchange: a whole connect → GET → 302 → close cycle
#     runs in recycled connection and probe shells — and
#     BenchmarkWorldReset: resetting a paper-scale world that has just
#     run a trace allocates nothing, or it is an instantiation in
#     disguise);
#   * campaign-level allocations above PERF_GATE_MAX_CAMPAIGN_ALLOCS
#     (default 23200) per BenchmarkCampaignWorkers run — with probes,
#     connections, the HTTP codec and the traceroute sweep (recycled
#     sessions, ICMP quotations read in place, one row slab per sweep)
#     allocation-free in steady state, one world per worker reset
#     between shards — the first of them the world compiling built —
#     and one shell pool per world, a small campaign reads ~19.3k allocs
#     (3 world instantiations, not 13, and a shell per connection open
#     at once, not per web server); the ceiling is that reading + 20 %,
#     and keeps closure-per-probe, copy-per-ICMP, garbage-per-exchange,
#     world-per-shard and shells-per-stack regressions out;
#   * shard-result path allocations above their ceilings, each the
#     reading taken when its path last changed + 20 % —
#     BenchmarkPushShardResult (one small-world upload in steady state,
#     client and coordinator both; 12.7 KB/op) above 15300 B/op,
#     BenchmarkPushShardResultPaper (one 6 x 2500 result per upload with
#     a GC between two, as a worker's simulation separates them;
#     79 KB/op and 182 allocs/op — the coordinator scans the
#     body and decodes only its header, where decoding it read 0.78 MB
#     and 2722 allocs) above 94800 B/op or 219 allocs/op,
#     BenchmarkDecodeShardResult (the coordinator's accept-side scan
#     through a recycled buffer; 1491 B/op and 17 allocs/op, all
#     of it the header) above 1790 B/op or 21 allocs/op,
#     BenchmarkFinalizePaper (13 held 6 x 2500 uploads merged into the
#     store, their traces spliced out of the inflated bodies; 214 KB/op:
#     the encoder's chunk and the report's server union, nothing per
#     trace) above 257300 B/op, BenchmarkDatasetRead (13 x 2500
#     observations through the trace decoder; 1.59 MB/op — 0.53 MB of
#     14-byte observations, 13 exactly-sized slices of 40 KB, plus
#     json.Decoder's line buffer — and 66 allocs/op) above 1904400 B/op
#     or 80 allocs/op, and
#     BenchmarkDatasetWrite (the same set through the chunked encoder;
#     1 alloc/op, its chunk) above 4 allocs/op. A per-upload
#     gzip.NewWriter is ~900 KB, an io.ReadAll of a body or an
#     inflate-by-doubling hundreds of KB to megabytes, encoding/json's
#     sync.Pool'd encode buffer regrown after a GC 4 MB per paper-scale
#     upload, reflective encoding/json two allocations per observation,
#     a decoded upload 0.6 MB of observations, a decoding merge 2 MB a
#     shard: each fails here, not in the ledger. The ceilings are
#     constants below, not knobs: a PR that changes the path edits them
#     in the same diff;
#   * >PERF_GATE_MAX_TELEMETRY_PCT (default 2) instrumentation
#     overhead, from BenchmarkCampaignTelemetry's `overhead-%` metric:
#     the benchmark runs plain/instrumented campaign pairs back to back
#     in alternating order and reports the paired difference, so
#     in-process drift (GC pacing) cannot masquerade as telemetry cost
#     — the budget that keeps the flight recorder always-on in the
#     control plane.
#
# Environment knobs:
#   PERF_GATE_BASE                base ref to compare against (default origin/main)
#   PERF_GATE_COUNT               benchmark repetitions (default 5)
#   PERF_GATE_MAX_REGRESSION_PCT  wall-clock slowdown tolerance (default 10)
#   PERF_GATE_MAX_CAMPAIGN_ALLOCS campaign allocs/op ceiling (default 23200)
#   PERF_GATE_MAX_TELEMETRY_PCT   instrumented-campaign overhead tolerance (default 2)
set -euo pipefail

BASE_REF="${PERF_GATE_BASE:-origin/main}"
COUNT="${PERF_GATE_COUNT:-5}"
MAX_PCT="${PERF_GATE_MAX_REGRESSION_PCT:-10}"
MAX_CAMPAIGN_ALLOCS="${PERF_GATE_MAX_CAMPAIGN_ALLOCS:-23200}"
MAX_TELEMETRY_PCT="${PERF_GATE_MAX_TELEMETRY_PCT:-2}"
# Shard-result path ceilings (each benchmark's reading when its path
# last changed + 20 %): fixed.
MAX_PUSH_BYTES=15300
MAX_PUSH_PAPER_BYTES=94800
MAX_PUSH_PAPER_ALLOCS=219
MAX_DECODE_BYTES=1790
MAX_DECODE_ALLOCS=21
MAX_FINALIZE_BYTES=257300
MAX_DATASET_READ_BYTES=1904400
MAX_DATASET_READ_ALLOCS=80
MAX_DATASET_WRITE_ALLOCS=4
# Campaign runs few iterations (each is a whole campaign); the packet
# and scheduler hot-path benches run many so pool warmup amortises to a
# true 0 allocs/op steady state.
CAMPAIGN_FILTER='BenchmarkCampaignWorkers/workers=4$|BenchmarkWorldReset$|BenchmarkCampaignTelemetry$'
RESULT_PATH_FILTER='BenchmarkPushShardResult$|BenchmarkPushShardResultPaper$|BenchmarkDecodeShardResult$|BenchmarkDatasetWrite$|BenchmarkDatasetRead$'
HOTPATH_FILTER='BenchmarkCEMarkThroughput|BenchmarkBuildUDPBuf$|BenchmarkChecksum1500$|BenchmarkRouterForward$|BenchmarkICMPRoundTrip$|BenchmarkSimSchedule|BenchmarkSimScheduleSparse|BenchmarkTelemetryHotPath$|BenchmarkHandshakeAndExchange$|BenchmarkGetExchange$'

root="$(git rev-parse --show-toplevel)"
cd "$root"
work="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

run_bench() (
    cd "$1"
    # Warm up, unrecorded: after an idle spell a small VM's second vCPU
    # takes about a second of load to come up, and the first tree's first
    # benchmark — the multi-worker campaign the wall-clock gate compares
    # — would read 2x slow for it (EXPERIMENTS.md, PR 21).
    REPRO_SCALE=small REPRO_TRACES=2 go test -run='^$' -bench='BenchmarkCampaignWorkers/workers=4$' \
        -benchtime=20x ./internal/campaign/ >/dev/null
    # Small world, few traces: the gate measures per-packet cost, not scale.
    REPRO_SCALE=small REPRO_TRACES=2 go test -run='^$' -bench="$CAMPAIGN_FILTER" \
        -benchmem -benchtime=2x -count="$COUNT" ./internal/campaign/
    # The per-shard world build is a 0.2 ms operation: at two iterations
    # its 10 % wall-clock gate would be comparing noise.
    REPRO_SCALE=small go test -run='^$' -bench='BenchmarkShardBuild$' \
        -benchmem -benchtime=200x -count="$COUNT" ./internal/campaign/
    go test -run='^$' -bench="$HOTPATH_FILTER" \
        -benchmem -benchtime=20000x -count="$COUNT" ./internal/aqm/ ./internal/packet/ ./internal/netsim/ ./internal/telemetry/ \
        ./internal/tcpsim/ ./internal/httpmin/
    # The shard-result path: steady-state uploads, small and paper-sized,
    # and a paper-sized dataset encode and decode; 200 iterations
    # amortise the free lists' first fill.
    go test -run='^$' -bench="$RESULT_PATH_FILTER" \
        -benchmem -benchtime=200x -count="$COUNT" ./internal/server/ ./internal/dataset/
    # The paper-scale merge writes a 27 MB dataset into a store an
    # iteration: five of them, no free list to amortise.
    go test -run='^$' -bench='BenchmarkFinalizePaper$' \
        -benchmem -benchtime=5x -count="$COUNT" ./internal/server/
)

echo "perf-gate: benchmarking working tree (count=$COUNT)..."
run_bench "$root" | tee "$work/head.txt"

echo "perf-gate: benchmarking base ($BASE_REF)..."
git worktree add --quiet --detach "$work/base" "$BASE_REF"
run_bench "$work/base" > "$work/base.txt" || {
    echo "perf-gate: base benchmarks failed (new benchmarks on an old base are fine); continuing with what ran"
}

if command -v benchstat >/dev/null 2>&1; then
    echo "perf-gate: benchstat comparison (base vs head):"
    benchstat "$work/base.txt" "$work/head.txt" || true
else
    echo "perf-gate: benchstat not installed — skipping the pretty report" \
         "(go install golang.org/x/perf/cmd/benchstat@latest)"
fi

fail=0

# Gate 1: zero allocs/op on the pooled packet-path, forwarding,
# scheduler, telemetry-write-path, TCP/HTTP exchange and world-reset
# benchmarks.
bad_allocs="$(awk '/^Benchmark(CEMarkThroughput|BuildUDPBuf|Checksum1500|RouterForward|SimSchedule|TelemetryHotPath|HandshakeAndExchange|GetExchange|WorldReset)/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i+0 > 0) print $1, $i, "allocs/op"
}' "$work/head.txt" | sort -u)"
if [ -n "$bad_allocs" ]; then
    echo "perf-gate: FAIL — pooled packet-path, forwarding, scheduler, telemetry, TCP/HTTP exchange and world-reset benchmarks must report 0 allocs/op:"
    echo "$bad_allocs"
    fail=1
fi
grep -q '^BenchmarkWorldReset' "$work/head.txt" || { echo "perf-gate: FAIL — BenchmarkWorldReset did not run"; fail=1; }

# Gate 2: campaign-level allocations. Recycled probe, connection,
# codec and traceroute-session state and one reset world per worker
# keep a small campaign around ~23k allocs/op; the ceiling catches a
# reintroduced closure-per-probe, copy-per-ICMP, per-phantom,
# garbage-per-exchange or world-per-shard pattern long before it shows
# up as wall-clock.
bad_campaign_allocs="$(awk -v max="$MAX_CAMPAIGN_ALLOCS" '/^BenchmarkCampaignWorkers/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op" && $i+0 > max) print $1, $i, "allocs/op >", max
}' "$work/head.txt" | sort -u)"
if [ -n "$bad_campaign_allocs" ]; then
    echo "perf-gate: FAIL — campaign allocations exceed PERF_GATE_MAX_CAMPAIGN_ALLOCS=$MAX_CAMPAIGN_ALLOCS:"
    echo "$bad_campaign_allocs"
    fail=1
fi

# Gate 2b: the shard-result path's per-operation allocation. The
# ceilings sit 20 % above what recycled encoders, sized reads and the
# hand-written trace codec measure (the comment at the top has the
# numbers), far below what any one reintroduced copy costs.
bad_result_path="$(awk -v push="$MAX_PUSH_BYTES" -v paperb="$MAX_PUSH_PAPER_BYTES" -v papera="$MAX_PUSH_PAPER_ALLOCS" \
    -v decodeb="$MAX_DECODE_BYTES" -v decodea="$MAX_DECODE_ALLOCS" -v finalize="$MAX_FINALIZE_BYTES" \
    -v readb="$MAX_DATASET_READ_BYTES" -v reada="$MAX_DATASET_READ_ALLOCS" -v write="$MAX_DATASET_WRITE_ALLOCS" '
    function check(unit, max) {
        for (i = 2; i < NF; i++) if ($(i+1) == unit && $i+0 > max) print $1, $i, unit, ">", max
    }
    # $1 is the name plus a -GOMAXPROCS suffix (absent on one CPU).
    $1 ~ /^BenchmarkPushShardResult(-[0-9]+)?$/      { check("B/op", push) }
    $1 ~ /^BenchmarkPushShardResultPaper(-[0-9]+)?$/ { check("B/op", paperb); check("allocs/op", papera) }
    $1 ~ /^BenchmarkDecodeShardResult(-[0-9]+)?$/    { check("B/op", decodeb); check("allocs/op", decodea) }
    $1 ~ /^BenchmarkFinalizePaper(-[0-9]+)?$/        { check("B/op", finalize) }
    $1 ~ /^BenchmarkDatasetRead(-[0-9]+)?$/          { check("B/op", readb); check("allocs/op", reada) }
    $1 ~ /^BenchmarkDatasetWrite(-[0-9]+)?$/         { check("allocs/op", write) }
' "$work/head.txt" | sort -u)"
if [ -n "$bad_result_path" ]; then
    echo "perf-gate: FAIL — shard-result path allocations exceed their ceilings:"
    echo "$bad_result_path"
    fail=1
fi
for b in BenchmarkPushShardResult BenchmarkPushShardResultPaper BenchmarkDecodeShardResult BenchmarkFinalizePaper BenchmarkDatasetWrite BenchmarkDatasetRead; do
    grep -Eq "^$b(-[0-9]+)?[[:space:]]" "$work/head.txt" || { echo "perf-gate: FAIL — $b did not run"; fail=1; }
done

# Gate 3: instrumentation overhead. BenchmarkCampaignTelemetry reports
# the paired plain-vs-instrumented difference itself (order-alternated
# within one process), so the gate takes the median of its `overhead-%`
# metric across the count repetitions — median, not mean, so one noisy
# repetition on a small machine cannot tip the verdict.
telemetry_overhead="$(awk -v maxpct="$MAX_TELEMETRY_PCT" '
    /^BenchmarkCampaignTelemetry/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "overhead-%") v[++cnt] = $i
    }
    END {
        if (cnt == 0) { print "BenchmarkCampaignTelemetry overhead-% rows missing"; exit 1 }
        for (a = 1; a <= cnt; a++)
            for (b = a + 1; b <= cnt; b++)
                if (v[b] + 0 < v[a] + 0) { t = v[a]; v[a] = v[b]; v[b] = t }
        med = (cnt % 2) ? v[(cnt + 1) / 2] : (v[cnt / 2] + v[cnt / 2 + 1]) / 2
        printf "BenchmarkCampaignTelemetry paired overhead median=%+.1f%% (%d runs)\n", med, cnt
        if (med > maxpct) exit 1
    }
' "$work/head.txt")" || {
    echo "perf-gate: FAIL — telemetry overhead exceeds PERF_GATE_MAX_TELEMETRY_PCT=${MAX_TELEMETRY_PCT}%:"
    echo "$telemetry_overhead"
    fail=1
}
[ $fail -eq 1 ] || echo "$telemetry_overhead"

# Gate 4: wall-clock regression vs base, on mean ns/op, for the campaign
# and the per-shard world setup. A benchmark absent on base (or whose
# base meaning differs — BenchmarkShardBuild predates shared worlds)
# can only pass or improve; the comparison keeps it from regressing
# again afterwards.
regressions="$(awk -v maxpct="$MAX_PCT" '
    function basename(n) { sub(/-[0-9]+$/, "", n); return n }
    FNR == 1 { file++ }
    /^Benchmark(CampaignWorkers|ShardBuild)/ {
        for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") {
            n = basename($1)
            if (file == 1) { hsum[n] += $i; hcnt[n]++ } else { bsum[n] += $i; bcnt[n]++ }
        }
    }
    END {
        for (n in hsum) {
            if (!(n in bsum)) continue  # benchmark absent on base: nothing to gate
            head = hsum[n] / hcnt[n]; base = bsum[n] / bcnt[n]
            pct = (head - base) * 100 / base
            printf "%s base=%.0fns/op head=%.0fns/op delta=%+.1f%%\n", n, base, head, pct
            if (pct > maxpct) bad = 1
        }
        exit bad
    }
' "$work/head.txt" "$work/base.txt")" || {
    echo "perf-gate: FAIL — wall-clock regressed more than ${MAX_PCT}%:"
    echo "$regressions"
    fail=1
}
[ $fail -eq 1 ] || echo "$regressions"

if [ $fail -ne 0 ]; then
    exit 1
fi
echo "perf-gate: OK"
