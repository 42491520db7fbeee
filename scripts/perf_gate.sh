#!/usr/bin/env bash
# perf_gate.sh — wall-clock regression gate: base ref vs working tree.
#
# Runs the campaign benchmarks twice — once in a git worktree of the
# base ref, once in the current tree — renders a benchstat comparison,
# and fails on either of:
#
#   * >10 % slowdown in campaign wall-clock (BenchmarkCampaignWorkers)
#     or in the per-shard world setup cost (BenchmarkShardBuild) —
#     shared frozen blueprints collapsed it from a full generation +
#     all-pairs routing to a lightweight instantiation, and this gate
#     keeps it collapsed;
#   * >2 % instrumentation overhead, from BenchmarkCampaignTelemetry's
#     `overhead-%` metric: the benchmark runs plain/instrumented
#     campaign pairs back to back in alternating order and reports the
#     paired difference, so in-process drift (GC pacing) cannot
#     masquerade as telemetry cost — the budget that keeps the flight
#     recorder always-on in the control plane.
#
# These are the gates that compare timings. Allocation counts are not
# here: each ceiling is a tier-1 test beside the code it pins
# (TestCampaignAllocs, TestWorldResetAllocFree, TestWorldBuildBudget —
# a paper world's compile, instantiate and retained bytes, and its
# 64 KB scaffolding ceiling on what each build allocates beyond what it
# keeps — TestShardResultPathAllocs, TestDatasetReadAllocs, the
# *AllocFree tests), run by `go test ./...`.
#
# Environment: PERF_GATE_BASE, the base ref to compare against
# (default origin/main).
set -euo pipefail

BASE_REF="${PERF_GATE_BASE:-origin/main}"
COUNT=5
MAX_PCT=10
MAX_TELEMETRY_PCT=2

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
    go test -run='^$' -bench='BenchmarkCampaignWorkers/workers=4$' -benchtime=20x ./internal/campaign/ >/dev/null
    go test -run='^$' -bench='BenchmarkCampaignWorkers/workers=4$|BenchmarkCampaignTelemetry$' \
        -benchtime=2x -count="$COUNT" ./internal/campaign/
    # The per-shard world build is a 0.2 ms operation: at two iterations
    # its 10 % wall-clock gate would be comparing noise.
    go test -run='^$' -bench='BenchmarkShardBuild$' -benchtime=200x -count="$COUNT" ./internal/campaign/
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

# Gate 3: instrumentation overhead — the median of the `overhead-%`
# metric across the count repetitions; median, not mean, so one noisy
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
    echo "perf-gate: FAIL — telemetry overhead exceeds ${MAX_TELEMETRY_PCT}%:"
    fail=1
}
echo "$telemetry_overhead"

# Gate 4: wall-clock regression vs base, on mean ns/op, for the campaign
# and the per-shard world setup. A benchmark absent on base can only
# pass or improve; the comparison keeps it from regressing afterwards.
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
    fail=1
}
echo "$regressions"

[ $fail -eq 0 ] || exit 1
echo "perf-gate: OK"
