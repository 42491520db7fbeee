# Single entry point for local development and CI: the workflow in
# .github/workflows/ci.yml invokes exactly these targets, so the two
# cannot drift.

GO ?= go

.PHONY: all build test test-repeat race crash-stress fuzz-smoke bench bench-paper profile fmt vet lint perf-gate serve check

all: check

build:
	$(GO) build ./...

# test (and race) include cmd/reprod's TestEndToEnd: real reprod
# coordinator, worker and client processes — service, distributed,
# crash, chaos and drain rows — each filing the golden table's hash.
# On its own: go test -run TestEndToEnd -v ./cmd/reprod. They also
# re-execute ecnspider and ecnreport, the dataset-to-figures pipeline
# (go test ./cmd/ecnspider ./cmd/ecnreport), and run the determinism
# grid — slices × workers × scheduler (lanes, heap) × cross-traffic
# (lazy, events), 108 campaigns, each held to its scenario's row of
# internal/campaign/goldentest/small.golden (go test -run
# TestDeterminismGrid ./internal/campaign; race runs its 12 slices=2 ×
# workers=4 cells). That table holds every small-spec pin: to move one,
# copy over it the table a failing grid writes. And they compile the
# data-path packages for arm64 and fail on any fused multiply-add, which
# would round a product differently from amd64 and move dataset bytes
# with the CPU
# (go test -run TestDataPathHasNoFusedFloat ./cmd/ecnspider; ≈ 15 s
# with a cold build cache, under a second warm).
test:
	$(GO) test ./...

# test-repeat runs the tier-1 suite three times over in one process per
# package, without the test cache: a test whose reading depends on
# timing, scheduling or the collector (the allocation ceilings, the
# lease and speculation suites) shows up as a failure here, not as a
# one-in-three flake later.
test-repeat:
	$(GO) test -count=3 ./...

race:
	$(GO) test -race ./...

# crash-stress repeats, under the race detector, the tests that kill a
# coordinator in-process (Server.Abort) and restart another on the same
# data directory: the journal recovery matrix and the mid-campaign
# restart. Anything of the "dead" instance touching the journal or
# still holding the data-dir lock shows up here as a failure, not as a
# one-in-three flake. The recovery matrix executes its shards under
# -race, ~9 min on two cores — hence the explicit timeout.
crash-stress:
	$(GO) test -race -count=20 -timeout 30m -run 'TestRecovery|TestRestart' ./internal/server
	$(GO) test -race -count=20 -run 'TestCoordinatorRestart' ./internal/worker

# fuzz-smoke runs every fuzz target for FUZZTIME (10 s) beyond its seed
# corpus, which is all `go test` alone ever executes. go test takes one
# target per invocation, hence the list; a target added to the tree is
# added here, or cmd/ecnspider's TestFuzzSmokeListsEveryTarget fails.
# -fuzzminimizetime keeps the 200 KB journal seeds from spending the
# whole budget in minimization.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	internal/packet:FuzzWireRoundTrip \
	internal/packet:FuzzPeekMatchesParseIPv4 \
	internal/packet:FuzzParseICMPQuotation \
	internal/netsim:FuzzComputeRoutes \
	internal/dataset:FuzzAppendTrace \
	internal/dataset:FuzzTraceUnmarshal \
	internal/dataset:FuzzTraceScan \
	internal/campaign:FuzzParseSpec \
	internal/campaign:FuzzWireEncode \
	internal/server:FuzzShardResultDecode \
	internal/server:FuzzWALReplay

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $${t#*:} ($${t%%:*}) for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./$${t%%:*}; \
	done

# Benchmark smoke: one iteration of every go test benchmark (campaign
# engine on the small world and, once, paper-direct's campaign, world
# reset, packet path, codecs, coordinator ingest) so none of them rots,
# and no test: `make test`
# runs those. Performance numbers come from the declared benchmark
# (bench-paper below, bench/README.md), not from this target.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# bench-paper runs the declared benchmark's engine-only workloads
# (BENCHMARK.json, bench/README.md) the way the acceptance driver does:
# untraced repetitions of the paper-scale campaign at the pinned seed,
# dataset hash checked against bench/golden.json — the uncongested
# campaign, then the congested-transit one, whose golden hash and
# sim_events pin the cross-traffic replay byte for byte.
bench-paper:
	$(GO) run ./bench -workload paper-direct -seed 2015 -seconds 15 -trace 0
	$(GO) run ./bench -workload paper-transit -seed 2015 -seconds 15 -trace 0

# profile runs paper-direct's campaign once (BenchmarkCampaignPaper:
# DefaultSpec on 2 workers) with a CPU profile and a rate-1 allocation
# profile — every allocation sampled — and prints the top of each: CPU
# time, then allocated bytes (alloc_space), by function. Then it
# compiles the paper world 200 times (BenchmarkWorldBuildPaper/compile,
# the fixed cost before a campaign's first event) under a CPU profile
# and prints its top. The profiles and the test binary stay in
# internal/campaign/ for go tool pprof.
profile:
	cd internal/campaign && $(GO) test -run '^$$' -bench '^BenchmarkCampaignPaper$$' -benchtime 1x \
		-cpuprofile cpu.pprof -memprofile mem.pprof -memprofilerate 1 -o campaign.test .
	cd internal/campaign && $(GO) tool pprof -top -nodecount 25 campaign.test cpu.pprof
	cd internal/campaign && $(GO) tool pprof -top -nodecount 25 -sample_index alloc_space campaign.test mem.pprof
	cd internal/campaign && $(GO) test -run '^$$' -bench '^BenchmarkWorldBuildPaper$$/^compile$$' -benchtime 200x \
		-cpuprofile compile.pprof -o campaign.test .
	cd internal/campaign && $(GO) tool pprof -top -nodecount 25 campaign.test compile.pprof

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs golangci-lint (errcheck, staticcheck, ineffassign, govet —
# see .golangci.yml) when the binary is available; otherwise it falls
# back to go vet so the target never silently passes without checking
# anything. CI installs golangci-lint, so the full set always runs
# there.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "lint: golangci-lint not found; falling back to '$(GO) vet'"; \
		echo "lint: install it from https://golangci-lint.run/welcome/install/ for the full check"; \
		$(GO) vet ./...; \
	fi

# serve runs the campaign-as-a-service control plane (cmd/reprod) in
# the foreground on :8070 with ./reprod-data as the result store; see
# README.md for the curl quickstart.
serve:
	$(GO) run ./cmd/reprod serve

# perf-gate benchmarks the working tree against PERF_GATE_BASE
# (default origin/main) and fails on >10% wall-clock regression in the
# small campaign or the per-shard world build, or on >2% telemetry
# overhead. Allocation counts are tier-1 tests, not gates here.
perf-gate:
	./scripts/perf_gate.sh

check: fmt vet build test
