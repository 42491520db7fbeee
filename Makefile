# Single entry point for local development and CI: the workflow in
# .github/workflows/ci.yml invokes exactly these targets, so the two
# cannot drift.

GO ?= go

.PHONY: all build test race crash-stress fuzz-smoke bench bench-paper fmt vet lint determinism perf-gate serve check

all: check

build:
	$(GO) build ./...

# test (and race) include cmd/reprod's TestEndToEnd: real reprod
# coordinator, worker and client processes — service, distributed,
# crash, chaos and drain rows — each filing the pinned dataset hash.
# On its own: go test -run TestEndToEnd -v ./cmd/reprod. They also
# re-execute ecnspider and ecnreport, the dataset-to-figures pipeline
# (go test ./cmd/ecnspider ./cmd/ecnreport).
test:
	$(GO) test ./...

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
# added here. -fuzzminimizetime keeps the 200 KB journal seeds from
# spending the whole budget in minimization.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	internal/packet:FuzzWireRoundTrip \
	internal/packet:FuzzPeekMatchesParseIPv4 \
	internal/packet:FuzzParseICMPQuotation \
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

# Benchmark smoke: one iteration of every go test benchmark on the small
# world (campaign engine, world reset, packet path, codecs, coordinator
# ingest) so none of them rots. The artefact pipeline, the extensions
# and the ablations are tests and run in `make test`. Performance
# numbers come from the declared benchmark (bench-paper below,
# bench/README.md), not from this target.
bench:
	REPRO_SCALE=small $(GO) test -bench=. -benchtime=1x ./...

# bench-paper runs the declared benchmark's engine-only workload
# (BENCHMARK.json, bench/README.md) the way the acceptance driver does:
# untraced repetitions of the paper-scale campaign at the pinned seed,
# dataset hash checked against bench/golden.json.
bench-paper:
	$(GO) run ./bench -workload paper-direct -seed 2015 -seconds 15 -trace 0

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

# determinism promotes the parallelism-invariance tests to a pipeline
# check: for every scenario the merged dataset SHA-256 must be
# identical across slices {1,2,8} × workers {1,4,13}, on both the
# timing-wheel and heap schedulers, under both cross-traffic drives
# (lazy catch-up replay and the event-per-boundary oracle). Every cell
# runs the traceroute sweep too (stride 12) and prints the canonical
# digest of its rows in a trailing rows= column, which must be equal
# across slices × workers × scheduler. The whole output — 108 grid
# lines and the OK line — must also equal cmd/determinism/golden.txt,
# so "same bytes, same rows" holds against the last commit too, not only
# within one run. A change meant to move a hash or a digest rewrites the
# file (go run ./cmd/determinism > cmd/determinism/golden.txt) and says
# why.
determinism:
	@out="$$($(GO) run ./cmd/determinism)"; status=$$?; echo "$$out"; \
	[ $$status -eq 0 ] && echo "$$out" | diff -u cmd/determinism/golden.txt - && \
	echo "determinism: output equals cmd/determinism/golden.txt"

# serve runs the campaign-as-a-service control plane (cmd/reprod) in
# the foreground on :8070 with ./reprod-data as the result store; see
# README.md for the curl quickstart.
serve:
	$(GO) run ./cmd/reprod

# perf-gate benchmarks the working tree against PERF_GATE_BASE
# (default origin/main) and fails on >10% campaign wall-clock
# regression or any allocation on the pooled packet-path benchmarks.
perf-gate:
	./scripts/perf_gate.sh

check: fmt vet build test
