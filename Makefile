# COYOTE build/test/bench entry points. Everything is plain `go` under the
# hood; the targets just record the blessed invocations.

GO ?= go

.PHONY: all build test vet race cover bench bench-compare bench-e2e fuzz-smoke smoke-examples sweep metrics-smoke fleet-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race skips the allocation guards (mcf.TestApproxWarmSolveAllocs,
# mcf.TestExactWarmSolveAllocs, gpopt.TestRunStepAllocs,
# spf.TestIncrementalRepairAllocs, root TestComputeAllocs): sync.Pool drops
# items at random under the race detector, so the pooled paths allocate there
# and nowhere else, and the detector's own bookkeeping moves the byte count.
# `make test` runs them; CI has a step for them.
race:
	$(GO) test -race -skip 'Allocs$$' ./...

# cover prints the per-package coverage summary (the CI test job runs this
# so coverage is visible on every push).
cover:
	$(GO) test -cover ./...

# sweep is the cached corpus-sweep gate (DESIGN.md §8): run the golden
# campaign fresh through the content-addressed cache, re-run it (must be
# all cache hits and byte-identical), and diff the results against the
# checked-in golden corpus — any numeric drift fails the target. CI runs
# this on every push and uploads sweep.jsonl as the machine-readable
# campaign artifact.
sweep:
	$(GO) run ./cmd/coyote-sweep run -campaign golden -cache .sweep-cache -out sweep.jsonl -trace sweep-trace.json -v
	$(GO) run ./cmd/coyote-sweep run -campaign golden -cache .sweep-cache -out sweep-rerun.jsonl
	cmp sweep.jsonl sweep-rerun.jsonl
	$(GO) run ./cmd/coyote-sweep status -campaign golden -cache .sweep-cache
	$(GO) run ./cmd/coyote-sweep diff -golden testdata/golden sweep.jsonl

# metrics-smoke is the live end-to-end observability gate: boot
# coyote-serve, warm it with one /state request, then scrape /metrics with
# the strict exposition parser and require the family every subsystem is
# expected to export. Fails if the page is malformed or a family has gone
# missing. CI runs this on every push.
METRICS_ADDR ?= localhost:18080
metrics-smoke: build
	$(GO) build -o /tmp/coyote-serve ./cmd/coyote-serve
	/tmp/coyote-serve -addr $(METRICS_ADDR) -topo NSF -quick & \
	SERVE_PID=$$!; \
	trap 'kill $$SERVE_PID 2>/dev/null' EXIT; \
	$(GO) run ./internal/tools/promcheck \
		-url http://$(METRICS_ADDR)/metrics \
		-warm http://$(METRICS_ADDR)/state \
		-require coyote_lp_solves_total,coyote_lp_iterations_total,coyote_session_events_total,coyote_session_recomputes_total,coyote_par_loops_total,coyote_http_requests_total,coyote_http_request_seconds,coyote_fleet_heartbeats_total,coyote_fleet_shards,coyote_fleet_merged_results_total,coyote_log_records_total \
		-require-samples coyote_lp_solves_total,coyote_session_events_total,coyote_http_requests_total \
		-v

# fleet-smoke is the live fleet-control-room gate (DESIGN.md §11): boot
# coyote-serve as the controller, run the golden campaign as two
# sequential coyote-sweep shards posting heartbeats and results to it,
# then (a) have fleetcheck assert both shards reported final with the
# controller's incrementally merged /fleet/results byte-identical to the
# merge-at-end `coyote-sweep merge` output, and (b) snapshot /fleet and
# /dashboard for CI artifact upload. Shards run sequentially so the
# target behaves on 1-CPU runners; the protocol is the same either way.
FLEET_ADDR ?= localhost:18090
fleet-smoke: build
	$(GO) build -o /tmp/coyote-serve ./cmd/coyote-serve
	$(GO) build -o /tmp/coyote-sweep ./cmd/coyote-sweep
	$(GO) build -o /tmp/fleetcheck ./internal/tools/fleetcheck
	/tmp/coyote-serve -addr $(FLEET_ADDR) -topo NSF -quick & \
	SERVE_PID=$$!; \
	trap 'kill $$SERVE_PID 2>/dev/null' EXIT; \
	/tmp/coyote-sweep run -campaign golden -shard 0/2 -cache .sweep-cache \
		-controller http://$(FLEET_ADDR) -hb 500ms -out fleet-shard0.jsonl -log fleet-shard0.log.jsonl && \
	/tmp/coyote-sweep run -campaign golden -shard 1/2 -cache .sweep-cache \
		-controller http://$(FLEET_ADDR) -hb 500ms -out fleet-shard1.jsonl -log fleet-shard1.log.jsonl && \
	/tmp/coyote-sweep merge -out fleet-merged.jsonl fleet-shard0.jsonl fleet-shard1.jsonl && \
	/tmp/fleetcheck -url http://$(FLEET_ADDR) -shards 2 -merged fleet-merged.jsonl \
		-fleet-out fleet-report.json -dashboard-out fleet-dashboard.html

# bench regenerates $(BENCH_OUT), the machine-readable perf trajectory
# (the committed BENCH_PR*.json files are kept as the historical record;
# their -cpu 4 rows were measured on 1-CPU hosts and are no longer
# produced — `benchjson compare` tolerates the missing rows):
# BenchmarkCompute* (the headline end-to-end pipeline benchmarks), the
# online controller's warm-vs-cold recompute pair, the PR-9
# reaction-latency pair — BenchmarkSessionFailRecover (warm Fail/Recover
# session updates) and BenchmarkSPFRepair (incremental repair vs cold
# all-destination Dijkstras) — plus the sparse-LP core trio:
# BenchmarkExactOPT (internal/mcf, next to its dense oracle),
# BenchmarkSlaveLP (internal/oblivious, next to its cold-chain oracle),
# BenchmarkDualRestart (pivots/op metrics backing the <0.6×
# warm-iteration target), BenchmarkOptimizerStep (the gpopt inner loop,
# whose allocs/op column must read 0), and
# BenchmarkMinMLUApprox (one FPTAS normalization at n=42, one-shot vs
# shared index; the shared-index allocs/op column must read 0 and the
# phases/op and sptrees/op columns are deterministic). Everything runs with
# -benchmem so bytes/op / allocs/op land in the JSON next to ns/op,
# parsed by internal/tools/benchjson (which also records the host CPU
# count — the key to reading per-worker numbers on small runners). CI
# runs this on every push; commit the refreshed file when the numbers
# move materially.
BENCH_OUT ?= BENCH_PR10.json
bench:
	( $(GO) test -run '^$$' -bench '^BenchmarkCompute(NSF)?$$' -benchtime 2x -benchmem . && \
	  $(GO) test -run '^$$' -bench '^BenchmarkComputeEndToEnd$$' -benchtime 20x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'Benchmark(Warm|Cold)Recompute' -benchtime 4x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSessionFailRecover' -benchtime 10x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSPFRepair' -benchtime 200x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkExactOPT' -benchtime 2x -benchmem ./internal/mcf && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSlaveLP' -benchtime 2x -benchmem ./internal/oblivious && \
	  $(GO) test -run '^$$' -bench 'BenchmarkDualRestart' -benchtime 20x -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkOptimizerStep' -benchtime 100x -benchmem ./internal/gpopt && \
	  $(GO) test -run '^$$' -bench 'BenchmarkMinMLUApprox' -benchtime 20x -benchmem ./internal/mcf && \
	  $(GO) test -run '^$$' -bench 'BenchmarkStrategyBuild' -benchtime 2x -benchmem ./internal/strategy && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSemiObliviousAdapt' -benchtime 20x -benchmem ./internal/strategy ) \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson -o $(BENCH_OUT)

# bench-compare measures the suite fresh and diffs it against the last
# committed trajectory point, then prints the full PR-over-PR table.
# Advisory by default (shared runners are noisy); pass
# BENCH_COMPARE_FLAGS=-fail to gate on it.
BENCH_BASELINE ?= BENCH_PR9.json
BENCH_COMPARE_FLAGS ?=
bench-compare:
	$(MAKE) bench BENCH_OUT=bench-fresh.json
	$(GO) run ./internal/tools/benchjson compare $(BENCH_COMPARE_FLAGS) $(BENCH_BASELINE) bench-fresh.json
	$(GO) run ./internal/tools/benchjson trajectory $(wildcard BENCH_PR*.json) bench-fresh.json

# bench-e2e runs one workload of the repository's benchmark (bench/,
# BENCHMARK.json): `make bench-e2e W=scale-ba42` (or cold-geant,
# online-nsf, sweep-golden). Beyond the timings it checks its own output —
# same-seed ops bit-identical, Perf ≤ ECMPPerf, FPTAS/exact within [1, 1+ε],
# every lie set and LSA diff verified, warm flags and failover swap hits on
# online-nsf — and exits non-zero on a failed check, which is what CI gates
# on; the timings stay advisory. `T=1` adds the traced run and its per-layer
# ledger; on cold-geant that includes the stage-by-stage replay of Compute
# through the exported layer functions, which must equal Compute bit for bit.
W ?= scale-ba42
T ?= 0
bench-e2e:
	$(GO) run ./bench -workload $(W) -trace $(T)

# fuzz-smoke runs each native fuzz target briefly — the CI gate that
# malformed real-world topology and MPS files error instead of panicking
# (and, for MPS, that everything parseable round-trips byte-stably; for
# the Prometheus exposition parser, that accepted pages keep coherent
# histograms).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadGraphML$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadSNDlib$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadAuto$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadMPS$$' -fuzztime 15s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime 15s ./internal/obs

# smoke-examples builds and runs every examples/* binary (CI does the same
# so examples cannot silently rot). gravitysweep is the slow one; the
# timeout is generous for 1-CPU runners.
smoke-examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		timeout 900 $(GO) run "./$$d" >/dev/null; \
	done; echo "examples OK"
