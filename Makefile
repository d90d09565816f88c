# COYOTE build/test/bench entry points. Everything is plain `go` under the
# hood; the targets just record the blessed invocations.

GO ?= go

.PHONY: all build test vet race cover bench-e2e bench-counts fuzz-smoke smoke-examples cli-smoke eval-smoke sweep metrics-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race skips the allocation guards — every Test…Allocs, which is what
# -skip 'Allocs$' selects: sync.Pool drops items at random under the race
# detector, so the pooled paths allocate there and nowhere else, and the
# detector's own bookkeeping moves the byte count. `make test` runs them; CI
# has a step for them.
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
		-require coyote_lp_solves_total,coyote_lp_iterations_total,coyote_session_events_total,coyote_session_recomputes_total,coyote_par_loops_total,coyote_http_requests_total,coyote_http_request_seconds,coyote_log_records_total \
		-require-samples coyote_lp_solves_total,coyote_session_events_total,coyote_http_requests_total \
		-v

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

# bench-counts is the gate on the benchmark's deterministic counts: the
# traced ledger of cold-geant, online-nsf and scale-ba42 at seed 1 (about
# 25 s together) must agree with testdata/ledger-counts.json row for row — LP
# solves and pivots by phase, refactorizations, adversary calls, gpopt steps,
# failover plans, fake nodes, par tasks, and mallocs per op within 2 % (the
# list is in internal/tools/ledgercheck). A change that moves a count edits that file
# and says why; wall clock is not looked at. Every workload is run and checked,
# so one report shows all differing rows; the target fails after the last one
# if any run or row failed.
bench-counts:
	@fail=0; for w in cold-geant online-nsf scale-ba42; do \
		$(GO) run ./bench -workload $$w -seed 1 -seconds 1 -trace 1 -json bench-counts-$$w.json && \
		$(GO) run ./internal/tools/ledgercheck testdata/ledger-counts.json bench-counts-$$w.json || fail=1; \
	done; exit $$fail

# fuzz-smoke runs each native fuzz target briefly — the CI gate that
# malformed real-world topology and MPS files error instead of panicking
# (and, for MPS, that everything parseable round-trips byte-stably; for
# the sparse simplex, that a cold solve and an edited warm re-solve of
# decoded LPs match the dense oracle; for the min-MLU crash start, that it
# reaches the all-logical start's optimum on small random graphs without a
# solve error; for the FPTAS kernel, that its shortest-path trees match the
# Bellman–Ford oracle bit for bit and a solve finishes or reports
# ErrUnroutable, and that a whole solve returns the reference oracle's MLU
# and flows bit for bit or its error; for the Prometheus exposition parser,
# that accepted pages keep coherent histograms; for the controller, that
# every POST /update body gets a 200 or a 400 that leaves the event log
# alone; for the session, with or without a precomputed failover plan,
# that any sequence of updates, failures, recoveries and lie syntheses
# replays bit for bit, keeps
# 1 ≤ PERF ≤ ECMP PERF, rolls rejected operations back and keeps its
# live DAGs equal to a cold build; for the weight search, that every
# move's in-place evaluation equals a rebuild bit for bit; for the LSA diff,
# that it finds the name-keyed reference diff's sets and its replay proof
# accepts it; for the exact adversary, that PerfExact's cutting planes reach
# the slave-LP oracle's PERF to 1e-9 under random Abilene splitting ratios
# and margins; for the splitting optimizer, that a few gradient steps over
# 1 to 40 scenario lanes, zero lanes and an underflowed φ included, leave
# θ and the Adam moments equal to the scalar oracle's bit for bit).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadGraphML$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadSNDlib$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadAuto$$' -fuzztime 15s ./internal/scen
	$(GO) test -run '^$$' -fuzz '^FuzzReadMPS$$' -fuzztime 15s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzSolveParity$$' -fuzztime 15s ./internal/lp
	$(GO) test -run '^$$' -fuzz '^FuzzCrashStart$$' -fuzztime 15s ./internal/mcf
	$(GO) test -run '^$$' -fuzz '^FuzzApproxTree$$' -fuzztime 15s ./internal/mcf
	$(GO) test -run '^$$' -fuzz '^FuzzApproxMatchesReference$$' -fuzztime 15s ./internal/mcf
	$(GO) test -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime 15s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzUpdateBody$$' -fuzztime 15s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSessionOps$$' -fuzztime 15s ./internal/delta
	$(GO) test -run '^$$' -fuzz '^FuzzMoveEval$$' -fuzztime 15s ./internal/localsearch
	$(GO) test -run '^$$' -fuzz '^FuzzDiff$$' -fuzztime 15s ./internal/fibbing
	$(GO) test -run '^$$' -fuzz '^FuzzPerfExact$$' -fuzztime 15s ./internal/oblivious
	$(GO) test -run '^$$' -fuzz '^FuzzStepMatchesReference$$' -fuzztime 15s ./internal/gpopt

# smoke-examples builds and runs every examples/* binary (CI does the same
# so examples cannot silently rot). gravitysweep is the slow one; the
# timeout is generous for 1-CPU runners.
smoke-examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		timeout 900 $(GO) run "./$$d" >/dev/null; \
	done; echo "examples OK"

# cli-smoke runs each command-line door once on a small input: compute and
# lie synthesis, topology generation, a file sweep, one registry experiment,
# and the usage error of -messages without -virtual (which must exit
# non-zero before computing anything). Well under a second of compute. The
# experiment runs with -lp-stats and -metrics: the LP solves the per-run
# lines print must add up to the registry's coyote_lp_solves_total at exit
# (counters only go up; -lp-stats reads registry deltas). It also runs with
# -trace, whose span file must hold the solve's oblivious.optimize span
# beneath the experiment's root.
cli-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/coyote -topo Abilene -iters 20 -adv-iters 1 -virtual 3 -json; \
	$(GO) run ./cmd/coyote-scen generate -gen ring -n 6 -seed 1 > "$$tmp/ring6.txt"; \
	$(GO) run ./cmd/coyote-scen sweep -in "$$tmp/ring6.txt" -quick -seed 1 -margins 1,2 -json; \
	$(GO) run ./cmd/coyote-eval -run running -quick -lp-stats -metrics -trace "$$tmp/run.jsonl" > "$$tmp/eval.out" 2> "$$tmp/eval.prom"; \
	cat "$$tmp/eval.out"; \
	if ! grep -q '"name":"oblivious.optimize"' "$$tmp/run.jsonl"; then \
		echo "cli-smoke: the -trace file of coyote-eval -run running holds no oblivious.optimize span"; exit 1; \
	fi; \
	printed=$$(awk '/^\[lp-stats / { for (i = 3; i <= NF; i++) if (split($$i, kv, "=") == 2 && kv[1] == "coyote_lp_solves_total") n += kv[2] } END { print n + 0 }' "$$tmp/eval.out"); \
	dumped=$$(awk '$$1 == "coyote_lp_solves_total" { print $$2 + 0 }' "$$tmp/eval.prom"); \
	if [ "$$printed" = 0 ] || [ "$$printed" != "$$dumped" ]; then \
		echo "cli-smoke: -lp-stats printed $$printed LP solves, the -metrics dump has '$$dumped'"; exit 1; \
	fi; \
	if $(GO) run ./cmd/coyote -topo Abilene -messages "$$tmp/x.json"; then \
		echo "cli-smoke: coyote -messages without -virtual exited 0"; exit 1; \
	fi; \
	echo "cli-smoke OK"

# eval-smoke runs every registry experiment once through coyote-eval under
# the Quick configuration and discards the tables: an experiment that
# returns an error fails the target. About 45 s on 2 CPUs, most of it
# table1.
eval-smoke:
	$(GO) run ./cmd/coyote-eval -all -quick > /dev/null
