# Build, lint, and test the whole module. `make` (or `make check`) is
# the CI gate: lint (vet + cosmosvet), build, and the full test suite
# under the race detector. `make ci` mirrors the GitHub workflow
# exactly.

GO ?= go

.PHONY: check ci lint vet cosmosvet build test perfbench race bench bench-json bench-smoke bench-gate bench-trend warm-cache chaos chaos-spec serve-chaos scale-smoke examples clean

check: lint build race

ci: lint build test perfbench race chaos chaos-spec serve-chaos scale-smoke

lint: vet cosmosvet

vet:
	$(GO) vet ./...

cosmosvet:
	$(GO) run ./cmd/cosmosvet -allow-report ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a module of its own (it replaces back onto this one), so
# `go test ./...` at the root never builds it; vet and test it here.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Capture the full benchmark suite as a labelled JSON snapshot next to
# the code: `make bench-json BENCH_LABEL=optimized` appends to BENCH_<date>.json.
BENCH_DATE  ?= $(shell date +%Y%m%d)
BENCH_LABEL ?= snapshot
bench-json:
	$(GO) run ./cmd/cosmos-bench -label $(BENCH_LABEL) -o BENCH_$(BENCH_DATE).json

# A cheap CI guard: the benchmark harness itself must stay runnable.
# Small scale, one iteration each — measures nothing, catches rot.
# Points the harness at the shared trace cache when one was warmed.
# The second leg runs the workload-generation layer benchmark once.
TRACE_CACHE ?= .trace-cache
bench-smoke:
	COSMOS_BENCH_SCALE=small COSMOS_TRACE_CACHE=$(TRACE_CACHE) $(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench AppendAccesses -benchtime 1x -run '^$$' ./internal/workload

# Simulate and cache every benchmark trace once (small scale for CI);
# subsequent tables/bench runs pointed at TRACE_CACHE load instead of
# simulating.
warm-cache:
	$(GO) run ./cmd/cosmos-tables -scale small -trace-cache $(TRACE_CACHE) -warm-cache

# The CI performance gate: capture a small-scale snapshot against the
# warm cache and compare it with the committed baseline. The threshold
# is deliberately generous (shared CI runners are noisy and slower than
# the reference container); it exists to catch order-of-magnitude
# regressions — an accidental serial fallback, a cache that stopped
# hitting — not single-digit drift. Allocation counts are deterministic
# on any machine, so the allocs/op gate is far tighter: it catches a
# reintroduced per-event closure or a lost buffer reuse immediately.
BENCH_GATE_THRESHOLD ?= 300
BENCH_GATE_ALLOC_THRESHOLD ?= 20
bench-gate:
	rm -f /tmp/bench-gate.json
	COSMOS_BENCH_SCALE=small $(GO) run ./cmd/cosmos-bench -label gate -trace-cache $(TRACE_CACHE) \
		-bench 'Table5|Table6|EvaluateThroughput|ServeSLO|ScaleSweep' -o /tmp/bench-gate.json
	$(GO) run ./cmd/cosmos-bench -compare -threshold $(BENCH_GATE_THRESHOLD) \
		-alloc-threshold $(BENCH_GATE_ALLOC_THRESHOLD) BENCH_SMOKE_BASELINE.json /tmp/bench-gate.json

# The performance ledger: snapshot-over-snapshot ns/op history for
# every benchmark label in every committed snapshot file. Fails on a
# malformed snapshot (missing label/date, empty or duplicated
# benchmark lists), so a broken append is caught before it poisons the
# record.
bench-trend:
	@for f in BENCH_*.json; do $(GO) run ./cmd/cosmos-bench -trend $$f || exit 1; done

# A short chaos sweep with the runtime invariant monitor on: 25 seeds
# of random fault plans and delivery perturbation over the unmodified
# protocol must find nothing — at a small machine (16 nodes, where
# every node races on every line) and at the paper's 64-node size.
chaos:
	$(GO) run ./cmd/cosmos-chaos -seeds 25 -quick -nodes 16
	$(GO) run ./cmd/cosmos-chaos -seeds 25 -quick -nodes 64

# One scalesweep cell past the full-map directory's 64-node cliff,
# with the runtime invariant monitor on: every benchmark simulated at
# 256 nodes under the limited-pointer format must stay coherent where
# the exact bitmask cannot go.
scale-smoke:
	$(GO) run ./cmd/cosmos-tables -extra scalesweep -scale small -nodes 256 -dir-format limited -invariants

# The speculation sweep: same fault plans with every Table 2 action
# armed behind the governor — rollback bookkeeping must stay invariant-
# clean under faults. The second leg is a self-check: a planted
# dangling speculative entry must be caught, so the expected exit
# status is exactly 1 (violations found); 0 (missed) and 2 (usage
# error) both fail the target.
chaos-spec:
	$(GO) run ./cmd/cosmos-chaos -seeds 25 -quick -spec
	$(GO) run ./cmd/cosmos-chaos -seeds 4 -quick -corrupt spec-dangling -o /tmp/chaos-spec >/dev/null; test $$? -eq 1

# The serve crash sweep: 100 seeds of kill-and-restore over the online
# prediction service — every restored server must be byte-identical to
# one that never died. The remaining legs are self-checks: deliberately
# corrupted stores (payload damage, mid-WAL damage, a future container
# version) must each be refused with the matching error class, so the
# expected exit status is exactly 1; 0 (missed) and 2 (wrong class or
# usage error) both fail the target.
serve-chaos:
	$(GO) run ./cmd/cosmos-serve -seeds 100
	$(GO) run ./cmd/cosmos-serve -seeds 4 -corrupt snapshot >/dev/null; test $$? -eq 1
	$(GO) run ./cmd/cosmos-serve -seeds 4 -corrupt wal >/dev/null; test $$? -eq 1
	$(GO) run ./cmd/cosmos-serve -seeds 4 -corrupt version >/dev/null; test $$? -eq 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/producer_consumer
	$(GO) run ./examples/custom_workload
	$(GO) run ./examples/accelerate
	$(GO) run ./examples/faults

clean:
	$(GO) clean ./...
