# Build, lint, and test the whole module. `make` (or `make check`) is
# the CI gate: lint (vet + cosmosvet), build, and the full test suite
# under the race detector. `make ci` mirrors the GitHub workflow
# exactly.

GO ?= go

.PHONY: check ci lint fmt vet cosmosvet build test fuzz-smoke perfbench race bench bench-gate chaos chaos-spec serve-chaos scale-smoke examples clean

check: lint build race

ci: lint build test fuzz-smoke perfbench bench-gate race chaos chaos-spec serve-chaos scale-smoke examples

lint: fmt vet cosmosvet

# Every tracked Go file must be gofmt-clean. git ls-files keeps the
# module cache under .bench_build out of the scan; the badparse fixture
# is unparsable on purpose.
fmt:
	@files=$$(gofmt -l $$(git ls-files '*.go' ':!:internal/analysis/testdata/src/badparse')); \
	test -z "$$files" || { echo "not gofmt-clean:"; echo "$$files"; exit 1; }

vet:
	$(GO) vet ./...

cosmosvet:
	@$(GO) run ./cmd/cosmosvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# A short native-fuzzing run of each decoder and of the predictor bank:
# whatever bytes the CTRC trace decoder (Read), the CPSS container
# decoder (DecodeCPSS), the core predictor snapshot decoder (Restore) or
# WAL replay (less its torn tail) accepts must re-encode to exactly
# those bytes, a chaos repro bundle ParseBundle accepts must carry a
# config Validate accepts, and a predictor bank and one predictor per
# configuration must report what a map-based reference Cosmos reports.
# -fuzzminimizetime 0 keeps the budget on executing inputs rather than
# minimizing new ones. `go test` alone only replays the seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCPSS$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReplayWAL$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzBank$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParseBundle$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/chaos

# perfbench is a module of its own (it replaces back onto this one), so
# `go test ./...` at the root never builds it; vet and test it here.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The count gate: every Benchmark* in the module, run once at small
# scale with one P and no GC, must reproduce B/op, allocs/op and every
# custom metric of BENCH_BASELINE.json to within 1%, in either
# direction. `go run ./cmd/cosmos-bench -update` refreshes the
# baseline. Wall time is perfbench's job (bash perfbench/run.sh).
bench-gate:
	$(GO) run ./cmd/cosmos-bench

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

# Every documented example must still run to completion.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/producer_consumer
	$(GO) run ./examples/custom_workload
	$(GO) run ./examples/accelerate
	$(GO) run ./examples/faults

clean:
	$(GO) clean ./...
