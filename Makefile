GO ?= go

.PHONY: all build test race vet ci benchmark bench-figs trace

all: build test

build:
	$(GO) build ./...

# Tier-1 (`go test ./...`), then the width ladder scripts/ci.sh also runs:
# the scheduling-sensitive packages uncached at GOMAXPROCS 1 and 2 and
# under -race, and the checked torture workloads at both widths.
test:
	$(GO) test ./...
	./scripts/ladder.sh

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The full CI gate (gofmt + vet + build + race tests + torture smokes +
# the width ladder + kvserver/kvreplica crash smokes + reproduce -quick).
# Its steps are not copied into targets here: run one by hand from
# scripts/ci.sh or scripts/ladder.sh.
ci:
	./scripts/ci.sh

# The repository's benchmark (BENCHMARK.json; see benchmark/README.md):
# every declared workload through the driver's own command, one after the
# other, with the declaration's window. SEED and TRACE pass through.
SEED ?= 1
TRACE ?= 0
benchmark:
	@secs=$$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json); \
	for w in $$(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); do \
		echo "==> $$w"; \
		bash benchmark/run.sh --workload $$w --seed $(SEED) --seconds $$secs --trace $(TRACE) || exit 1; \
	done

# Go testing-framework microbenchmarks: Figure 1's quiescence stall, the
# ablations (A1-A4) and the blocked-reader wake-up ladder. Figures 2-3
# are run by cmd/reproduce (`go run ./cmd/reproduce -figure 2a`, ...).
bench-figs:
	$(GO) test -bench=. -benchmem ./...

# Export a Chrome trace of a short deferral workload to stm-trace.json:
# tx spans with nested quiesce waits, plus deferred-λ spans linked to the
# transactions that enqueued them. Load the file in https://ui.perfetto.dev
# or chrome://tracing. -check verifies the same event stream offline.
# (The defer workload is used because it exercises every span kind;
# selfcheck exists only to test the harness's failure exit and records
# no events.)
trace:
	$(GO) run ./cmd/stmtorture -duration 1s -threads 4 -workload defer -check -trace stm-trace.json
