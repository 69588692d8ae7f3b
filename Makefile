GO ?= go

.PHONY: all build test race race-kv race-server vet torture servesmoke ci benchmark bench bench-scaling bench-reactive bench-mixed bench-figs trace

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

# Race gate for the durable store: the WAL group-commit paths and the
# seeded crash-recovery property tests must be race-clean.
race-kv:
	$(GO) test -race -count=1 ./internal/wal ./internal/kv

vet:
	$(GO) vet ./...

# Short adversarial soak: fault injection + full history checking.
torture:
	$(GO) run ./cmd/stmtorture -duration 2s -threads 8 -check -inject -seed 1

# Race gate for the networked front end: protocol codecs, pipelined
# reader/writer pairs, shutdown under load.
race-server:
	$(GO) test -race -count=1 ./internal/server

# Networked smoke by hand: boot kvserver on an ephemeral port and run
# the kvloadgen connection ladder against it (no crash injection; the
# kill -9 + recovery-verify version lives in scripts/ci.sh).
servesmoke:
	@dir=$$(mktemp -d); \
	$(GO) build -o $$dir/kvserver ./cmd/kvserver; \
	$(GO) build -o $$dir/kvloadgen ./cmd/kvloadgen; \
	$$dir/kvserver -addr 127.0.0.1:0 -addrfile $$dir/addr.txt -dir $$dir/wal -mode group & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s $$dir/addr.txt ] && break; sleep 0.1; done; \
	$$dir/kvloadgen -addr "$$(head -n1 $$dir/addr.txt)" -conns 1,4,8 -ops 400 -reads 20 -check; \
	rc=$$?; kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf $$dir; exit $$rc

# The full CI gate (vet + build + race tests + torture smoke in both
# modes + the width ladder + kvserver/kvreplica crash smokes).
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

# STM hot-path benchmark suite (read-only / small-write / contended)
# plus the reactive suite (blocked-reader wakeup latency,
# watcher-vs-spin churn, queue handoff), written to stm-bench.json /
# stm-bench-reactive.json; `stmbench -baseline <file>` diffs a later run
# against either.
bench:
	$(GO) run ./cmd/stmbench -json stm-bench.json
	$(GO) run ./cmd/stmbench -suite reactive -json stm-bench-reactive.json

# The reactive suite alone (wakeup-latency ladder and churn ablation).
bench-reactive:
	$(GO) run ./cmd/stmbench -suite reactive -json stm-bench-reactive.json

# Thread-scaling suite (map-read / map-write / resize-storm across the
# 1..NumCPU ladder), written to stm-bench-scaling.json.
bench-scaling:
	$(GO) run ./cmd/stmbench -suite scaling -json stm-bench-scaling.json

# Mixed suite: the TPC-B-style writer ladder against one long scanner,
# both scan variants (validating vs snapshot), written to
# stm-bench-mixed.json. SCANNER=validate|snapshot emits a single-variant
# document whose rows are named mixed-scan/N, so a validate run and a
# snapshot run diff row-for-row (the BENCH_PR9.json recipe).
SCANNER ?= both
bench-mixed:
	$(GO) run ./cmd/stmbench -suite mixed -scanner $(SCANNER) -json stm-bench-mixed.json

# Go testing-framework microbenchmarks (figure pipelines etc.).
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
