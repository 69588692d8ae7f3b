#!/bin/sh
# The width ladder: the packages whose behaviour depends on how goroutines
# interleave, uncached at GOMAXPROCS 1 and 2 and once under the race
# detector, the durability packages once more at 4 (oversubscribed on a
# two-core machine, so goroutines are preempted mid-step as on a loaded
# server), then the torture workloads that drive the same paths with
# injected stalls and full history checking, on one core and on two (the
# kvstore workload in HTM mode too: no quiescence, so the WAL flusher
# races the appender's commit hardest there).
# `make test` and scripts/ci.sh both run this file; it is the only place
# the package list and the loop live.
#
# Why these: the transaction begin/commit path (stm: sticky registry
# slots, the serial gate, quiescence) and what rides on it (core, txlock,
# ds) interleave differently on one core and on two; the durability path
# (wal appender/flusher hand-off, sharded kv, pipelined server,
# replication stream) is scheduling-sensitive end to end — the flusher's
# park races appends, its lock hand-off races checkpoints, and cross-lane
# commits make lane flushers wait on each other. The defer and watcher
# workloads drive the deferral's acquire → quiesce → λ → release and
# retry's register → revalidate → park. The recorder and the checker
# (history, check) judge all of the
# above, so they run at the same widths: their tests record from several
# goroutines, and a checker that is only right on one core proves nothing
# about two.
set -eu

cd "$(dirname "$0")/.."

pkgs="./internal/stm ./internal/core ./internal/txlock ./internal/ds \
./internal/wal ./internal/kv ./internal/server ./internal/repl \
./internal/check ./internal/history"
for procs in 1 2; do
    echo "==> width ladder: go test at GOMAXPROCS=$procs (uncached)"
    GOMAXPROCS=$procs go test -count=1 $pkgs
done
echo "==> width ladder: go test -race (uncached)"
go test -race -count=1 $pkgs
echo "==> width ladder: durability packages at GOMAXPROCS=4 (uncached)"
GOMAXPROCS=4 go test -count=1 ./internal/wal ./internal/kv ./internal/server ./internal/repl
for procs in 1 2; do
    for wl in defer watcher scanner kvstore replica; do
        echo "==> width ladder: stmtorture -workload $wl -check -inject at GOMAXPROCS=$procs"
        GOMAXPROCS=$procs go run ./cmd/stmtorture -duration 400ms -workload $wl -check -inject -seed 1 >/dev/null
    done
    echo "==> width ladder: stmtorture -mode htm -workload kvstore -check -inject at GOMAXPROCS=$procs"
    GOMAXPROCS=$procs go run ./cmd/stmtorture -duration 400ms -mode htm -workload kvstore -check -inject -seed 1 >/dev/null
done
