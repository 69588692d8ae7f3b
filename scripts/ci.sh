#!/bin/sh
# CI gate: gofmt, vet, build, race-enabled tests, the WAL rotation and
# crash batteries, the kv reuse tests and the server's window tests repeated, short adversarial torture runs with full history checking, the wake-up benchmark smoke,
# the metrics and trace smokes, the width ladder (scripts/ladder.sh),
# the kvserver/kvreplica crash smokes, and the paper's figures (quick
# sizes) against their shape checks. Each recipe lives here or in
# ladder.sh and nowhere else. Run from the repo root:
#
#   ./scripts/ci.sh
#
# or via `make ci`. Fails on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted="$(gofmt -l .)"
test -z "$unformatted" || { echo "gofmt -l prints:"; echo "$unformatted"; exit 1; }

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

# The WAL's rotation, crash-recovery, torn-tail and fsync-accounting
# batteries, ten times over: a Create/Fsync ordering bug that one
# schedule in ten exposes turns the gate red here. About 12 s on 2 cores.
echo "==> rotation and crash batteries (-count=10)"
go test -count=10 -run 'Crash|Rotat|Torn|Fsync' ./internal/wal ./internal/kv

# kv.Store.Update recycles its Batch and Scan its cut buffer: forced
# conflict aborts, failed and panicking fns, and stores of 1, 2 and 4
# lanes side by side must each leave a record with exactly the committed
# attempt's ops. Ten times over, then once under the race detector.
echo "==> Batch and scan-cut reuse tests (-count=10, then -race)"
go test -count=10 -run 'Reuse' ./internal/kv
go test -race -count=1 -run 'Reuse' ./internal/kv

# The server's ack window: responses in arrival order, the writer's and
# the reader's flush rules, a full window stopping the socket reads,
# Close and Shutdown under load and on a full window, and the
# transactions a PUT burst runs. Ten times over, then once under the
# race detector. About 13 s on 2 cores.
echo "==> server window, order, flush, close and shutdown tests (-count=10, then -race)"
servertests='Window|Order|Flush|Shutdown|Close|BufferedAck|Transaction'
go test -count=10 -run "$servertests" ./internal/server
go test -race -count=1 -run "$servertests" ./internal/server

echo "==> stmtorture -check smoke (2s, fault injection, seed 1)"
go run ./cmd/stmtorture -duration 2s -threads 8 -check -inject -seed 1

echo "==> stmtorture -check smoke, HTM mode"
go run ./cmd/stmtorture -duration 2s -threads 8 -mode htm -check -inject -seed 1

# Retry-storm smoke: the watcher workload alone, with injection stalling
# inside both lost-wakeup windows (register→park and publish→wake) and
# the recorded history verified against the retry-wakeup rule. A lost
# wakeup deadlocks the producer/consumer handoff and fails the run.
echo "==> retry-storm smoke (watcher workload, injected stall windows)"
go run ./cmd/stmtorture -duration 2s -threads 8 -workload watcher -check -inject -seed 3

# Snapshot-scanner smoke: writers hammer a conserved keyspace while
# snapshot transactions sum it, under the race detector (the version
# chains are lock-free reader-side), with the recorded history verified
# against the snapshot-consistency axioms (pinned cut, truncation never
# ahead of a registered reader). A torn cut fails the conservation
# check; an unsound chain mutation trips the race detector.
echo "==> snapshot-scanner smoke (race detector + history check)"
go run -race ./cmd/stmtorture -duration 2s -threads 8 -workload scanner -check -seed 5

# Blocked-reader wake-up ladder (bench_test.go, beside ablation A3):
# smoke only, no threshold. Performance is judged by the repository's
# benchmark (BENCHMARK.json, `make benchmark`), allocation counts by the
# tier-1 pins (EXPERIMENTS.md, "Where each microbenchmark row is
# measured now").
echo "==> wake-up ladder smoke (BenchmarkRetryWakeup, 50 iterations)"
go test -run xxx -bench 'Wakeup' -benchtime 50x .

# Metrics-endpoint smoke on stmtorture, scraping both the Prometheus text
# and the expvar JSON views mid-run. (The kvserver crash smoke below
# scrapes a live server's /metrics for the commit-latency, abort-reason,
# deferred-queue and WAL series.)
echo "==> metrics endpoint smoke (stmtorture -metrics + curl /metrics + /debug/vars)"
tmpmetrics="$(mktemp)"
tmptrace="$(mktemp)"
trap 'rm -f "$tmpmetrics" "$tmptrace"' EXIT
go run ./cmd/stmtorture -duration 4s -threads 4 -workload kvstore \
    -metrics 127.0.0.1:9193 >/dev/null 2>&1 &
torturepid=$!
scraped=""
for _ in $(seq 1 50); do
    if curl -sf http://127.0.0.1:9193/metrics >"$tmpmetrics" 2>/dev/null; then
        scraped=1
        break
    fi
    sleep 0.1
done
if [ -n "$scraped" ]; then
    curl -sf http://127.0.0.1:9193/debug/vars | grep -q '"deferstm"' \
        || { echo "expvar view missing deferstm"; kill "$torturepid" 2>/dev/null; exit 1; }
fi
wait "$torturepid"
[ -n "$scraped" ] || { echo "stmtorture metrics endpoint never came up"; exit 1; }
for series in \
    deferstm_quiesce_wait_seconds \
    deferstm_retry_parks_total \
    deferstm_retry_waiters; do
    grep -q "$series" "$tmpmetrics" || { echo "missing series: $series"; exit 1; }
done

# Trace-export smoke: a short defer workload must produce a well-formed
# Chrome trace-event document while its history still checks clean.
echo "==> trace export smoke (stmtorture -trace)"
go run ./cmd/stmtorture -duration 300ms -threads 4 -workload defer -check \
    -trace "$tmptrace" >/dev/null
grep -q '"traceEvents"' "$tmptrace" || { echo "trace output malformed"; exit 1; }

# The width ladder (scripts/ladder.sh, also the tail of `make test`): stm,
# core, txlock, ds, wal, kv, server, repl, check and history uncached at
# GOMAXPROCS 1 and 2 and once under the race detector, then the defer,
# watcher, scanner, kvstore and replica torture workloads, and kvstore in
# HTM mode, checked and
# stall-injected, at both widths.
./scripts/ladder.sh

# kvserver crash smoke: boot a real kvserver (OS-backed WAL, ephemeral
# port), drive a pipelined connection ladder through kvloadgen (which
# records the highest durably-acked LSN), kill -9 the server mid-promise,
# then recover the store and require check.RecoveredPrefixLanes to pass:
# every LSN the server acked before dying must survive replay. The -check
# flag also asserts the wire-level group-commit win: a >= 8-connection
# group-mode rung with fsyncs/commit < 1, and the 1-connection rung
# (window 64 in flight) with fsyncs/commit < 0.5 — one pipelined
# connection must fill batches by itself. Before the kill, the live
# server's /metrics is scraped: every key family must be exposed —
# commit-latency buckets, abort-reason counters, deferred-queue depth,
# the WAL fsync, checkpoint, per-lane, stream-read and append→durable lag
# series, the map's resize-chunk histogram, and the responses-by-path
# counters, with a non-zero reader count; the store-wide fsync count must
# equal the lanes' sum.
echo "==> kvserver crash smoke (kvloadgen ladder + /metrics scrape + kill -9 + recovery verify)"
kvdir="$(mktemp -d)"
trap 'rm -f "$tmpmetrics" "$tmptrace"; rm -rf "$kvdir"' EXIT
go build -o "$kvdir/kvserver" ./cmd/kvserver
go build -o "$kvdir/kvloadgen" ./cmd/kvloadgen
"$kvdir/kvserver" -addr 127.0.0.1:0 -addrfile "$kvdir/addr.txt" \
    -dir "$kvdir/wal" -mode group -metrics 127.0.0.1:9190 2>"$kvdir/server.log" &
kvsrvpid=$!
bound=""
for _ in $(seq 1 50); do
    if [ -s "$kvdir/addr.txt" ]; then
        bound="$(head -n1 "$kvdir/addr.txt")"
        break
    fi
    sleep 0.1
done
[ -n "$bound" ] || { echo "kvserver never published its address"; cat "$kvdir/server.log"; exit 1; }
"$kvdir/kvloadgen" -addr "$bound" -conns 1,4,8 -ops 400 -reads 20 \
    -ackfile "$kvdir/ack.txt" -check >"$kvdir/load.txt"
grep -Eq '^group +8 ' "$kvdir/load.txt" \
    || { echo "kvloadgen printed no 8-connection group-mode rung"; cat "$kvdir/load.txt"; exit 1; }
curl -sf http://127.0.0.1:9190/metrics >"$tmpmetrics" \
    || { echo "kvserver metrics endpoint did not answer"; exit 1; }
for series in \
    deferstm_tx_latency_seconds_bucket \
    'deferstm_aborts_total{reason="conflict"}' \
    deferstm_defer_queue_depth \
    deferstm_wal_fsyncs_total \
    deferstm_wal_checkpoints_total \
    deferstm_resize_chunk_seconds \
    'deferstm_wal_lane_records_total{lane="0"}' \
    'deferstm_wal_lane_rotations_total{lane="0"}' \
    'deferstm_wal_lane_stream_read_bytes_total{lane="0"}' \
    'deferstm_server_responses_total{path="writer"}' \
    deferstm_wal_append_durable_seconds; do
    grep -q "$series" "$tmpmetrics" || { echo "missing series: $series"; exit 1; }
done
# Each fsync is counted once, by its lane: the store-wide series is the
# lanes' sum.
awk '/^deferstm_wal_fsyncs_total / { total = $2 }
     /^deferstm_wal_lane_fsyncs_total\{/ { lanes += $2 }
     END { if (total == "" || total != lanes) { print "deferstm_wal_fsyncs_total " total " != lane sum " lanes; exit 1 } }' \
    "$tmpmetrics" || exit 1
# The ladder's GETs and STATS on idle connections are answered by the
# connection's reader, not through the ack queue and writer goroutine.
grep -Eq '^deferstm_server_responses_total\{path="reader"\} [1-9]' "$tmpmetrics" \
    || { echo "no response was written by a connection's reader"; grep deferstm_server_responses_total "$tmpmetrics"; exit 1; }
# The client coalesces a pipelined burst into one socket write, so the
# server reads the ladder's requests in fewer reads than there are
# requests.
awk '/^deferstm_server_socket_reads_total / { reads = $2 }
     /^deferstm_server_requests_total\{op="(put|get)"\} / { reqs += $2 }
     END { if (reads == "" || reads + 0 >= reqs + 0) { print "socket reads " reads " not fewer than PUT+GET requests " reqs; exit 1 } }' \
    "$tmpmetrics" || exit 1
kill -9 "$kvsrvpid" 2>/dev/null || true
wait "$kvsrvpid" 2>/dev/null || true
# An ackfile has one shape at every lane count: "lane lsn" lines.
awk 'NF != 2 { bad = 1 } END { exit bad || NR == 0 }' "$kvdir/ack.txt" \
    || { echo "ackfile is not \"lane lsn\" lines"; cat "$kvdir/ack.txt"; exit 1; }
"$kvdir/kvserver" -dir "$kvdir/wal" -verify -ackfile "$kvdir/ack.txt"

# Same smoke, sharded: four parallel WAL lanes, lane-tagged ack tokens,
# kill -9, then a per-lane recovery verify. kvloadgen writes a "lane lsn"
# line per lane; -verify (lane count adopted from the manifest) must prove every
# lane's acked watermark survived and no lane invented records.
echo "==> sharded kvserver crash smoke (-shards 4 + kill -9 + per-lane verify)"
"$kvdir/kvserver" -addr 127.0.0.1:0 -addrfile "$kvdir/addr4.txt" \
    -dir "$kvdir/wal4" -mode group -shards 4 2>"$kvdir/server4.log" &
kvsrvpid=$!
bound=""
for _ in $(seq 1 50); do
    if [ -s "$kvdir/addr4.txt" ]; then
        bound="$(head -n1 "$kvdir/addr4.txt")"
        break
    fi
    sleep 0.1
done
[ -n "$bound" ] || { echo "sharded kvserver never published its address"; cat "$kvdir/server4.log"; exit 1; }
"$kvdir/kvloadgen" -addr "$bound" -conns 1,4,8 -ops 400 -reads 20 \
    -ackfile "$kvdir/ack4.txt" -check >/dev/null
kill -9 "$kvsrvpid" 2>/dev/null || true
wait "$kvsrvpid" 2>/dev/null || true
awk 'NF != 2 { bad = 1 } END { exit bad || NR < 2 }' "$kvdir/ack4.txt" \
    || { echo "sharded ackfile is not per-lane \"lane lsn\" lines"; cat "$kvdir/ack4.txt"; exit 1; }
"$kvdir/kvserver" -dir "$kvdir/wal4" -verify -ackfile "$kvdir/ack4.txt" \
    | grep -q 'verify ok: 4 lanes' || { echo "per-lane verify failed"; exit 1; }

# In-process replication torture: primary + server + replica in one
# binary, writer threads with cross-lane batches, checkpoints rotating
# lanes under the stream, seeded Kick() partitions — then prefix
# coverage (check.AckedPrefixLanes), content equality and per-thread
# counter exactness, with the primary's history verified.
echo "==> stmtorture replica workload (partitions + checkpoints, -check)"
go run ./cmd/stmtorture -duration 2s -threads 8 -workload replica -check -seed 2

# Replica smoke: one primary on a fixed port (so restarts are
# re-dialable), two kvreplica processes tailing it, a kvloadgen ladder
# recording per-lane acked LSNs, kill -9 of the primary mid-stream,
# reads served by the replicas while the primary is down (binary
# protocol and the /kv/scan HTTP fallback), then a restart from the
# same WAL dir, more load, and a polled `kvreplica -verify` for both:
# every acked LSN applied, zero snapshot-path fallbacks, and lag
# percentiles over a non-empty sample.
echo "==> replica smoke (primary + 2 replicas + kill -9 + reconnect + verify)"
go build -o "$kvdir/kvreplica" ./cmd/kvreplica
rbound="127.0.0.1:9196"
"$kvdir/kvserver" -addr "$rbound" -dir "$kvdir/walr" -mode group -shards 4 \
    2>"$kvdir/primary.log" &
kvsrvpid=$!
"$kvdir/kvreplica" -primary "$rbound" -addr 127.0.0.1:0 \
    -addrfile "$kvdir/r1addr.txt" -statusfile "$kvdir/r1status.json" \
    -metrics 127.0.0.1:9195 2>"$kvdir/r1.log" &
r1pid=$!
"$kvdir/kvreplica" -primary "$rbound" -addr 127.0.0.1:0 \
    -addrfile "$kvdir/r2addr.txt" -statusfile "$kvdir/r2status.json" \
    2>"$kvdir/r2.log" &
r2pid=$!
sleep 0.3
"$kvdir/kvloadgen" -addr "$rbound" -conns 1,4,8 -ops 400 -reads 20 \
    -ackfile "$kvdir/ackr.txt" >/dev/null
for f in r1addr.txt r2addr.txt; do
    ok=""
    for _ in $(seq 1 100); do
        [ -s "$kvdir/$f" ] && { ok=1; break; }
        sleep 0.1
    done
    [ -n "$ok" ] || { echo "replica never caught up ($f)"; cat "$kvdir/r1.log" "$kvdir/r2.log"; exit 1; }
done
kill -9 "$kvsrvpid" 2>/dev/null || true
wait "$kvsrvpid" 2>/dev/null || true
# Primary is dead; both replicas must keep serving their applied state.
"$kvdir/kvloadgen" -addr "$(head -n1 "$kvdir/r1addr.txt")" -conns 2 -ops 200 \
    -reads 100 >/dev/null
curl -sf "http://127.0.0.1:9195/kv/scan?limit=5" | grep -q '"count"' \
    || { echo "replica /kv/scan failed while primary down"; exit 1; }
# Restart from the same WAL dir on the same port: the replicas'
# reconnect loops re-handshake from their applied cursors.
"$kvdir/kvserver" -addr "$rbound" -dir "$kvdir/walr" -mode group -shards 4 \
    2>"$kvdir/primary2.log" &
kvsrvpid=$!
sleep 0.5
"$kvdir/kvloadgen" -addr "$rbound" -conns 4 -ops 400 -reads 20 \
    -ackfile "$kvdir/ackr2.txt" >/dev/null
cat "$kvdir/ackr.txt" "$kvdir/ackr2.txt" >"$kvdir/ackr_all.txt"
for sf in r1status.json r2status.json; do
    ok=""
    for _ in $(seq 1 100); do
        if "$kvdir/kvreplica" -verify -statusfile "$kvdir/$sf" \
            -ackfile "$kvdir/ackr_all.txt" >"$kvdir/verify_$sf.txt" 2>/dev/null; then
            ok=1
            break
        fi
        sleep 0.2
    done
    [ -n "$ok" ] || { echo "replica verify never passed ($sf)"; \
        "$kvdir/kvreplica" -verify -statusfile "$kvdir/$sf" -ackfile "$kvdir/ackr_all.txt"; \
        cat "$kvdir/r1.log" "$kvdir/r2.log"; exit 1; }
    # The verdict line carries the lag percentiles; they must rest on
    # at least one sample.
    grep -Eq 'replica verify ok: .* lag p50 .* p99 .* over [1-9][0-9]* samples' "$kvdir/verify_$sf.txt" \
        || { echo "verify output malformed ($sf)"; cat "$kvdir/verify_$sf.txt"; exit 1; }
done
kill "$r1pid" "$r2pid" 2>/dev/null || true
wait "$r1pid" "$r2pid" 2>/dev/null || true
kill -9 "$kvsrvpid" 2>/dev/null || true
wait "$kvsrvpid" 2>/dev/null || true

# Figures 2 and 3 at quick sizes against the paper's qualitative claims
# (24 shape checks, about 5 minutes on 2 cores — too long for tier-1).
# Every Figure 2 series runs on atomic deferral, so a change to the
# primitive is a change to the figures.
echo "==> reproduce -quick (Figures 2-3, shape checks)"
reprodir="$(mktemp -d)"
trap 'rm -f "$tmpmetrics" "$tmptrace"; rm -rf "$kvdir" "$reprodir"' EXIT
go run ./cmd/reproduce -quick -out "$reprodir"

echo "CI green"
