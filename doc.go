// Package deferstm is a Go reproduction of "Extending Transactional
// Memory with Atomic Deferral" (Zhou, Luchangco, Spear; SPAA 2017 brief
// announcement, full version at OPODIS 2017).
//
// The implementation lives in internal packages:
//
//   - internal/stm      — TL2-style STM runtime with retry,
//     irrevocability, quiescence, contention management, snapshot
//     reads, and a simulated best-effort HTM mode
//   - internal/txlock   — transaction-friendly reentrant locks
//     (Listing 2)
//   - internal/core     — atomic deferral (the paper's contribution)
//   - internal/history, internal/check — the recorded event history of a
//     run and the offline checker of its properties
//   - internal/obs      — latency histograms, gauges and the metrics
//     registry
//   - internal/mempool  — size-classed buffer pool (dedup's buffers)
//   - internal/simio    — simulated filesystem with latency, fault
//     injection and crash images, plus deferrable I/O wrappers
//   - internal/chunker, internal/compress, internal/dedup — the PARSEC
//     dedup kernel reproduction
//   - internal/ds       — transactional hash map, bounded queue and
//     red-black tree
//   - internal/cache    — a transactional CLOCK cache (Section 5.1)
//   - internal/wal      — the write-ahead log whose group commit is a
//     deferred flush
//   - internal/kv       — the durable transactional key/value store over
//     the WAL's lanes
//   - internal/server, internal/repl — the store's TCP front end and its
//     WAL-shipping replica
//   - internal/iobench, internal/bench — the Figure 2 workload and the
//     figures' table harness
//
// cmd/reproduce runs the paper's Figures 2 and 3; bench_test.go holds the
// remaining Go benchmarks (Figure 1 and the ablations). DESIGN.md indexes
// every experiment and EXPERIMENTS.md records the results.
package deferstm
