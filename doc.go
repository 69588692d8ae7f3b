// Package deferstm is a Go reproduction of "Extending Transactional
// Memory with Atomic Deferral" (Zhou, Luchangco, Spear; SPAA 2017 brief
// announcement, full version at OPODIS 2017).
//
// The implementation lives in internal packages:
//
//   - internal/stm      — TL2-style STM runtime with retry,
//     irrevocability, quiescence, contention management, and a simulated
//     best-effort HTM mode
//   - internal/txlock   — transaction-friendly reentrant locks
//   - internal/core     — atomic deferral (the paper's contribution)
//   - internal/mempool  — size-classed buffer pool (dedup's buffers)
//   - internal/simio    — simulated filesystem with latency and fault
//     injection, plus deferrable I/O wrappers
//   - internal/chunker, internal/compress, internal/dedup — the PARSEC
//     dedup kernel reproduction
//   - internal/ds       — transactional list / hash map / red-black tree
//   - internal/iobench, internal/bench — benchmark workloads and harness
//
// The benchmarks in bench_test.go regenerate the paper's figures; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for results.
package deferstm
