// Command stmtorture stress-tests the STM runtime, transaction-friendly
// locks, and atomic deferral under sustained concurrency, checking
// invariants continuously:
//
//   - bank: transfers among accounts; total must be conserved, and
//     transactional audits must never observe a partial transfer;
//   - tree: random red-black tree mutations; structural invariants are
//     validated periodically;
//   - defer: transactions update a deferrable pair (a transactionally,
//     b in the deferred operation); subscribing readers must never
//     observe a != b. One writer in four defers two operations and has
//     the first panic: the second must still run and the panic still
//     reach the worker;
//   - locks: opposite-order multi-lock acquisition through transactions
//     (deadlock-freedom check);
//   - kvstore: concurrent counters and cross-lane transfers in a 2-lane
//     durable KV store (WAL group commit, checkpoints, durability waits);
//     the live view must match per-thread tallies and a post-close
//     recovery must reproduce it, transfer sum included;
//   - watcher: producers and consumers blocking on a bounded queue via
//     watcher-based Retry (park on full/empty, wake on commit); every
//     produced value must be consumed exactly once and in per-producer
//     order, and no consumer may sleep through a wakeup;
//   - scanner: transfer writers hammer a conserved keyspace while
//     snapshot transactions (stm.AtomicSnapshot) sum it end to end;
//     every scan must observe one consistent cut (the conserved total),
//     whether it was served from version chains or fell back to the
//     validating path, and the snapshot machinery must actually have
//     run (snapshot commits + fallbacks == scans);
//   - selfcheck: deliberately reports one failure, so the harness's
//     nonzero-exit path can itself be tested (not part of "all").
//
// With -check, every event of the run is recorded (internal/history)
// and verified offline by internal/check against serializability,
// opacity, deferral atomicity, two-phase locking and the WAL
// durability axioms. With -inject,
// seeded fault injection (-seed) drives the runtime onto adversarial
// schedules: forced conflict and capacity aborts, delayed write-back,
// stalls inside quiescence and the commit→λ window, and — for the
// watcher workload — stalls in the register→park and publish→wake
// windows of the retry protocol (the lost-wakeup races).
//
// Example:
//
//	stmtorture -duration 10s -threads 8 -workload all -mode stm
//	stmtorture -duration 2s -check -inject -seed 7
//	stmtorture -duration 1s -workload defer -trace trace.json
//	stmtorture -duration 10s -metrics 127.0.0.1:9192
//
// With -metrics, the run serves live Prometheus-text /metrics and
// /debug/pprof on the given address for its duration. With -trace, the
// full event stream is exported as Chrome trace-event JSON (load in
// Perfetto or chrome://tracing); -trace composes with -check, which
// then verifies the same stream the trace was drawn from.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/bench"
	"deferstm/internal/check"
	"deferstm/internal/core"
	"deferstm/internal/ds"
	"deferstm/internal/history"
	"deferstm/internal/kv"
	"deferstm/internal/obs"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/txlock"
	"deferstm/internal/wal"
)

// torture carries the per-run harness state: failure accounting, the
// base seed for worker RNGs, and the per-thread operation cap used to
// bound recorded histories.
type torture struct {
	failures atomic.Int64
	stdout   io.Writer
	stderr   io.Writer
	seed     uint64
	maxOps   int64
}

func (h *torture) failf(format string, args ...any) {
	h.failures.Add(1)
	fmt.Fprintf(h.stderr, "FAIL: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the torture harness and returns the process exit code:
// 0 on success, 1 on invariant or history-check violations, 2 on usage
// errors. It is separated from main so the package test can assert the
// nonzero-exit paths.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stmtorture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		duration  = fs.Duration("duration", 5*time.Second, "run time per workload")
		threads   = fs.Int("threads", 8, "concurrent worker goroutines")
		workload  = fs.String("workload", "all", "bank|tree|defer|locks|kvstore|watcher|scanner|replica|selfcheck|all")
		mode      = fs.String("mode", "stm", "stm|htm")
		seed      = fs.Uint64("seed", 1, "base seed for worker RNGs and fault injection")
		checkHist = fs.Bool("check", false, "record the full event history and verify serializability, opacity, deferral atomicity and 2PL")
		inject    = fs.Bool("inject", false, "enable seeded fault injection (forced aborts, delayed write-back, quiescence and commit→λ stalls)")
		maxOps    = fs.Int64("maxops", 0, "per-thread operation cap (0 = unlimited; defaults to 4000 under -check to bound the recorded history)")
		metrics   = fs.String("metrics", "", "serve /metrics + /debug/pprof on this address while the run lasts (e.g. 127.0.0.1:9192)")
		trace     = fs.String("trace", "", "write the run's event stream as Chrome trace-event JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := stm.Config{}
	switch *mode {
	case "stm":
	case "htm":
		cfg.Mode = stm.ModeHTM
	default:
		fmt.Fprintf(stderr, "stmtorture: unknown mode %q\n", *mode)
		return 2
	}
	if *inject {
		cfg.Inject = &stm.Inject{
			Seed:                  *seed,
			ConflictPct:           15,
			CapacityPct:           2,
			WriteBackDelayPct:     5,
			QuiesceStallPct:       5,
			PreHookStallPct:       15,
			RetryRegisterStallPct: 20,
			WakeDelayPct:          20,
			StallSpins:            512,
		}
	}
	ops := *maxOps
	if (*checkHist || *trace != "") && ops == 0 {
		ops = 4000 // bound the recorded history/trace
	}

	// Workloads each build a fresh runtime, so shared instruments plus an
	// atomic runtime pointer keep the exported series stable across them.
	var met *stm.Metrics
	var curRT atomic.Pointer[stm.Runtime]
	if *metrics != "" {
		reg := obs.NewRegistry()
		reg.SetBuildInfo("commit", bench.GitCommit(), "go", runtime.Version(), "binary", "stmtorture")
		met = stm.NewMetrics(reg)
		stm.RegisterStats(reg, func() stm.StatsSnapshot {
			if rt := curRT.Load(); rt != nil {
				return rt.Snapshot()
			}
			return stm.StatsSnapshot{}
		})
		addr, stop, err := reg.Serve(*metrics)
		if err != nil {
			fmt.Fprintf(stderr, "stmtorture: -metrics: %v\n", err)
			return 2
		}
		defer stop()
		fmt.Fprintf(stderr, "metrics: http://%s/metrics\n", addr)
	}
	var tw *history.TraceWriter
	if *trace != "" {
		tw = history.NewTraceWriter()
	}

	workloads := map[string]func(*torture, *stm.Runtime, int, time.Duration){
		"bank":      tortureBank,
		"tree":      tortureTree,
		"defer":     tortureDefer,
		"locks":     tortureLocks,
		"kvstore":   tortureKVStore,
		"watcher":   tortureWatcher,
		"scanner":   tortureScanner,
		"replica":   tortureReplica,
		"selfcheck": tortureSelfcheck,
	}
	order := []string{"bank", "tree", "defer", "locks", "kvstore", "watcher", "scanner"} // replica (own sockets/goroutine budget) and selfcheck are opt-in

	var total int64
	ran := 0
	for _, name := range order {
		if *workload != "all" && *workload != name {
			continue
		}
		ran++
		total += runWorkload(name, workloads[name], cfg, *threads, *duration, *seed, ops, *checkHist, met, &curRT, tw, stdout, stderr)
	}
	if ran == 0 {
		fn, ok := workloads[*workload]
		if !ok {
			fmt.Fprintf(stderr, "stmtorture: unknown workload %q\n", *workload)
			return 2
		}
		total += runWorkload(*workload, fn, cfg, *threads, *duration, *seed, ops, *checkHist, met, &curRT, tw, stdout, stderr)
	}
	if tw != nil {
		f, err := os.Create(*trace)
		if err == nil {
			err = tw.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "stmtorture: -trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d events)\n", *trace, tw.Len())
	}
	if total > 0 {
		fmt.Fprintf(stderr, "stmtorture: %d invariant violations\n", total)
		return 1
	}
	fmt.Fprintln(stdout, "all invariants held")
	return 0
}

// runWorkload runs one named workload on a fresh runtime, optionally
// recording and checking its history, and returns the failure count.
func runWorkload(name string, fn func(*torture, *stm.Runtime, int, time.Duration),
	cfg stm.Config, threads int, d time.Duration, seed uint64, maxOps int64,
	checkHist bool, met *stm.Metrics, curRT *atomic.Pointer[stm.Runtime],
	tw *history.TraceWriter, stdout, stderr io.Writer) int64 {

	var log *history.Log
	if checkHist {
		log = history.New()
		cfg.Recorder = log
	}
	if tw != nil {
		// The trace captures everything; under -check it tees into the
		// fresh per-workload log so the same stream is also verified.
		if log != nil {
			tw.Tee(log)
		}
		cfg.Recorder = tw
	}
	h := &torture{stdout: stdout, stderr: stderr, seed: seed, maxOps: maxOps}
	rt := stm.New(cfg)
	if met != nil {
		rt.SetMetrics(met)
		curRT.Store(rt)
	}
	before := rt.Snapshot()
	start := time.Now()
	fn(h, rt, threads, d)
	snap := rt.Snapshot().Delta(before)
	fmt.Fprintf(stdout, "%-9s %7.2fs  %s\n", name, time.Since(start).Seconds(), snap.String())
	if checkHist {
		rep := check.History(log.Events())
		if !rep.OK() {
			h.failf("%s: history check failed (seed %d):\n%s", name, seed, rep)
		} else {
			fmt.Fprintf(stdout, "%-9s          %s\n", "", rep.String())
		}
	}
	return h.failures.Load()
}

// runFor drives threads workers for at most d (and, if h.maxOps > 0, at
// most that many operations per worker). Worker RNGs are derived from
// h.seed so runs are reproducible up to goroutine interleaving.
func (h *torture) runFor(threads int, d time.Duration, body func(tid int, rng func(int) int64)) {
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			state := (h.seed+uint64(tid))*2654435761 + 1
			rng := func(n int) int64 {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				return int64(state % uint64(n))
			}
			for i := int64(0); time.Now().Before(stop) && (h.maxOps == 0 || i < h.maxOps); i++ {
				body(tid, rng)
			}
		}(t)
	}
	wg.Wait()
}

func tortureBank(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	const nAcct = 32
	const initial = 1000
	accounts := make([]*stm.Var[int], nAcct)
	for i := range accounts {
		accounts[i] = stm.NewVar(initial)
	}
	h.runFor(threads, d, func(tid int, rng func(int) int64) {
		if rng(10) == 0 { // audit
			sum := 0
			_ = rt.Atomic(func(tx *stm.Tx) error {
				sum = 0
				for _, a := range accounts {
					sum += a.Get(tx)
				}
				return nil
			})
			if sum != nAcct*initial {
				h.failf("bank: audit saw %d, want %d", sum, nAcct*initial)
			}
			return
		}
		from, to := rng(nAcct), rng(nAcct)
		if from == to {
			return
		}
		amt := int(rng(100)) + 1
		_ = rt.Atomic(func(tx *stm.Tx) error {
			f := accounts[from].Get(tx)
			if f < amt {
				return nil
			}
			accounts[from].Set(tx, f-amt)
			accounts[to].Set(tx, accounts[to].Get(tx)+amt)
			return nil
		})
	})
	total := 0
	for _, a := range accounts {
		total += a.Load()
	}
	if total != nAcct*initial {
		h.failf("bank: final total %d, want %d", total, nAcct*initial)
	}
}

func tortureTree(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	tree := ds.NewRBTree[int]()
	done := make(chan struct{})
	go func() { // periodic validator
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if err := tree.Validate(); err != nil {
					h.failf("tree: %v", err)
				}
			}
		}
	}()
	h.runFor(threads, d, func(tid int, rng func(int) int64) {
		k := rng(1000)
		switch rng(3) {
		case 0, 1:
			_ = rt.Atomic(func(tx *stm.Tx) error { tree.Insert(tx, k, tid); return nil })
		default:
			_ = rt.Atomic(func(tx *stm.Tx) error { tree.Delete(tx, k); return nil })
		}
	})
	close(done)
	if err := tree.Validate(); err != nil {
		h.failf("tree final: %v", err)
	}
	var n int
	var keys []int64
	_ = rt.Atomic(func(tx *stm.Tx) error { n = tree.Len(tx); keys = tree.Keys(tx); return nil })
	if n != len(keys) {
		h.failf("tree: size %d != key count %d", n, len(keys))
	}
}

// errTortureOp is what the defer workload's failing λ panics with.
var errTortureOp = errors.New("torture: deferred operation failed")

type torturePair struct {
	core.Deferrable
	a, b stm.Var[int]
}

func tortureDefer(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	pairs := make([]*torturePair, 8)
	for i := range pairs {
		pairs[i] = &torturePair{}
	}
	// bump is a writer's half of a transaction: a transactionally, b
	// deferred; with fail set, λ panics once b is stored.
	bump := func(tx *stm.Tx, p *torturePair, fail bool) {
		p.Subscribe(tx)
		v := p.a.Get(tx) + 1
		p.a.Set(tx, v)
		core.AtomicDefer(tx, func(ctx *core.OpCtx) {
			core.Store(ctx, &p.b, v)
			if fail {
				panic(errTortureOp)
			}
		}, p)
	}
	h.runFor(threads, d, func(tid int, rng func(int) int64) {
		p := pairs[rng(len(pairs))]
		switch rng(16) {
		case 0, 1, 2:
			_ = rt.Atomic(func(tx *stm.Tx) error { bump(tx, p, false); return nil })
			return
		case 3:
			// Two deferred operations, the first of which panics: the
			// committed transaction still owes the second (or q.b lags q.a
			// and q stays locked for good), and the panic still reaches
			// the worker.
			q := pairs[rng(len(pairs))]
			func() {
				defer func() {
					if r := recover(); r != errTortureOp {
						h.failf("defer: recovered %v from a transaction whose λ panicked", r)
					}
				}()
				_ = rt.Atomic(func(tx *stm.Tx) error {
					bump(tx, p, true)
					if q != p {
						bump(tx, q, false)
					}
					return nil
				})
			}()
			return
		}
		var a, b int
		_ = rt.Atomic(func(tx *stm.Tx) error {
			p.Subscribe(tx)
			a = p.a.Get(tx)
			b = p.b.Get(tx)
			return nil
		})
		if a != b {
			h.failf("defer: observed a=%d b=%d", a, b)
		}
	})
	for i, p := range pairs {
		if p.Locked() {
			h.failf("defer: pair %d lock leaked", i)
		}
		if p.a.Load() != p.b.Load() {
			h.failf("defer: final pair %d a=%d b=%d", i, p.a.Load(), p.b.Load())
		}
	}
}

func tortureLocks(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	locks := make([]*txlock.Lock, 4)
	for i := range locks {
		locks[i] = txlock.NewLock()
	}
	shared := make([]int, len(locks)) // each protected by locks[i]
	var mu sync.Mutex                 // protects expected counts
	expected := make([]int, len(locks))
	h.runFor(threads, d, func(tid int, rng func(int) int64) {
		i, j := rng(len(locks)), rng(len(locks))
		if i == j {
			j = (j + 1) % int64(len(locks))
		}
		me := rt.NewOwner()
		// Acquire both locks in one transaction (arbitrary order —
		// deadlock-free by construction), mutate, release.
		_ = rt.AtomicAs(me, func(tx *stm.Tx) error {
			locks[i].Acquire(tx)
			locks[j].Acquire(tx)
			return nil
		})
		shared[i]++
		shared[j]++
		mu.Lock()
		expected[i]++
		expected[j]++
		mu.Unlock()
		_ = rt.AtomicAs(me, func(tx *stm.Tx) error {
			if err := locks[i].Release(tx); err != nil {
				return err
			}
			return locks[j].Release(tx)
		})
	})
	for i := range locks {
		if locks[i].OwnerSnapshot() != 0 {
			h.failf("locks: lock %d leaked", i)
		}
		if shared[i] != expected[i] {
			h.failf("locks: slot %d = %d, want %d (mutual exclusion violated)", i, shared[i], expected[i])
		}
	}
}

// tortureKVStore hammers a 2-lane durable KV store (WAL group commit via
// atomic deferral) with per-thread counters on a simulated disk, taking
// occasional checkpoints, then closes the store and recovers it on a
// fresh runtime: the recovered contents must equal the live contents at
// close. Each thread increments only its own keys, so every counter's
// final value must equal the thread's local count — a lost or duplicated
// WAL replay shows up as a counter mismatch. One update in four is
// instead a cross-lane transfer between an account on each lane, whose
// balances must still sum to zero after recovery. One in eight inserts a
// fresh key, and the store starts at kv's minimum of 64 buckets a shard,
// so its maps resize while the updates, checkpoints and flushes run; every
// inserted key must be live and recovered. Under -check the recorded
// history additionally passes through the durability axioms
// (internal/check's EvWALAppend/EvWALDurable rules).
func tortureKVStore(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	const slots = 8
	fs := simio.NewFS(simio.Latency{})
	s, _, err := kv.Open(rt, wal.NewSimBackend(fs), kv.Options{Shards: 2, Buckets: 128, WAL: wal.Options{SegmentBytes: 1 << 16}})
	if err != nil {
		h.failf("kvstore: open: %v", err)
		return
	}
	// One account per lane: a one-key update's token names its key's lane.
	var accts [2]string
	for i := 0; accts[0] == "" || accts[1] == ""; i++ {
		key := fmt.Sprintf("acct-%d", i)
		tok, err := s.Update(func(tx *stm.Tx, b *kv.Batch) error { b.Put(key, "0"); return nil })
		if err != nil {
			h.failf("kvstore: open account: %v", err)
			return
		}
		if lane := kv.TokenLane(tok); accts[lane] == "" {
			accts[lane] = key
		}
	}
	counts := make([][slots]int, threads)
	inserted := make([]int, threads) // fresh keys t<tid>-n0 .. n<inserted-1>
	var ckptMu sync.Mutex
	h.runFor(threads, d, func(tid int, rng func(int) int64) {
		slot := rng(slots)
		key := fmt.Sprintf("t%d-c%d", tid, slot)
		kind, amount := rng(8), int(rng(21))-10
		transfer, insert := kind < 2, kind == 2
		var fresh string
		if insert {
			fresh = fmt.Sprintf("t%d-n%d", tid, inserted[tid])
		}
		lsn, err := s.Update(func(tx *stm.Tx, b *kv.Batch) error {
			if insert {
				b.Put(fresh, "1")
				return nil
			}
			if transfer {
				for i, delta := range [2]int{-amount, amount} {
					cur, _ := b.Get(accts[i])
					n, _ := strconv.Atoi(cur)
					b.Put(accts[i], strconv.Itoa(n+delta))
				}
				return nil
			}
			cur, _ := b.Get(key)
			n, _ := strconv.Atoi(cur)
			b.Put(key, strconv.Itoa(n+1))
			return nil
		})
		if err != nil {
			h.failf("kvstore: update: %v", err)
			return
		}
		switch {
		case insert:
			inserted[tid]++
		case !transfer:
			counts[tid][slot]++
		}
		if rng(64) == 0 {
			s.WaitDurable(lsn)
		}
		if rng(400) == 0 && ckptMu.TryLock() {
			if _, err := s.Checkpoint(); err != nil {
				h.failf("kvstore: checkpoint: %v", err)
			}
			ckptMu.Unlock()
		}
	})

	live := map[string]string{}
	if err := s.View(func(tx *stm.Tx) error {
		clear(live)
		s.Range(tx, func(k, v string) bool { live[k] = v; return true })
		return nil
	}); err != nil {
		h.failf("kvstore: view: %v", err)
	}
	for tid := range counts {
		for slot, want := range counts[tid] {
			if want == 0 {
				continue
			}
			key := fmt.Sprintf("t%d-c%d", tid, slot)
			if got, _ := strconv.Atoi(live[key]); got != want {
				h.failf("kvstore: %s = %d, want %d (lost or duplicated update)", key, got, want)
			}
		}
	}
	fresh := 0
	for tid, n := range inserted {
		fresh += n
		for i := 0; i < n; i++ {
			if key := fmt.Sprintf("t%d-n%d", tid, i); live[key] != "1" {
				h.failf("kvstore: inserted key %s = %q, want \"1\" (lost insert)", key, live[key])
			}
		}
	}
	fmt.Fprintf(h.stdout, "%-9s          %d keys inserted, %d map resizes completed\n", "kvstore", fresh, s.MapResizes())
	if err := s.Close(); err != nil {
		h.failf("kvstore: close: %v", err)
		return
	}

	// Recover on a fresh runtime from the simulated disk and compare.
	s2, _, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kv.Options{})
	if err != nil {
		h.failf("kvstore: recovery: %v", err)
		return
	}
	recovered := map[string]string{}
	if err := s2.View(func(tx *stm.Tx) error {
		clear(recovered)
		s2.Range(tx, func(k, v string) bool { recovered[k] = v; return true })
		return nil
	}); err != nil {
		h.failf("kvstore: recovered view: %v", err)
	}
	if len(recovered) != len(live) {
		h.failf("kvstore: recovered %d keys, want %d", len(recovered), len(live))
	}
	for k, v := range live {
		if recovered[k] != v {
			h.failf("kvstore: recovered %s = %q, want %q", k, recovered[k], v)
		}
	}
	a, _ := strconv.Atoi(recovered[accts[0]])
	b, _ := strconv.Atoi(recovered[accts[1]])
	if a+b != 0 {
		h.failf("kvstore: recovered accounts %s = %d and %s = %d do not sum to 0 (half a cross-lane transfer)", accts[0], a, accts[1], b)
	}
	if err := s2.Close(); err != nil {
		h.failf("kvstore: recovered close: %v", err)
	}
}

// tortureWatcher hammers the watcher-based Retry path: half the threads
// produce into a deliberately tiny bounded queue (parking on full), half
// consume from it (parking on empty), so every operation crosses the
// register→validate→park→wake protocol. Values encode producer<<32|seq.
// When producers finish they raise a transactional closed flag; consumers
// drain the backlog and exit on closed+empty. Invariants: every produced
// value is consumed exactly once (conservation), and each consumer sees
// any one producer's values in strictly increasing seq order (the queue
// is FIFO and each value is taken once). A lost wakeup shows up as the
// run hanging until -duration expires with values still in the queue —
// caught by the conservation check; under -check the recorded
// EvWatchRegister/EvWake history is additionally verified against the
// retry-wakeup rule.
func tortureWatcher(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	producers := threads / 2
	if producers == 0 {
		producers = 1
	}
	consumers := threads - producers
	if consumers == 0 {
		consumers = 1
	}
	q := ds.NewBoundedQueue[uint64](4) // tiny: force parking on both ends
	closed := stm.NewVar(false)
	stop := time.Now().Add(d)

	produced := make([]uint64, producers) // values emitted by each producer
	type consumed struct {
		count   int64
		sum     uint64
		lastSeq []int64 // per-producer last seq this consumer took
	}
	got := make([]consumed, consumers)

	var prodWG, consWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(pid int) {
			defer prodWG.Done()
			for seq := int64(0); time.Now().Before(stop) && (h.maxOps == 0 || seq < h.maxOps); seq++ {
				v := uint64(pid)<<32 | uint64(seq)
				_ = rt.Atomic(func(tx *stm.Tx) error {
					q.Put(tx, v) // parks via Retry when full
					return nil
				})
				produced[pid]++
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func(cid int) {
			defer consWG.Done()
			got[cid].lastSeq = make([]int64, producers)
			for i := range got[cid].lastSeq {
				got[cid].lastSeq[i] = -1
			}
			for {
				var v uint64
				done := false
				_ = rt.Atomic(func(tx *stm.Tx) error {
					var ok bool
					if v, ok = q.TryTake(tx); ok {
						done = false
						return nil
					}
					if closed.Get(tx) {
						done = true
						return nil
					}
					tx.Retry() // parks until a Put or Close commits
					return nil
				})
				if done {
					return
				}
				pid, seq := int(v>>32), int64(v&0xffffffff)
				if pid >= producers {
					h.failf("watcher: consumed value from impossible producer %d", pid)
					return
				}
				if seq <= got[cid].lastSeq[pid] {
					h.failf("watcher: consumer %d saw producer %d seq %d after %d (FIFO order violated)",
						cid, pid, seq, got[cid].lastSeq[pid])
				}
				got[cid].lastSeq[pid] = seq
				got[cid].count++
				got[cid].sum += v
			}
		}(c)
	}

	prodWG.Wait()
	// Raising the flag is itself a commit, so it wakes consumers parked
	// on an empty queue; they drain any backlog and exit.
	_ = rt.Atomic(func(tx *stm.Tx) error {
		closed.Set(tx, true)
		return nil
	})
	consWG.Wait()

	var wantCount, wantSum uint64
	for pid, n := range produced {
		wantCount += n
		for seq := uint64(0); seq < n; seq++ {
			wantSum += uint64(pid)<<32 | seq
		}
	}
	var gotCount, gotSum uint64
	for _, c := range got {
		gotCount += uint64(c.count)
		gotSum += c.sum
	}
	if gotCount != wantCount || gotSum != wantSum {
		h.failf("watcher: consumed %d values (sum %d), want %d (sum %d) — lost or duplicated handoff",
			gotCount, gotSum, wantCount, wantSum)
	}
}

// tortureScanner hammers snapshot reads: most threads run transfer
// writers over a conserved keyspace (plus occasional StoreDirect
// publishes to a side var, which chain versions outside any
// transaction), while the rest repeatedly sum the whole keyspace in
// snapshot mode. Every scan must see one consistent cut — the conserved
// total — no matter how many writers commit mid-scan; a torn scan
// (partial transfer, or values from two different instants) shows up as
// a wrong sum. Scans that outrun the default chain depth fall back to
// the validating path, which must be just as consistent; the workload
// asserts the snapshot machinery really ran by reconciling snapshot
// commits + fallbacks against the scan count. Under -check the recorded
// history additionally passes the snapshot-consistency axioms (pinned
// cut, truncation-never-ahead-of-a-reader).
func tortureScanner(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	const nKeys = 48
	const initial = 1000
	keys := make([]*stm.Var[int], nKeys)
	for i := range keys {
		keys[i] = stm.NewVar(initial)
	}
	side := stm.NewVar(0)
	scanners := threads / 4
	if scanners == 0 {
		scanners = 1
	}
	before := rt.Snapshot()
	var scans atomic.Int64
	h.runFor(threads, d, func(tid int, rng func(int) int64) {
		if tid < scanners {
			sum := 0
			if err := rt.AtomicSnapshot(func(tx *stm.Tx) error {
				sum = 0
				for _, k := range keys {
					sum += k.Get(tx)
				}
				_ = side.Get(tx)
				return nil
			}); err != nil {
				h.failf("scanner: snapshot scan: %v", err)
				return
			}
			if sum != nKeys*initial {
				h.failf("scanner: scan saw %d, want %d (torn cut)", sum, nKeys*initial)
			}
			scans.Add(1)
			return
		}
		from, to := rng(nKeys), rng(nKeys)
		if from == to {
			return
		}
		amt := int(rng(50)) + 1
		_ = rt.Atomic(func(tx *stm.Tx) error {
			f := keys[from].Get(tx)
			if f < amt {
				return nil
			}
			keys[from].Set(tx, f-amt)
			keys[to].Set(tx, keys[to].Get(tx)+amt)
			return nil
		})
		if rng(32) == 0 {
			side.StoreDirect(rt, int(rng(1<<20)))
		}
	})
	total := 0
	for _, k := range keys {
		total += k.Load()
	}
	if total != nKeys*initial {
		h.failf("scanner: final total %d, want %d", total, nKeys*initial)
	}
	delta := rt.Snapshot().Delta(before)
	if got := int64(delta.Snapshots + delta.SnapshotFallbacks); got != scans.Load() {
		h.failf("scanner: %d snapshot commits + fallbacks, want %d scans", got, scans.Load())
	}
	if rt.ActiveSnapshots() != 0 {
		h.failf("scanner: %d snapshots still registered after the run", rt.ActiveSnapshots())
	}
}

// tortureSelfcheck deliberately reports one failure so the nonzero-exit
// path of the harness can be asserted by the package test.
func tortureSelfcheck(h *torture, rt *stm.Runtime, threads int, d time.Duration) {
	h.failf("selfcheck: deliberate failure (harness exit-code test)")
}
