package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/iobench"
	"deferstm/internal/kv"
	"deferstm/internal/server"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/txlock"
	"deferstm/internal/wal"
)

// nsPerOp runs batches of fn until the budget is spent and returns the
// median batch's nanoseconds per call: interference lengthens some
// batches, and the median ignores them.
func nsPerOp(budget time.Duration, batch int, fn func()) float64 {
	var per []float64
	for deadline := time.Now().Add(budget); len(per) == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// scale2 runs one fn per goroutine on two goroutines at once and returns
// their combined throughput over twice the single-thread throughput.
func scale2(budget time.Duration, batch int, ns1 float64, fns [2]func()) float64 {
	var ns [2]float64
	work := make([]func(), 2)
	for i := range work {
		work[i] = func() { ns[i] = nsPerOp(budget, batch, fns[i]) }
	}
	runWorkers(work...)
	return (1/ns[0] + 1/ns[1]) / (2 / ns1)
}

var aluSink uint64

// hostALU times a fixed arithmetic loop (best of three, ms): the same
// number on two hosts means the same CPU speed was available.
func hostALU() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		aluSink += x
		best = math.Min(best, float64(time.Since(t0))/1e6)
	}
	return best
}

// sleepOvershoot is how much longer than asked a 1 ms sleep takes (µs,
// median of 20): the scheduling quantum every open loop inherits.
func sleepOvershoot() float64 {
	var over []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		over = append(over, float64(time.Since(t0)-time.Millisecond)/1e3)
	}
	return median(over)
}

// layerMicro measures each layer alone, from its public entry points.
// None of it depends on the workload except the request mix replayed by
// the codec measurement.
func layerMicro(cfg *config, in *inputs, w *workload) (map[string]float64, error) {
	out := map[string]float64{}
	microServer(cfg, in, w, out)
	if err := microKVMem(cfg, in, out); err != nil {
		return nil, err
	}
	if err := microKVDurable(cfg, in, out); err != nil {
		return nil, err
	}
	microSTM(cfg, out)
	if err := microDeferVsIrrevoc(cfg, out); err != nil {
		return nil, err
	}
	return out, nil
}

// microServer: the wire codec, both directions, on the workload's mix.
func microServer(cfg *config, in *inputs, w *workload, out map[string]float64) {
	mix, val := mixOf(in, w.putFrac, w.zipf, 0xc0dec), in.value('a', 1)
	out["server.codec_ns_per_req"] = nsPerOp(cfg.micro, 256, func() {
		o := mix.next()
		req := server.Request{Op: server.OpGet, ID: 7, Key: in.keys[o.key]}
		resp := server.Response{Op: server.OpGet, ID: 7, Found: true, Val: val}
		if o.put {
			req.Op, req.Val = server.OpPut, val
			resp = server.Response{Op: server.OpPut, ID: 7, LSN: 42}
		}
		if _, err := server.DecodeRequest(server.EncodeRequest(req)); err != nil {
			panic(err) // a codec that cannot read its own output is a bug
		}
		if _, err := server.DecodeResponse(server.EncodeResponse(resp)); err != nil {
			panic(err)
		}
	})
}

// microKVMem: one goroutine on the in-memory store; the preload doubles
// as the heap probe.
func microKVMem(cfg *config, in *inputs, out map[string]float64) error {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	mem, err := openMemStore(in, in.preloadValue)
	if err != nil {
		return err
	}
	defer mem.Close()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out["kv.heap_b_per_key"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(in.keys))

	r, val := in.rng(0x4b56), in.value('a', 1)
	// The closures below return nil and ModeNone has no I/O to fail.
	view := func() {
		key := in.keys[r.IntN(len(in.keys))]
		_ = mem.View(func(tx *stm.Tx) error { mem.Get(tx, key); return nil })
	}
	update := func() {
		key := in.keys[r.IntN(len(in.keys))]
		_, _ = mem.Update(func(_ *stm.Tx, b *kv.Batch) error { b.Put(key, val); return nil })
	}
	scan := func() { _ = mem.Scan(func(_, _ string) bool { return true }) }
	out["kv.view_ns"] = nsPerOp(cfg.micro, 1024, view)
	out["kv.update_ns"] = nsPerOp(cfg.micro, 1024, update)
	out["kv.scan_ns_per_key"] = nsPerOp(cfg.micro, 1, scan) / float64(len(in.keys))

	stop, scanning := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scanning)
		for {
			select {
			case <-stop:
				return
			default:
				scan()
			}
		}
	}()
	out["kv.update_under_scan_ns"] = nsPerOp(cfg.micro, 1024, update)
	close(stop)
	<-scanning
	return nil
}

// microKVDurable: Update + WaitDurable from two goroutines on the
// simulated device (the direct-call twin of kv-write-sat), then the time
// to recover a free-latency device holding the preload.
func microKVDurable(cfg *config, in *inputs, out map[string]float64) error {
	_, backend := newSimBackend(simDevice, nil)
	durable, _, err := kv.Open(stm.NewDefault(), backend, durableOpts)
	if err != nil {
		return err
	}
	val := in.value('a', 1)
	var lat [2][]time.Duration
	var failed [2]error
	writers := make([]func(), len(lat))
	for i := range writers {
		writers[i] = func() {
			r := in.rng(0xd0 + uint64(i))
			for deadline := time.Now().Add(cfg.micro); time.Now().Before(deadline); {
				key := in.keys[r.IntN(len(in.keys))]
				t0 := time.Now()
				tok, err := durable.Update(func(_ *stm.Tx, b *kv.Batch) error { b.Put(key, val); return nil })
				if err != nil {
					failed[i] = err
					return
				}
				durable.WaitDurable(tok)
				lat[i] = append(lat[i], time.Since(t0))
			}
		}
	}
	runWorkers(writers...)
	out["kv.update_durable_us"] = quantile(durationsUS(append(lat[0], lat[1]...)), 0.5)
	if err := errors.Join(failed[0], failed[1], durable.Close()); err != nil {
		return fmt.Errorf("durable update: %w", err)
	}

	fs := simio.NewFS(simio.Latency{})
	st, _, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), durableOpts)
	if err != nil {
		return err
	}
	if err := preload(st, in, in.preloadValue); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st, info, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), durableOpts)
	if err != nil {
		return err
	}
	out["kv.recovery_s"] = time.Since(t0).Seconds()
	if info.Keys != len(in.keys) {
		return fmt.Errorf("recovery found %d keys, want %d", info.Keys, len(in.keys))
	}
	return st.Close()
}

// microSTM: bare transactions, the transaction-friendly lock and a free
// deferred operation. The two threads' Vars sit at opposite ends of one
// block, several cache lines apart, so scale2 measures the runtime's own
// shared state and not false sharing between the Vars.
func microSTM(cfg *config, out map[string]float64) {
	rt := stm.NewDefault()
	block := make([]stm.Var[int], 16)
	for i := range block {
		block[i].Init(i)
	}
	a, b := block[:4], block[12:]
	// Atomic only ever returns the closure's own error, nil here.
	ro4 := func(vs []stm.Var[int]) func() {
		return func() {
			_ = rt.Atomic(func(tx *stm.Tx) error {
				if vs[0].Get(tx)+vs[1].Get(tx)+vs[2].Get(tx)+vs[3].Get(tx) < 0 {
					panic("unreachable: the Vars only grow")
				}
				return nil
			})
		}
	}
	rw2 := func(vs []stm.Var[int]) func() {
		return func() {
			_ = rt.Atomic(func(tx *stm.Tx) error {
				vs[0].Set(tx, vs[0].Get(tx)+1)
				vs[1].Set(tx, vs[1].Get(tx)+1)
				return nil
			})
		}
	}
	out["stm.ro4_ns"] = nsPerOp(cfg.micro, 1024, ro4(a))
	out["stm.rw2_ns"] = nsPerOp(cfg.micro, 1024, rw2(a))
	out["stm.ro4_scale2"] = scale2(cfg.micro, 1024, out["stm.ro4_ns"], [2]func(){ro4(a), ro4(b)})
	out["stm.rw2_scale2"] = scale2(cfg.micro, 1024, out["stm.rw2_ns"], [2]func(){rw2(a), rw2(b)})

	lock, owner := txlock.NewLock(), rt.NewOwner()
	out["txlock.acquire_release_ns"] = nsPerOp(cfg.micro, 1024, func() {
		_ = rt.AtomicAs(owner, func(tx *stm.Tx) error { lock.Acquire(tx); return nil })
		if err := rt.AtomicAs(owner, func(tx *stm.Tx) error { return lock.Release(tx) }); err != nil {
			panic(err) // released by the owner that acquired it
		}
	})
	obj := &seqFile{seq: stm.NewVar(uint64(0))}
	out["core.defer_ns"] = nsPerOp(cfg.micro, 1024, func() {
		_ = rt.Atomic(func(tx *stm.Tx) error {
			obj.Subscribe(tx)
			obj.seq.Set(tx, obj.seq.Get(tx)+1)
			core.AtomicDefer(tx, func(*core.OpCtx) {}, obj)
			return nil
		})
	})
}

// microDeferVsIrrevoc is the paper's Figure 2(d) shape: throughput of
// atomically deferred over irrevocable I/O, 2 threads, 4 open files, a
// 2 ms write. It must stay above 1.
func microDeferVsIrrevoc(cfg *config, out map[string]float64) error {
	ops := max(8, int(cfg.micro/(2*time.Millisecond)))
	var tput [2]float64
	for i, mode := range []iobench.Mode{iobench.Defer, iobench.Irrevoc} {
		ic := iobench.Config{Mode: mode, Files: 4, Threads: 2, Ops: ops, KeepOpen: true,
			Latency: simio.Latency{Write: 2 * time.Millisecond}}
		res, fs, err := iobench.Run(ic)
		if err != nil {
			return err
		}
		if err := iobench.Verify(fs, ic); err != nil {
			return err
		}
		tput[i] = res.OpsPerSec()
	}
	out["core.defer_vs_irrevoc"] = ratio(tput[0], tput[1])
	return nil
}

// ladder applies one seeded request stream — the workload's mix — at
// four public entry points, one goroutine, one request at a time:
// server.Client, kv.Store over the WAL on the simulated device, kv.Store
// in memory, and bare stm transactions. The server's inside is not
// visible from outside, so a layer's self time is its rung's mean minus
// the mean of the rung below.
func ladder(cfg *config, in *inputs, w *workload, tr *tracer) (map[string]float64, error) {
	svc, err := startService(in, tr, 1, false)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	mem, err := openMemStore(in, in.preloadValue)
	if err != nil {
		return nil, err
	}
	defer mem.Close()
	rt := stm.NewDefault()
	vars := make([]stm.Var[string], len(in.keys))
	for i := range vars {
		vars[i].Init(in.preloadValue(i))
	}

	client := svc.clients[0]
	viaStore := func(store *kv.Store) func(o op, key, val string, req uint64) error {
		return func(o op, key, val string, req uint64) error {
			t0 := time.Now()
			if !o.put {
				err := store.View(func(tx *stm.Tx) error { store.Get(tx, key); return nil })
				tr.add("kv.view", t0, time.Now(), 0, req, tidLadder)
				return err
			}
			tok, err := store.Update(func(_ *stm.Tx, b *kv.Batch) error { b.Put(key, val); return nil })
			if err != nil {
				return err
			}
			t1 := time.Now()
			id := tr.add("kv.update", t0, t1, 0, req, tidLadder)
			store.WaitDurable(tok)
			tr.add("wal.wait_durable", t1, time.Now(), id, req, tidLadder)
			return nil
		}
	}
	rungs := []struct {
		name string
		do   func(o op, key, val string, req uint64) error
	}{
		{"ladder.server_us", func(o op, key, val string, req uint64) (err error) {
			t0 := time.Now()
			if o.put {
				_, err = client.Put(key, val)
			} else {
				_, _, err = client.Get(key)
			}
			tr.add("server.roundtrip", t0, time.Now(), 0, req, tidLadder)
			return err
		}},
		{"ladder.kv_wal_us", viaStore(svc.store)},
		{"ladder.kv_mem_us", viaStore(mem)},
		{"ladder.stm_us", func(o op, _, val string, _ uint64) error {
			v := &vars[o.key]
			return rt.Atomic(func(tx *stm.Tx) error {
				if o.put {
					v.Set(tx, val)
				} else {
					v.Get(tx)
				}
				return nil
			})
		}},
	}
	out := map[string]float64{}
	for _, rung := range rungs {
		s := mixOf(in, w.putFrac, w.zipf, 0x1adde4)
		t0 := time.Now()
		for i := 0; i < cfg.ladderOps; i++ {
			o := s.next()
			if err := rung.do(o, in.keys[o.key], in.value('a', uint64(i)), uint64(i)); err != nil {
				return nil, err
			}
		}
		out[rung.name] = float64(time.Since(t0)) / 1e3 / float64(cfg.ladderOps)
	}
	out["server.self_us"] = out["ladder.server_us"] - out["ladder.kv_wal_us"]
	out["wal.self_us"] = out["ladder.kv_wal_us"] - out["ladder.kv_mem_us"]
	out["kv.self_us"] = out["ladder.kv_mem_us"] - out["ladder.stm_us"]
	out["stm.self_us"] = out["ladder.stm_us"]
	return out, nil
}
