package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/kv"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// memOpts is the in-memory store of the mem-* workloads: no WAL, the
// same two shards as the durable stores.
var memOpts = kv.Options{Mode: kv.ModeNone, Shards: 2}

func openMemStore(in *inputs, val func(i int) string) (*kv.Store, error) {
	store, _, err := kv.Open(stm.NewDefault(), nil, memOpts)
	if err != nil {
		return nil, err
	}
	return store, preload(store, in, val)
}

// countEvery is how often a closed loop publishes its completed-op count
// to the sampler: often enough that a 250 ms slice is exact to ~0.1%,
// rarely enough that the atomic add is not part of what is measured.
const countEvery = 256

// ---- mem-point ----

const (
	memThreads     = 2
	memPutFrac     = 0.10
	memBatch       = 4096 // ops per latency sample
	memWarmBatches = 16   // per thread
)

type memThread struct {
	r      *rand.Rand
	n, seq uint64
	lat    []time.Duration // one per batch
	misses uint64
	errs   uint64
}

type memPoint struct {
	cfg   *config
	in    *inputs
	store *kv.Store
	thr   [memThreads]memThread
}

func setupMemPoint(cfg *config, in *inputs, _ *tracer) (instance, error) {
	store, err := openMemStore(in, in.preloadValue)
	if err != nil {
		return nil, err
	}
	w := &memPoint{cfg: cfg, in: in, store: store}
	warm := make([]func(), memThreads)
	for ti := range warm {
		w.thr[ti].r = in.rng(uint64(ti) + 1)
		warm[ti] = func() { w.loop(ti, &load{}, nil, cfg.warm(memWarmBatches)) }
	}
	runWorkers(warm...)
	for ti := range w.thr {
		w.thr[ti].lat = nil
	}
	return w, nil
}

// loop is one thread's closed loop of point operations, timed per batch.
// It runs limit batches (warm-up) or, with limit 0, until the window ends.
func (w *memPoint) loop(ti int, l *load, tr *tracer, limit int) {
	t := &w.thr[ti]
	tag := byte('a' + ti)
	nkeys := uint64(len(w.in.keys))
	for b := 0; !l.done.Load() && (limit == 0 || b < limit); b++ {
		t0 := time.Now()
		for j := 0; j < memBatch; j++ {
			u := t.r.Uint64()
			key := w.in.keys[(u>>32)%nkeys]
			put := float64(uint32(u)) < memPutFrac*(1<<32)
			t.n++
			traced := tr.sampled(t.n)
			var s0 time.Time
			if traced {
				s0 = time.Now()
			}
			if put {
				t.seq++
				val := w.in.value(tag, t.seq)
				if _, err := w.store.Update(func(_ *stm.Tx, b *kv.Batch) error { b.Put(key, val); return nil }); err != nil {
					t.errs++
				}
			} else {
				found := false
				err := w.store.View(func(tx *stm.Tx) error { _, found = w.store.Get(tx, key); return nil })
				if err != nil {
					t.errs++
				} else if !found {
					t.misses++
				}
			}
			if traced {
				name := "kv.view"
				if put {
					name = "kv.update"
				}
				tr.add(name, s0, time.Now(), 0, t.n, ti)
			}
			if j%countEvery == countEvery-1 {
				l.count[ti].n.Add(countEvery)
			}
		}
		t.lat = append(t.lat, time.Since(t0))
	}
}

func (w *memPoint) run(tr *tracer) (*result, error) {
	var l load
	before := w.store.Runtime().Snapshot()
	workers := make([]func(), memThreads)
	for ti := range workers {
		workers[ti] = func() { w.loop(ti, &l, tr, 0) }
	}
	ws := runWindow(w.cfg, &l, func(time.Duration, bool) []func() { return workers })

	res := &result{ws: ws, perSample: memBatch, layer: stmLayers(w.store.Runtime().Snapshot().Sub(before))}
	for ti := range w.thr {
		t := &w.thr[ti]
		res.lat = append(res.lat, t.lat...)
		res.attempted += uint64(len(t.lat)) * memBatch
		res.fail(t.errs, "thread %d: %d operations returned an error", ti, t.errs)
		res.fail(t.misses, "thread %d: %d reads missed a preloaded key", ti, t.misses)
	}
	var n int
	if err := w.store.View(func(tx *stm.Tx) error { n = w.store.Len(tx); return nil }); err != nil {
		return nil, err
	}
	if n != len(w.in.keys) {
		res.fail(1, "store holds %d keys after the run, want %d", n, len(w.in.keys))
	}
	return res, nil
}

func (w *memPoint) close() { _ = w.store.Close() } // ModeNone: nothing to flush

// ---- mem-scan-writes ----

const (
	scanInterval   = 100 * time.Millisecond
	scanBalance    = 1000 // every key's starting value; transfers preserve the total
	scanWarmWrites = 1 << 15
	scanWarmScans  = 4
)

type memScanWrites struct {
	cfg   *config
	in    *inputs
	store *kv.Store
	r     *rand.Rand

	writes, badWrites uint64
	scanLat           []time.Duration
	scanLate          []time.Duration
	badScans          uint64
}

func setupMemScanWrites(cfg *config, in *inputs, _ *tracer) (instance, error) {
	store, err := openMemStore(in, func(int) string { return in.value('n', scanBalance) })
	if err != nil {
		return nil, err
	}
	w := &memScanWrites{cfg: cfg, in: in, store: store, r: in.rng(1)}
	w.writer(&load{}, nil, uint64(cfg.warm(scanWarmWrites)))
	w.scanner(nil, cfg.warm(scanWarmScans))
	if w.badWrites+w.badScans > 0 {
		_ = store.Close()
		return nil, fmt.Errorf("mem-scan-writes: warm-up broke the invariant")
	}
	w.writes, w.scanLat, w.scanLate = 0, nil, nil
	return w, nil
}

// writer is the closed loop of two-key transfers: move one unit from a
// to b in one transaction, so the sum over all keys never changes.
func (w *memScanWrites) writer(l *load, tr *tracer, limit uint64) {
	n := len(w.in.keys)
	for i := uint64(0); !l.done.Load() && (limit == 0 || i < limit); i++ {
		a := w.r.IntN(n)
		b := w.r.IntN(n - 1)
		if b >= a {
			b++
		}
		ka, kb := w.in.keys[a], w.in.keys[b]
		traced := tr.sampled(i)
		var s0 time.Time
		if traced {
			s0 = time.Now()
		}
		bad := false
		_, err := w.store.Update(func(_ *stm.Tx, bt *kv.Batch) error {
			va, _ := bt.Get(ka)
			vb, _ := bt.Get(kb)
			_, na, oka := parseValue(va)
			_, nb, okb := parseValue(vb)
			if bad = !oka || !okb; bad || na == 0 {
				return nil
			}
			bt.Put(ka, w.in.value('n', na-1))
			bt.Put(kb, w.in.value('n', nb+1))
			return nil
		})
		if err != nil || bad {
			w.badWrites++
		}
		if traced {
			tr.add("kv.update", s0, time.Now(), 0, i, 0)
		}
		w.writes++
		l.count[0].n.Add(1)
	}
}

// scanner is the open loop of n full-store snapshot scans, one every
// scanInterval, each timed from its due instant.
func (w *memScanWrites) scanner(tr *tracer, n int) {
	want := uint64(len(w.in.keys)) * scanBalance
	openLoop(wallClock{}, time.Now(), scanInterval, n, func(i int, due time.Time) {
		t0 := time.Now()
		keys, sum, bad := 0, uint64(0), false
		err := w.store.Scan(func(_, v string) bool {
			_, n, ok := parseValue(v)
			keys++
			sum += n
			bad = bad || !ok
			return true
		})
		end := time.Now()
		w.scanLat = append(w.scanLat, end.Sub(due))
		w.scanLate = append(w.scanLate, t0.Sub(due))
		if err != nil || bad || keys != len(w.in.keys) || sum != want {
			w.badScans++
		}
		tr.add("kv.scan", t0, end, 0, uint64(i), 1)
	})
}

func (w *memScanWrites) run(tr *tracer) (*result, error) {
	var l load
	before := w.store.Runtime().Snapshot()
	ws := runWindow(w.cfg, &l, func(part time.Duration, _ bool) []func() {
		return []func(){
			func() { w.writer(&l, tr, 0) },
			func() { w.scanner(tr, max(1, int(part/scanInterval))) },
		}
	})

	res := &result{
		ws: ws, lat: w.scanLat, late: w.scanLate, perSample: 1,
		attempted: w.writes + uint64(len(w.scanLat)),
		layer:     stmLayers(w.store.Runtime().Snapshot().Sub(before)),
	}
	res.fail(w.badWrites, "%d transfers failed or read a malformed value", w.badWrites)
	res.fail(w.badScans, "%d scans missed a key or saw a sum other than the invariant (a torn snapshot)", w.badScans)
	return res, nil
}

func (w *memScanWrites) close() { _ = w.store.Close() } // ModeNone: nothing to flush

// ---- defer-io ----

const (
	deferThreads     = 2
	deferFiles       = 4
	deferRecord      = 64   // bytes per deferred append
	deferBatch       = 1024 // transactions per latency sample
	deferWarmBatches = 16   // per thread
	// deferRotate bounds the simulated files: at this size the deferred
	// operation, still holding the file's lock, verifies and truncates.
	deferRotate = 1 << 20
)

// seqFile is one deferrable output file. seq is its transactional
// sequence number; the fields below it are only touched by deferred
// operations, which hold the object's lock.
type seqFile struct {
	core.Deferrable
	seq  *stm.Var[uint64]
	fs   *simio.FS
	f    *simio.File
	name string

	verified uint64 // records checked (and truncated away) so far
	bad      uint64 // records out of sequence
}

// append is the deferred operation: one 64-byte record carrying s.
func (o *seqFile) append(s uint64) {
	var rec [deferRecord]byte
	for i := range rec {
		rec[i] = '.'
	}
	rec[deferRecord-1] = '\n'
	for i := 19; i >= 0; i-- {
		rec[i] = '0' + byte(s%10)
		s /= 10
	}
	if _, err := o.f.Write(rec[:]); err != nil {
		o.bad++
	}
	if o.f.Len() >= deferRotate {
		o.verify()
	}
}

// verify requires the file to hold exactly the next records in sequence,
// then empties it.
func (o *seqFile) verify() {
	data, err := o.fs.ReadAll(o.name)
	if err != nil || len(data)%deferRecord != 0 {
		o.bad++
		return
	}
	for off := 0; off < len(data); off += deferRecord {
		var s uint64
		for _, c := range data[off : off+20] {
			s = s*10 + uint64(c-'0')
		}
		o.verified++
		if s != o.verified {
			o.bad++
		}
	}
	if err := o.fs.Truncate(o.name, 0); err != nil {
		o.bad++
	}
}

type deferThread struct {
	r   *rand.Rand
	n   uint64
	lat []time.Duration // one per batch
}

type deferIO struct {
	cfg   *config
	rt    *stm.Runtime
	files [deferFiles]*seqFile
	thr   [deferThreads]deferThread
}

func setupDeferIO(cfg *config, in *inputs, _ *tracer) (instance, error) {
	w := &deferIO{cfg: cfg, rt: stm.NewDefault()}
	fs := simio.NewFS(simio.Latency{})
	for i := range w.files {
		name := fmt.Sprintf("out-%d", i)
		f, err := fs.OpenAppend(name)
		if err != nil {
			return nil, err
		}
		w.files[i] = &seqFile{seq: stm.NewVar(uint64(0)), fs: fs, f: f, name: name}
	}
	warm := make([]func(), deferThreads)
	for ti := range warm {
		w.thr[ti].r = in.rng(uint64(ti) + 1)
		warm[ti] = func() { w.loop(ti, &load{}, nil, cfg.warm(deferWarmBatches)) }
	}
	runWorkers(warm...)
	for ti := range w.thr {
		w.thr[ti].lat = nil
	}
	return w, nil
}

// loop is one thread's closed loop: subscribe to a file, bump its
// sequence number, and atomically defer the append that records it.
func (w *deferIO) loop(ti int, l *load, tr *tracer, limit int) {
	t := &w.thr[ti]
	for b := 0; !l.done.Load() && (limit == 0 || b < limit); b++ {
		t0 := time.Now()
		for j := 0; j < deferBatch; j++ {
			o := w.files[t.r.IntN(deferFiles)]
			t.n++
			traced := tr.sampled(t.n)
			var s0, w0, w1 time.Time
			if traced {
				s0 = time.Now()
			}
			// fn cannot fail: Atomic only returns fn's own error.
			_ = w.rt.Atomic(func(tx *stm.Tx) error {
				o.Subscribe(tx)
				s := o.seq.Get(tx) + 1
				o.seq.Set(tx, s)
				core.AtomicDefer(tx, func(*core.OpCtx) {
					if traced {
						w0 = time.Now()
					}
					o.append(s)
					if traced {
						w1 = time.Now()
					}
				}, o)
				return nil
			})
			if traced {
				id := tr.add("core.defer", s0, time.Now(), 0, t.n, ti)
				tr.add("simio.write", w0, w1, id, t.n, ti)
			}
			if j%countEvery == countEvery-1 {
				l.count[ti].n.Add(countEvery)
			}
		}
		t.lat = append(t.lat, time.Since(t0))
	}
}

func (w *deferIO) run(tr *tracer) (*result, error) {
	var l load
	before := w.rt.Snapshot()
	workers := make([]func(), deferThreads)
	for ti := range workers {
		workers[ti] = func() { w.loop(ti, &l, tr, 0) }
	}
	ws := runWindow(w.cfg, &l, func(time.Duration, bool) []func() { return workers })

	res := &result{ws: ws, perSample: deferBatch, layer: stmLayers(w.rt.Snapshot().Sub(before))}
	var committed uint64
	for ti := range w.thr {
		res.lat = append(res.lat, w.thr[ti].lat...)
		res.attempted += uint64(len(w.thr[ti].lat)) * deferBatch
		committed += w.thr[ti].n
	}
	// Every transaction since set-up appended exactly one record: each
	// file must hold sequence numbers 1..n in order, n its sequence Var.
	var records uint64
	for _, o := range w.files {
		o.verify()
		records += o.verified
		if n := o.seq.Load(); n != o.verified {
			res.fail(1, "%s: %d records on file, sequence number is %d", o.name, o.verified, n)
		}
		res.fail(o.bad, "%s: %d records out of sequence or unwritable", o.name, o.bad)
	}
	if records != committed {
		res.fail(1, "%d records on file for %d committed transactions", records, committed)
	}
	return res, nil
}

func (w *deferIO) close() {
	for _, o := range w.files {
		_ = o.f.Close() // in-memory file, nothing buffered
	}
}
