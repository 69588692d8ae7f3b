package kv

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// keyFor probes for a key that routes to the wanted shard (FNV routing
// is deterministic, so a found key stays on that shard forever).
func keyFor(s *Store, shard int, tag string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", tag, i)
		if s.shardOf(k) == shard {
			return k
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, c := range []struct {
		lane int
		lsn  uint64
	}{{0, 0}, {0, 1}, {0, 1 << 40}, {3, 7}, {63, 1<<56 - 1}} {
		tok := PackToken(c.lane, c.lsn)
		if TokenLane(tok) != c.lane || TokenLSN(tok) != c.lsn {
			t.Fatalf("token(%d,%d) → lane %d lsn %d", c.lane, c.lsn, TokenLane(tok), TokenLSN(tok))
		}
		if c.lane == 0 && tok != c.lsn {
			t.Fatalf("lane-0 token %d != plain LSN %d", tok, c.lsn)
		}
	}
}

func TestLaneRecordCodec(t *testing.T) {
	ops := []Op{{Put: true, Key: "a", Value: "1"}, {Key: "b"}}
	pts := []LanePoint{{Lane: 1, LSN: 42}, {Lane: 5, LSN: 7}}
	b := encodeLaneRecord(99, pts, ops)
	gsn, gotPts, gotOps, err := decodeLaneRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if gsn != 99 || len(gotPts) != 2 || gotPts[0] != pts[0] || gotPts[1] != pts[1] {
		t.Fatalf("decoded gsn=%d pts=%v", gsn, gotPts)
	}
	if len(gotOps) != 2 || gotOps[0] != ops[0] || gotOps[1] != ops[1] {
		t.Fatalf("decoded ops %v", gotOps)
	}
	for cut := 1; cut < 10; cut++ {
		if _, _, _, err := decodeLaneRecord(b[:cut]); err == nil {
			t.Fatalf("truncated header at %d bytes decoded", cut)
		}
	}
}

// TestDecodeLaneRecordSingleLane: the one decoder recovery and the
// replica share reads a single-lane store's payload as the bare op list
// (gsn 0, no vector) and a multi-lane store's as header + ops; a bare op
// list is not a lane record.
func TestDecodeLaneRecordSingleLane(t *testing.T) {
	ops := []Op{{Put: true, Key: "a", Value: "1"}, {Key: "b"}}
	open := func(shards int) *Store {
		s, _, err := Open(stm.NewDefault(), nil, Options{Mode: ModeNone, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	gsn, pts, got, err := open(1).decodeRecord(EncodeOps(ops))
	if err != nil || gsn != 0 || pts != nil || len(got) != 2 || got[0] != ops[0] || got[1] != ops[1] {
		t.Fatalf("single-lane decode = gsn %d pts %v ops %v err %v", gsn, pts, got, err)
	}
	four := open(4)
	gsn, pts, got, err = four.decodeRecord(EncodeLaneRecord(7, []LanePoint{{Lane: 2, LSN: 9}}, ops))
	if err != nil || gsn != 7 || len(pts) != 1 || len(got) != 2 {
		t.Fatalf("multi-lane decode = gsn %d pts %v ops %v err %v", gsn, pts, got, err)
	}
	if _, _, _, err := four.decodeRecord(EncodeOps(ops)); err == nil {
		t.Fatal("a 4-lane store decoded a bare op list as a lane record")
	}
}

// TestShardedRoundTrip: a 4-lane store routes keys, commits cross-shard
// batches, acks tokens, and recovers to identical contents with the lane
// count adopted from the manifest.
func TestShardedRoundTrip(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		fs := simio.NewFS(simio.Latency{})
		opts := Options{Shards: 4}
		s, info := openStore(t, fs, opts)
		if info.Shards != 4 {
			t.Fatalf("opened with %d shards, want 4", info.Shards)
		}
		// Single-shard commits on every lane.
		keys := make([]string, 4)
		for lane := 0; lane < 4; lane++ {
			keys[lane] = keyFor(s, lane, fmt.Sprintf("solo%d", lane))
			tok := put(t, s, keys[lane], fmt.Sprintf("v%d", lane))
			if TokenLane(tok) != lane {
				t.Fatalf("token lane %d, want %d", TokenLane(tok), lane)
			}
			s.WaitDurable(tok)
		}
		// A cross-shard batch touching all four lanes at once.
		tok, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			for lane := 0; lane < 4; lane++ {
				b.Put(keyFor(s, lane, "cross"), "x")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if TokenLane(tok) != 0 {
			t.Fatalf("cross-shard home lane %d, want 0 (lowest touched)", TokenLane(tok))
		}
		s.WaitDurable(tok)
		// Cross-shard read-modify-write sees its own writes.
		if _, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			b.Put(keys[1], "updated")
			if v, ok := b.Get(keys[1]); !ok || v != "updated" {
				t.Errorf("read-own-write: %q %v", v, ok)
			}
			b.Delete(keys[2])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		before := dump(t, s)
		if _, ok := before[keys[2]]; ok {
			t.Fatal("deleted key still present")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen with Shards 0: the manifest supplies the count.
		s2, info2 := openStore(t, fs, Options{})
		defer s2.Close()
		if info2.Shards != 4 || s2.Shards() != 4 {
			t.Fatalf("reopen adopted %d shards, want 4", info2.Shards)
		}
		if info2.MaxGSN == 0 {
			t.Fatal("no GSN recovered from a multi-lane store")
		}
		after := dump(t, s2)
		if len(after) != len(before) {
			t.Fatalf("recovered %d keys, want %d", len(after), len(before))
		}
		for k, v := range before {
			if after[k] != v {
				t.Fatalf("recovered %q=%q, want %q", k, after[k], v)
			}
		}
	})
}

// TestManifestPinsLaneCount: the satellite-1 contract. Reopening with a
// disagreeing -shards fails with an actionable error; 0 adopts.
func TestManifestPinsLaneCount(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	s, _ := openStore(t, fs, Options{Shards: 4})
	put(t, s, "k", "v")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), Options{Shards: 2})
	if err == nil {
		t.Fatal("reopen with -shards 2 of a 4-lane store succeeded")
	}
	for _, want := range []string{"4", "2", "lane"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q does not mention %q", err, want)
		}
	}
	// Matching and adopting both work.
	for _, shards := range []int{4, 0} {
		s2, info := openStore(t, fs, Options{Shards: shards})
		if info.Shards != 4 {
			t.Fatalf("Shards=%d reopened as %d lanes", shards, info.Shards)
		}
		if v, ok := mustGet(t, s2, "k"); !ok || v != "v" {
			t.Fatalf("lost k after reopen: %q %v", v, ok)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardCountValidation(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	for _, n := range []int{3, -1, 5, 128} {
		if _, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), Options{Shards: n}); err == nil {
			t.Fatalf("Shards=%d accepted", n)
		}
	}
}

// TestLegacyDirAdoption: a pre-manifest directory (root segment files,
// no manifest) opens as a single-lane store and gains a manifest.
func TestLegacyDirAdoption(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	s, _ := openStore(t, fs, Options{})
	put(t, s, "old", "data")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b := wal.NewSimBackend(fs)
	if err := b.Remove("manifest"); err != nil {
		t.Fatal(err)
	}
	s2, info := openStore(t, fs, Options{})
	if info.Shards != 1 {
		t.Fatalf("legacy dir adopted as %d lanes", info.Shards)
	}
	if v, ok := mustGet(t, s2, "old"); !ok || v != "data" {
		t.Fatalf("legacy data lost: %q %v", v, ok)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(b); err != nil {
		t.Fatalf("adoption did not write a manifest: %v", err)
	}
	// But a multi-lane layout without its manifest is corruption.
	fs4 := simio.NewFS(simio.Latency{})
	s4, _ := openStore(t, fs4, Options{Shards: 4})
	put(t, s4, "k", "v")
	if err := s4.Close(); err != nil {
		t.Fatal(err)
	}
	b4 := wal.NewSimBackend(fs4)
	if err := b4.Remove("manifest"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs4), Options{}); err == nil {
		t.Fatal("lane files without a manifest opened")
	}
}

// TestCrossShardCrashAtomicity: crash plans kill the store between lane
// flushes of cross-shard batches — after one lane's fsync returned and
// before a sibling's — and recovery must present every batch
// all-or-nothing, never a half: each lane's flusher fsyncs its own
// records, so a crash can land between two lanes' fsyncs of one batch.
//
// The workload is all cross-shard (every update touches both of two
// specific lanes plus sometimes a third), so batch atomicity plus
// per-lane prefixes collapse to a single global prefix of the commit
// history; the check is exact. Each update writes unique keys, so "half
// a batch" is directly visible.
func TestCrossShardCrashAtomicity(t *testing.T) {
	const updates = 30
	t.Run("group", func(t *testing.T) {
		fired, truncated := 0, 0
		for _, point := range crashPoints {
			for n := uint64(1); n <= 41; n += 4 {
				for seed := uint64(1); seed <= 2; seed++ {
					ok, cut := crossShardCrashScenario(t, 512, point, n, seed, updates)
					if ok {
						fired++
					}
					if cut {
						truncated++
					}
				}
			}
		}
		// At 100-byte segments a lane's segment holds one record of
		// this workload (61–79 bytes), so every lane write after a
		// segment's first rotates first: tried at every crash point
		// the run reaches.
		for _, point := range crashPoints {
			for seed := uint64(1); seed <= 2; seed++ {
				fired += everyCrashPoint(func(n uint64) bool {
					ok, cut := crossShardCrashScenario(t, 100, point, n, seed, updates)
					if cut {
						truncated++
					}
					return ok
				})
			}
		}
		if fired < 300 {
			t.Fatalf("only %d crash scenarios fired", fired)
		}
		if truncated == 0 {
			t.Fatal("no scenario exercised cross-lane presumed abort — the test is vacuous")
		}
		t.Logf("%d scenarios fired, %d with presumed-abort truncation", fired, truncated)
	})
}

func crossShardCrashScenario(t *testing.T, segBytes int, point simio.CrashPoint, n, seed uint64, updates int) (fired, truncated bool) {
	t.Helper()
	opts := Options{Shards: 4, WAL: wal.Options{SegmentBytes: segBytes}}
	fs := simio.NewFS(simio.Latency{})
	s, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Acked batches at the crash instant: every lane watermark is read
	// inside the crash hook, so a batch counts as acked only if its home
	// token was coverable — matching what a client could have observed.
	var ackedTokens atomic.Value // []uint64 watermark per lane
	fs.SetCrashPlan(simio.CrashPlan{Point: point, N: n, OnCrash: func() {
		wm := make([]uint64, 4)
		for i, log := range s.Logs() {
			wm[i] = log.DurableWatermark()
		}
		ackedTokens.Store(wm)
	}})

	type batch struct {
		keys []string
		tok  uint64
	}
	var history []batch
	for i := 0; i < updates; i++ {
		lanes := []int{i % 4, (i + 1) % 4}
		if i%5 == 0 {
			lanes = append(lanes, (i+2)%4)
		}
		var keys []string
		tok, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			keys = keys[:0]
			for _, lane := range lanes {
				k := keyFor(s, lane, fmt.Sprintf("u%d-l%d", i, lane))
				b.Put(k, fmt.Sprintf("v%d", i))
				keys = append(keys, k)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, batch{keys: keys, tok: tok})
		s.WaitDurable(tok)
		if i == updates/2 {
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := fs.CrashImage()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if img == nil {
		return false, false
	}

	fs2 := simio.FSFromImage(img, simio.Latency{}, seed)
	s2, info, err := Open(stm.NewDefault(), wal.NewSimBackend(fs2), Options{WAL: opts.WAL})
	if err != nil {
		t.Fatalf("%v N=%d seed=%d: recovery failed: %v", point, n, seed, err)
	}
	defer s2.Close()
	if info.Shards != 4 {
		t.Fatalf("%v N=%d seed=%d: recovered %d shards", point, n, seed, info.Shards)
	}
	got := dump(t, s2)

	// All-or-nothing per batch, and the survivor set is a prefix of the
	// commit history (the workload is entirely cross-shard, so per-lane
	// prefixes + batch atomicity = one global prefix).
	recovered := 0
	for i, bt := range history {
		present := 0
		for _, k := range bt.keys {
			if _, ok := got[k]; ok {
				present++
			}
		}
		switch present {
		case len(bt.keys):
			recovered = i + 1
		case 0:
			// fine — but nothing later may be present
			for j := i + 1; j < len(history); j++ {
				for _, k := range history[j].keys {
					if _, ok := got[k]; ok {
						t.Fatalf("%v N=%d seed=%d: batch %d missing but batch %d present (not a prefix)",
							point, n, seed, i, j)
					}
				}
			}
		default:
			t.Fatalf("%v N=%d seed=%d: batch %d recovered %d of %d keys — cross-shard atomicity broken",
				point, n, seed, i, present, len(bt.keys))
		}
		if present == 0 {
			break
		}
	}

	// Nothing a client saw acked may be lost.
	if wm, _ := ackedTokens.Load().([]uint64); wm != nil {
		for i, bt := range history {
			if TokenLSN(bt.tok) <= wm[TokenLane(bt.tok)] && i >= recovered {
				t.Fatalf("%v N=%d seed=%d: batch %d was acked (token lane %d lsn %d ≤ wm %d) but lost",
					point, n, seed, i, TokenLane(bt.tok), TokenLSN(bt.tok), wm[TokenLane(bt.tok)])
			}
		}
	}

	// The store must be writable after presumed-abort truncation.
	tok, err := s2.Update(func(tx *stm.Tx, b *Batch) error {
		for lane := 0; lane < 4; lane++ {
			b.Put(keyFor(s2, lane, "post"), "ok")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%v N=%d seed=%d: post-recovery update: %v", point, n, seed, err)
	}
	s2.WaitDurable(tok)
	return true, info.SkippedRecords > 0
}

// TestCrossLaneCutsCascade exercises the fixed point directly: holding
// back lane 1's incomplete batch orphans a later batch lane 0 holds
// complete records of, which must then be held back too.
func TestCrossLaneCutsCascade(t *testing.T) {
	s, _, err := Open(stm.NewDefault(), nil, Options{Mode: ModeNone, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(lsn, gsn uint64, pts ...LanePoint) laneRecord {
		return laneRecord{lsn: lsn, gsn: gsn, pts: pts, ops: []Op{{Put: true, Key: "k", Value: "v"}}}
	}
	// Lane 0: solo(1), batchA(2 ↔ lane1:2-missing), batchB(3 ↔ lane1:1).
	// Lane 1: batchB(1). Batch A is incomplete → cut lane0 at 2, which
	// also drops batchB's lane-0 record (tail) → lane 1 must cut at 1.
	lanes := [][]laneRecord{
		{
			rec(1, 1, LanePoint{0, 1}),
			rec(2, 2, LanePoint{0, 2}, LanePoint{1, 2}),
			rec(3, 3, LanePoint{0, 3}, LanePoint{1, 1}),
		},
		{
			rec(1, 3, LanePoint{0, 3}, LanePoint{1, 1}),
		},
	}
	cuts, err := applierCuts(s, []uint64{0, 0}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if cuts[0] != 2 || cuts[1] != 1 {
		t.Fatalf("cuts = %v, want [2 1]", cuts)
	}
	// A checkpointed sibling counts as present: same layout, but lane 1
	// checkpointed past LSN 2 — no cuts anywhere.
	lanes[1] = nil
	cuts, err = applierCuts(s, []uint64{0, 2}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if cuts[0] != 0 || cuts[1] != 0 {
		t.Fatalf("cuts with checkpoint cover = %v, want [0 0]", cuts)
	}
}

// TestUpdateReturnsAtCommit: in ModeGroup a single-shard Update is a
// commit, not an fsync — it returns while its record is still only
// queued, and the lane's flusher makes it durable without any further
// call. (While the flush ran inline in the committing goroutine, Update
// took an fsync and the watermark already covered the token on return.)
func TestUpdateReturnsAtCommit(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: 100 * time.Millisecond})
	s, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), Options{Mode: ModeGroup, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := keyFor(s, 1, "solo")
	tok, err := s.Update(func(tx *stm.Tx, b *Batch) error { b.Put(key, "v"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Logs()[1].DurableWatermark(); d >= TokenLSN(tok) {
		t.Fatalf("record already durable (watermark %d) when Update returned", d)
	}
	s.WaitDurable(tok) // nothing else is appended: the flusher alone must get it there
}

// TestCrossShardUpdateReturnsAtCommit: a cross-shard Update is a commit
// too. It returns while another owner holds one touched lane's TxLock,
// and becomes durable once that owner lets go. (While a cross-shard
// commit acquired every touched lane's lock, it blocked here.)
func TestCrossShardUpdateReturnsAtCommit(t *testing.T) {
	rt := stm.NewDefault()
	s, _, err := Open(rt, wal.NewSimBackend(simio.NewFS(simio.Latency{})), Options{Mode: ModeGroup, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lane1, me := s.Logs()[1], rt.NewOwner()
	lane1.Lock().AcquireOutside(rt, me)
	done := make(chan uint64, 1)
	go func() {
		tok, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			b.Put(keyFor(s, 0, "cross"), "v")
			b.Put(keyFor(s, 1, "cross"), "v")
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- tok
	}()
	var tok uint64
	select {
	case tok = <-done:
	case <-time.After(5 * time.Second):
		_ = lane1.Lock().ReleaseOutside(rt, me)
		t.Fatal("cross-shard Update blocked on a lane lock another owner holds")
	}
	if d := s.Logs()[0].DurableWatermark(); d >= TokenLSN(tok) {
		t.Fatalf("home lane acked (watermark %d) while lane 1 could not flush", d)
	}
	if err := lane1.Lock().ReleaseOutside(rt, me); err != nil {
		t.Fatal(err)
	}
	s.WaitDurable(tok)
}

// TestCrossShardStressNoDeadlock: 8 writers on 4 lanes commit random
// 1–3-lane batches, each waiting for its own token, with a store
// checkpoint every 50 commits. Lane flushers wait on each other at the
// frontier gate; the run must finish (no cycle of waits) and recover to
// what it committed, at GOMAXPROCS 1, 2 and 4.
func TestCrossShardStressNoDeadlock(t *testing.T) {
	const writers, perWriter = 8, 60
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		fs := simio.NewFS(simio.Latency{Fsync: 50 * time.Microsecond})
		s, _ := openStore(t, fs, Options{Mode: ModeGroup, Shards: 4, WAL: wal.Options{SegmentBytes: 4 << 10}})
		var commits atomic.Int64
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			go func() {
				r := rand.New(rand.NewPCG(uint64(procs), uint64(w)))
				for i := 0; i < perWriter; i++ {
					lanes := r.Perm(4)[:1+r.IntN(3)]
					tok, err := s.Update(func(tx *stm.Tx, b *Batch) error {
						for _, lane := range lanes {
							b.Put(keyFor(s, lane, fmt.Sprintf("w%d-%d", w, r.IntN(8))), fmt.Sprintf("%d", i))
						}
						return nil
					})
					if err == nil {
						s.WaitDurable(tok)
						if commits.Add(1)%50 == 0 {
							_, err = s.Checkpoint()
						}
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		timeout := time.After(60 * time.Second)
		for w := 0; w < writers; w++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
			case <-timeout:
				t.Fatalf("GOMAXPROCS %d: stuck after %d of %d commits", procs, commits.Load(), writers*perWriter)
			}
		}
		want := dump(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, _ := openStore(t, fs, Options{})
		got := dump(t, s2)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: recovered %d keys, want %d", procs, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("GOMAXPROCS %d: recovered %q = %q, want %q", procs, k, got[k], v)
			}
		}
	}
}

// TestSaturatedLaneCrossShardAndCheckpoint: while single-shard Updates
// keep one lane's flusher permanently busy, a cross-shard Update (whose
// record on the busy lane must pass the frontier gate) becomes durable
// and a store Checkpoint (which takes every lane's lock in turn)
// completes, each within a few of the busy lane's flushes.
func TestSaturatedLaneCrossShardAndCheckpoint(t *testing.T) {
	fs := simio.NewFS(simio.Latency{Fsync: time.Millisecond})
	s, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), Options{Mode: ModeGroup, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hot, k0, k1 := keyFor(s, 0, "hot"), keyFor(s, 0, "cross"), keyFor(s, 1, "cross")
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Open loop: never waits for durability, so records arrive
			// during every fsync and the queue is never empty.
			if _, err := s.Update(func(tx *stm.Tx, b *Batch) error { b.Put(hot, fmt.Sprint(i)); return nil }); err != nil {
				t.Error(err)
				return
			}
			for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
				runtime.Gosched()
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	busy := s.Logs()[0]
	for busy.BatchStats().Flushes < 5 {
		time.Sleep(time.Millisecond)
	}
	for round := 0; round < 10; round++ {
		for what, fn := range map[string]func() error{
			"cross-shard Update": func() error {
				tok, err := s.Update(func(tx *stm.Tx, b *Batch) error {
					b.Put(k0, fmt.Sprint(round))
					b.Put(k1, fmt.Sprint(round))
					return nil
				})
				s.WaitDurable(tok)
				return err
			},
			"Checkpoint": func() error { _, err := s.Checkpoint(); return err },
		} {
			before := busy.BatchStats().Flushes
			done := make(chan error, 1)
			go func() { done <- fn() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s starved behind the saturated lane (%d flushes and counting)", what, busy.BatchStats().Flushes-before)
			}
			if n := busy.BatchStats().Flushes - before; n > 32 {
				t.Fatalf("%s waited out %d flushes of the saturated lane, want <= 32", what, n)
			}
		}
	}
}
