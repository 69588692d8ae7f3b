package check

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"deferstm/internal/history"
	"deferstm/internal/kv"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

const logVar = 99

func app(tx, lsn, ver uint64) stm.Event {
	return stm.Event{Kind: stm.EvWALAppend, TxID: tx, Owner: stm.OwnerID(tx), Var: logVar, Aux: lsn, Ver: ver}
}

// flusher is the owner that publishes the hand-built histories'
// watermarks; held gives it the log's lock for the whole history.
const flusher stm.OwnerID = 77

func ack(watermark uint64) stm.Event {
	return stm.Event{Kind: stm.EvWALDurable, Owner: flusher, Var: logVar, Aux: watermark}
}

func lockEv(kind stm.EventKind, owner stm.OwnerID, depth uint64) stm.Event {
	return stm.Event{Kind: kind, Owner: owner, Var: logVar, Aux: depth}
}

func held(evs ...stm.Event) []stm.Event {
	return append([]stm.Event{lockEv(stm.EvLockAcquire, flusher, 1)}, evs...)
}

func wantViolation(t *testing.T, vs []Violation, substr string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == RuleDurability && strings.Contains(v.Msg, substr) {
			return
		}
	}
	t.Fatalf("no durability violation containing %q in %v", substr, vs)
}

func TestDurabilityCleanHistory(t *testing.T) {
	r := History(held(
		app(1, 1, 10),
		app(2, 2, 20),
		ack(1),
		app(3, 3, 30),
		ack(3),
	))
	if !r.OK() {
		t.Fatalf("clean history flagged: %v", r.Violations)
	}
	if r.WALAppends != 3 || r.WALAcks != 2 {
		t.Fatalf("counted %d appends, %d acks", r.WALAppends, r.WALAcks)
	}
}

// The watermark's publisher is the lane's flusher, an owner that never
// appends: what the axioms ask of it is that it holds the log's lock,
// not that it appended anything.
func TestDurabilityFlusherOwnerNeverAppends(t *testing.T) {
	// No EvWALAppend carries the flusher's owner.
	if r := History(held(app(1, 1, 10), app(2, 2, 20), ack(2))); !r.OK() {
		t.Fatalf("ack by a non-appending owner flagged: %v", r.Violations)
	}
}

// TestDurabilityPublisherHoldsLock: a watermark is published only by
// the owner holding the log's lock — as the lock events of the same Var
// replay it, reentrant depth included.
func TestDurabilityPublisherHoldsLock(t *testing.T) {
	const other stm.OwnerID = 5
	acquire := func(o stm.OwnerID, depth uint64) stm.Event { return lockEv(stm.EvLockAcquire, o, depth) }
	release := func(o stm.OwnerID, depth uint64) stm.Event { return lockEv(stm.EvLockRelease, o, depth) }
	// Two flushes, each under its own acquisition, one of them reentrant.
	clean := []stm.Event{
		app(1, 1, 10), acquire(flusher, 1), ack(1), release(flusher, 0),
		app(2, 2, 20), acquire(other, 1), acquire(other, 2), release(other, 1),
		{Kind: stm.EvWALDurable, Owner: other, Var: logVar, Aux: 2}, release(other, 0),
	}
	if r := History(clean); !r.OK() {
		t.Fatalf("publishes under the lock flagged: %v", r.Violations)
	}
	for name, h := range map[string][]stm.Event{
		// The publisher never held the lock; another owner does.
		"other holder": {app(1, 1, 10), acquire(other, 1), ack(1), release(other, 0)},
		// Nobody holds it: the publish comes after the release.
		"after release": {app(1, 1, 10), acquire(flusher, 1), release(flusher, 0), ack(1)},
		// The lock held is another log's.
		"other log": {app(1, 1, 10), {Kind: stm.EvLockAcquire, Owner: flusher, Var: logVar + 1, Aux: 1}, ack(1)},
	} {
		r := History(h)
		if len(r.Violations) != 1 || !strings.Contains(r.Violations[0].Msg, "without holding the log's lock") {
			t.Errorf("%s: want exactly the unheld-publish violation, got %v", name, r.Violations)
		}
	}
}

func TestDurabilityDuplicateLSN(t *testing.T) {
	r := History([]stm.Event{app(1, 1, 10), app(2, 1, 20)})
	wantViolation(t, r.Violations, "appended by two committed transactions")
}

func TestDurabilityLSNOrderVsSerialization(t *testing.T) {
	// LSN 2 committed at an OLDER version than LSN 1: the log order
	// contradicts the serialization order.
	r := History([]stm.Event{app(1, 1, 20), app(2, 2, 10)})
	wantViolation(t, r.Violations, "disagrees with serialization order")
}

func TestDurabilityWatermarkRetreat(t *testing.T) {
	r := History(held(app(1, 1, 10), app(2, 2, 20), ack(2), ack(1)))
	wantViolation(t, r.Violations, "retreated")
}

func TestDurabilityAckBeyondAppended(t *testing.T) {
	r := History(held(app(1, 1, 10), ack(2)))
	wantViolation(t, r.Violations, "ever appended")
}

func TestDurabilityAckBeforeAppendFlushed(t *testing.T) {
	r := History(held(app(1, 1, 10), ack(2), app(2, 2, 20)))
	wantViolation(t, r.Violations, "before the appending transaction")
}

// TestRecoveredPrefix: the prefix axioms on an unsharded store — one lane.
func TestRecoveredPrefix(t *testing.T) {
	hist := []stm.Event{app(1, 1, 10), app(2, 2, 20), app(3, 3, 30), ack(2)}
	recovered := func(events []stm.Event, lastLSN uint64) []Violation {
		return RecoveredPrefixLanes(events, []RecoveredLane{{LogVar: logVar, LastLSN: lastLSN}})
	}
	if vs := recovered(hist, 2); len(vs) != 0 {
		t.Fatalf("recovering exactly the acked prefix flagged: %v", vs)
	}
	if vs := recovered(hist, 3); len(vs) != 0 {
		t.Fatalf("recovering beyond the ack but within appends flagged: %v", vs)
	}
	wantViolation(t, recovered(hist, 1), "lost acknowledged records")
	wantViolation(t, recovered(hist, 4), "not a prefix")
	// A hole: LSN 2 missing from the appended history.
	wantViolation(t, recovered([]stm.Event{app(1, 1, 10), app(3, 3, 30)}, 3), "no committed transaction appended")
}

// appg is app on an explicit lane var, carrying a GSN in Aux2.
func appg(lane uint64, tx, lsn, ver, gsn uint64) stm.Event {
	return stm.Event{Kind: stm.EvWALAppend, TxID: tx, Owner: stm.OwnerID(tx), Var: lane, Aux: lsn, Ver: ver, Aux2: gsn}
}

func ackOn(lane uint64, watermark uint64) stm.Event {
	return stm.Event{Kind: stm.EvWALDurable, Var: lane, Aux: watermark}
}

func TestDurabilityGSNOrder(t *testing.T) {
	// Clean: GSN ascends with LSN on each lane; cross-lane interleaving
	// is free.
	r := History([]stm.Event{
		appg(1, 1, 1, 10, 5),
		appg(2, 2, 1, 20, 6),
		appg(1, 3, 2, 30, 9),
		appg(2, 4, 2, 40, 11),
	})
	if !r.OK() {
		t.Fatalf("clean GSN history flagged: %v", r.Violations)
	}
	// GSN regresses within lane 1.
	r = History([]stm.Event{appg(1, 1, 1, 10, 9), appg(1, 2, 2, 20, 5)})
	wantViolation(t, r.Violations, "GSN order disagrees")
	// One commit, two GSNs.
	r = History([]stm.Event{appg(1, 1, 1, 10, 5), appg(2, 1, 1, 10, 6)})
	wantViolation(t, r.Violations, "one commit, one GSN")
	// One GSN, two commits.
	r = History([]stm.Event{appg(1, 1, 1, 10, 5), appg(2, 2, 1, 20, 5)})
	wantViolation(t, r.Violations, "issued to two committed transactions")
}

func TestRecoveredPrefixLanes(t *testing.T) {
	// Two lanes; tx 3 commits across both with GSN 7. Lane 1 holds LSNs
	// 1-2, lane 2 holds LSN 1 (= tx 3's sibling).
	hist := []stm.Event{
		appg(1, 1, 1, 10, 1),
		appg(1, 3, 2, 30, 7), appg(2, 3, 1, 30, 7),
		ackOn(1, 1),
	}
	lanes := func(l1, l2 uint64) []RecoveredLane {
		return []RecoveredLane{{LogVar: 1, LastLSN: l1}, {LogVar: 2, LastLSN: l2}}
	}
	if vs := RecoveredPrefixLanes(hist, lanes(2, 1)); len(vs) != 0 {
		t.Fatalf("full recovery flagged: %v", vs)
	}
	if vs := RecoveredPrefixLanes(hist, lanes(1, 0)); len(vs) != 0 {
		t.Fatalf("presumed-abort of the whole batch flagged: %v", vs)
	}
	// Half the batch: lane 1 kept tx 3's record, lane 2 lost it.
	wantViolation(t, RecoveredPrefixLanes(hist, lanes(2, 0)), "batch atomicity broken")
	wantViolation(t, RecoveredPrefixLanes(hist, lanes(1, 1)), "batch atomicity broken")
	// Losing an acked record on lane 1.
	wantViolation(t, RecoveredPrefixLanes(hist, lanes(0, 0)), "lost acknowledged records")
	// Extending past a lane's appended history.
	wantViolation(t, RecoveredPrefixLanes(hist, lanes(2, 2)), "past its appended history")
	// A hole in a lane (LSN 2 of lane 1 never appended).
	holey := []stm.Event{appg(1, 1, 1, 10, 1), appg(1, 2, 3, 30, 3)}
	wantViolation(t, RecoveredPrefixLanes(holey, lanes(3, 0)), "no committed transaction appended")
	// An append to a lane the recovery does not claim.
	wantViolation(t, RecoveredPrefixLanes([]stm.Event{appg(9, 1, 1, 10, 1)}, lanes(0, 0)), "no recovered lane claims")
}

// TestShardedKVHistoryDurability drives a concurrent cross-shard kv
// workload on a 4-lane store with the recorder attached: the full
// checker must accept the history (GSN order and uniqueness included),
// and a clean-shutdown recovery must satisfy the per-lane prefix and
// batch-atomicity axioms.
func TestShardedKVHistoryDurability(t *testing.T) {
	rec := history.New()
	rt := stm.New(stm.Config{Recorder: rec})
	fs := simio.NewFS(simio.Latency{})
	s, _, err := kv.Open(rt, wal.NewSimBackend(fs), kv.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	laneVars := make([]uint64, 0, 4)
	for _, log := range s.Logs() {
		laneVars = append(laneVars, log.Lock().VarID())
	}
	const goroutines = 4
	const perG = 15
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Two keys per update: frequently a cross-shard batch.
				tok, err := s.Update(func(tx *stm.Tx, b *kv.Batch) error {
					b.Put(fmt.Sprintf("g%d-%d", g, i%3), fmt.Sprintf("v%d", i))
					b.Put(fmt.Sprintf("x%d-%d", i%5, g), fmt.Sprintf("w%d", i))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				s.WaitDurable(tok)
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	events := rec.Events()
	r := History(events)
	if !r.OK() {
		t.Fatalf("sharded live history violates properties:\n%s", r)
	}
	crossLane := make(map[uint64]map[uint64]bool) // txID -> lanes touched
	for _, ev := range events {
		if ev.Kind == stm.EvWALAppend {
			if ev.Aux2 == 0 {
				t.Fatal("multi-lane store appended a record with no GSN")
			}
			if crossLane[ev.TxID] == nil {
				crossLane[ev.TxID] = make(map[uint64]bool)
			}
			crossLane[ev.TxID][ev.Var] = true
		}
	}
	multi := 0
	for _, ls := range crossLane {
		if len(ls) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no cross-shard commit in the history — the test is vacuous")
	}

	_, info, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 4 {
		t.Fatalf("recovered %d shards, want 4", info.Shards)
	}
	lanes := make([]RecoveredLane, 4)
	for i, lr := range info.Lanes {
		lanes[i] = RecoveredLane{LogVar: laneVars[i], LastLSN: lr.LastLSN}
	}
	if vs := RecoveredPrefixLanes(events, lanes); len(vs) != 0 {
		t.Fatalf("sharded recovery violates the durability axioms: %v", vs)
	}
}

// TestKVHistoryDurability drives a real concurrent kv workload with the
// recorder attached and feeds the history through the full checker,
// including the durability axioms; then recovers the store and checks
// the recovered state is an acked-covering prefix.
func TestKVHistoryDurability(t *testing.T) {
	rec := history.New()
	rt := stm.New(stm.Config{Recorder: rec})
	fs := simio.NewFS(simio.Latency{})
	s, _, err := kv.Open(rt, wal.NewSimBackend(fs), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	logLock := s.Logs()[0].Lock().VarID()
	const goroutines = 4
	const perG = 15
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := s.Update(func(tx *stm.Tx, b *kv.Batch) error {
					b.Put(fmt.Sprintf("g%d-%d", g, i%3), fmt.Sprintf("v%d", i))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				s.WaitDurable(lsn)
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	events := rec.Events()
	r := History(events)
	if !r.OK() {
		t.Fatalf("live history violates properties:\n%s", r)
	}
	if r.WALAppends != goroutines*perG {
		t.Fatalf("history has %d WAL appends, want %d", r.WALAppends, goroutines*perG)
	}
	if r.WALAcks == 0 {
		t.Fatal("history has no durability acks")
	}

	_, info, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lane := []RecoveredLane{{LogVar: logLock, LastLSN: info.LastLSN}}
	if vs := RecoveredPrefixLanes(events, lane); len(vs) != 0 {
		t.Fatalf("recovered state violates the durability axiom: %v", vs)
	}
}
