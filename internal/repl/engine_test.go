package repl

import (
	"fmt"
	"strings"
	"testing"

	"deferstm/internal/kv"
	"deferstm/internal/server"
	"deferstm/internal/stm"
)

func newTestEngine(t *testing.T, lanes int) (*engine, *kv.Store) {
	t.Helper()
	rt := stm.NewDefault()
	store, _, err := kv.Open(rt, nil, kv.Options{Mode: kv.ModeNone, Shards: lanes})
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(store, lanes, nil), store
}

func recFrame(lane int, lsn, gsn uint64, pts []kv.LanePoint, ops ...kv.Op) server.ReplFrame {
	return server.ReplFrame{
		Kind: server.ReplRecord, Lane: lane, LSN: lsn,
		Payload: kv.EncodeLaneRecord(gsn, pts, ops),
	}
}

func put(k, v string) kv.Op { return kv.Op{Put: true, Key: k, Value: v} }

func storeVal(t *testing.T, s *kv.Store, key string) (string, bool) {
	t.Helper()
	var v string
	var ok bool
	if err := s.View(func(tx *stm.Tx) error {
		v, ok = s.Get(tx, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return v, ok
}

// TestEngineCrossShardBarrier: a cross-shard batch record applies only
// once every lane in its GSN vector has arrived, and then all lanes
// commit in one transaction.
func TestEngineCrossShardBarrier(t *testing.T) {
	e, store := newTestEngine(t, 2)
	pts := []kv.LanePoint{{Lane: 0, LSN: 1}, {Lane: 1, LSN: 1}}

	if err := e.frame(recFrame(0, 1, 7, pts, put("a", "1"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := storeVal(t, store, "a"); ok {
		t.Fatal("half a cross-shard batch became visible")
	}
	if got := e.Held(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if e.Applied(0) != 0 {
		t.Fatal("cursor advanced past an unapplied batch record")
	}

	if err := e.frame(recFrame(1, 1, 7, pts, put("b", "2"))); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := storeVal(t, store, k); !ok {
			t.Fatalf("key %q missing after batch completed", k)
		}
	}
	if e.Applied(0) != 1 || e.Applied(1) != 1 {
		t.Fatalf("cursors = %v, want [1 1]", e.Cursors())
	}
	if e.Batches() != 1 || e.GSN() != 7 {
		t.Fatalf("batches=%d gsn=%d", e.Batches(), e.GSN())
	}
	if e.Held() != 0 {
		t.Fatalf("pending = %d after drain", e.Held())
	}
}

// TestEngineLoneRecords: a record with no sibling — a 1-lane store's
// bare op list, or a sharded store's single-lane commit — is a batch of
// one: it applies as soon as it arrives, and Batches, which
// counts cross-shard batches only, stays 0.
func TestEngineLoneRecords(t *testing.T) {
	one, store1 := newTestEngine(t, 1)
	for lsn := uint64(1); lsn <= 2; lsn++ {
		f := server.ReplFrame{Kind: server.ReplRecord, Lane: 0, LSN: lsn, Payload: kv.EncodeOps([]kv.Op{put("k", fmt.Sprint(lsn))})}
		if err := one.frame(f); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := storeVal(t, store1, "k"); v != "2" || one.Applied(0) != 2 {
		t.Fatalf("1-lane: k = %q, cursor %d", v, one.Applied(0))
	}

	two, store2 := newTestEngine(t, 2)
	if err := two.frame(recFrame(1, 1, 5, []kv.LanePoint{{Lane: 1, LSN: 1}}, put("b", "1"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := storeVal(t, store2, "b"); !ok || two.Applied(1) != 1 || two.GSN() != 5 {
		t.Fatalf("2-lane: b present %v, cursors %v, gsn %d", ok, two.Cursors(), two.GSN())
	}
	for _, e := range []*engine{one, two} {
		if e.Batches() != 0 || e.Held() != 0 {
			t.Fatalf("batches=%d pending=%d", e.Batches(), e.Held())
		}
	}
	if one.Records() != 2 || two.Records() != 1 {
		t.Fatalf("records applied: %d and %d", one.Records(), two.Records())
	}
}

// TestEngineBatchDelayedPastReconnect: the feed dies after shipping one
// lane of a cross-shard batch. On reconnect the hello cursors predate
// the batch (it never applied), so the primary re-ships the same lane —
// the engine must treat the resend as the same pending record, then
// apply the batch exactly once when the delayed lane finally arrives.
func TestEngineBatchDelayedPastReconnect(t *testing.T) {
	e, store := newTestEngine(t, 2)
	pts := []kv.LanePoint{{Lane: 0, LSN: 1}, {Lane: 1, LSN: 1}}

	if err := e.frame(recFrame(0, 1, 3, pts, put("a", "1"))); err != nil {
		t.Fatal(err)
	}
	// Disconnect mid-batch: held-back records are dropped, cursors
	// still read [0 0], so the next hello replays from scratch.
	e.reset()
	if got := e.Cursors(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("cursors after reset = %v", got)
	}
	if err := e.frame(recFrame(0, 1, 3, pts, put("a", "1"))); err != nil {
		t.Fatal(err)
	}
	if err := e.frame(recFrame(1, 1, 3, pts, put("b", "2"))); err != nil {
		t.Fatal(err)
	}
	if v, ok := storeVal(t, store, "a"); !ok || v != "1" {
		t.Fatalf("a = (%q, %v)", v, ok)
	}
	if e.Batches() != 1 || e.Records() != 2 {
		t.Fatalf("batch applied %d times (%d records)", e.Batches(), e.Records())
	}
}

// TestEngineCheckpointSatisfiesSibling: a lane re-based by a checkpoint
// whose upTo covers its slice of a batch satisfies the sibling's
// vector via the cursor rule — the other lane's record applies alone.
func TestEngineCheckpointSatisfiesSibling(t *testing.T) {
	e, store := newTestEngine(t, 2)

	// Lane 1 bootstraps from a checkpoint at LSN 2: its half of batch
	// gsn=9 (lane 1, LSN 2) is folded into the blob.
	blob := map[string]string{"b": "2"}
	ck := server.ReplFrame{Kind: server.ReplCheckpoint, Lane: 1, LSN: 2, Payload: encodeBlob(t, blob)}
	if err := e.frame(ck); err != nil {
		t.Fatal(err)
	}
	if e.Applied(1) != 2 {
		t.Fatalf("lane 1 cursor = %d, want 2", e.Applied(1))
	}
	if v, ok := storeVal(t, store, "b"); !ok || v != "2" {
		t.Fatalf("checkpoint contents not installed: b = (%q, %v)", v, ok)
	}

	pts := []kv.LanePoint{{Lane: 0, LSN: 1}, {Lane: 1, LSN: 2}}
	if err := e.frame(recFrame(0, 1, 9, pts, put("a", "1"))); err != nil {
		t.Fatal(err)
	}
	if v, ok := storeVal(t, store, "a"); !ok || v != "1" {
		t.Fatalf("batch half did not apply via cursor rule: a = (%q, %v)", v, ok)
	}
	if e.Applied(0) != 1 {
		t.Fatalf("lane 0 cursor = %d, want 1", e.Applied(0))
	}
}

// TestEngineStaleFramesIgnored: records at or below the cursor and
// checkpoints older than the applied state are resend noise, not
// errors — and a genuine LSN gap IS an error.
func TestEngineStaleFramesIgnored(t *testing.T) {
	e, store := newTestEngine(t, 2)

	one := []kv.LanePoint{{Lane: 0, LSN: 1}}
	if err := e.frame(recFrame(0, 1, 0, one, put("a", "1"))); err != nil {
		t.Fatal(err)
	}
	// Resend of LSN 1 with different contents must be ignored.
	if err := e.frame(recFrame(0, 1, 0, one, put("a", "CLOBBER"))); err != nil {
		t.Fatal(err)
	}
	if v, _ := storeVal(t, store, "a"); v != "1" {
		t.Fatalf("stale resend applied: a = %q", v)
	}
	// Stale checkpoint (upTo ≤ cursor) must not reset the lane.
	ck := server.ReplFrame{Kind: server.ReplCheckpoint, Lane: 0, LSN: 1, Payload: encodeBlob(t, map[string]string{})}
	if err := e.frame(ck); err != nil {
		t.Fatal(err)
	}
	if v, _ := storeVal(t, store, "a"); v != "1" {
		t.Fatalf("stale checkpoint reset the lane: a = %q", v)
	}
	// LSN gap: next must be 2, feeding 3 is corruption.
	err := e.frame(recFrame(0, 3, 0, []kv.LanePoint{{Lane: 0, LSN: 3}}, put("c", "3")))
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap not detected: %v", err)
	}
}

// encodeBlob builds a checkpoint blob by hand (count, then
// length-prefixed pairs — the kv snapshot codec); the Applier's
// checkpoint decode rejects one that does not parse.
func encodeBlob(t *testing.T, kvs map[string]string) []byte {
	t.Helper()
	b := appendU32(nil, uint32(len(kvs)))
	for k, v := range kvs {
		b = appendU32(b, uint32(len(k)))
		b = append(b, k...)
		b = appendU32(b, uint32(len(v)))
		b = append(b, v...)
	}
	return b
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
