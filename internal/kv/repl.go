package kv

import (
	"fmt"

	"deferstm/internal/stm"
)

// The replica apply surface: a follower process replaying a primary's
// WAL stream needs to decode shipped record payloads and apply them to
// the matching lane of its own (WAL-less) store, atomically across
// lanes for cross-shard batches, as the primary committed them. The
// primary routes keys to lanes by hash
// at commit time and the stream frames carry the lane, so replay never
// re-routes: it applies each op list to exactly the lane it was logged
// under.

// ApplyReplicated applies one shipped record's ops to lane inside the
// caller's transaction. The caller supplies the transaction so a
// cross-shard batch can apply all its lanes in ONE commit: partial
// batches are never observable, as on the primary, where a cross-shard
// commit is one transaction.
func (s *Store) ApplyReplicated(tx *stm.Tx, lane int, ops []Op) error {
	if lane < 0 || lane >= len(s.shards) {
		return fmt.Errorf("kv: apply to lane %d of a %d-lane store", lane, len(s.shards))
	}
	applyOps(tx, s.shards[lane].m, ops)
	return nil
}

// ResetShardContents replaces lane's entire contents with kvs inside
// the caller's transaction — the checkpoint-bootstrap path: the blob is
// the lane's full state at its upTo, so everything currently in the
// lane (stale catch-up state from a pruned cursor) goes.
func (s *Store) ResetShardContents(tx *stm.Tx, lane int, kvs map[string]string) error {
	if lane < 0 || lane >= len(s.shards) {
		return fmt.Errorf("kv: reset lane %d of a %d-lane store", lane, len(s.shards))
	}
	m := s.shards[lane].m
	var stale []string
	m.Range(tx, func(k, _ string) bool {
		if _, ok := kvs[k]; !ok {
			stale = append(stale, k)
		}
		return true
	})
	for _, k := range stale {
		m.Delete(tx, k)
	}
	for k, v := range kvs {
		m.Put(tx, k, v)
	}
	return nil
}

// DecodeSnapshotBlob parses a checkpoint blob (the payload of a
// checkpoint stream frame) into the lane contents it captured.
func DecodeSnapshotBlob(b []byte) (map[string]string, error) {
	return decodeSnapshot(b)
}

// EncodeLaneRecord renders a multi-lane WAL record payload — the
// inverse of DecodeLaneRecord on a sharded store, for tests and tools
// that synthesize stream traffic.
func EncodeLaneRecord(gsn uint64, pts []LanePoint, ops []Op) []byte {
	return encodeLaneRecord(gsn, pts, ops)
}
