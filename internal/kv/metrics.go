package kv

import (
	"fmt"

	"deferstm/internal/obs"
)

// RegisterMetrics exposes the store's per-lane WAL series on reg — one
// labeled series per lane, bound for the store's lifetime (the registry
// has no deduplication, so register a store once). A store without a
// log (ModeNone) registers nothing.
//
// Series (lane label = lane index):
//
//	deferstm_wal_lane_records_total  committed records appended to the lane
//	deferstm_wal_lane_flushes_total  group-commit drain+fsync cycles
//	deferstm_wal_lane_fsyncs_total   every fsync (flushes, rotations of a dirty segment, checkpoints)
//	deferstm_wal_lane_rotations_total  segments the lane started since Open
//	deferstm_wal_lane_durable_lsn    the lane's published durable watermark
//	deferstm_wal_lane_lag_records    assigned-but-not-durable records on the lane
//	deferstm_wal_lane_stream_read_bytes_total  segment bytes replication tails read
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil || s.shards[0].log == nil {
		return
	}
	for lane := range s.shards {
		l := s.shards[lane].log
		reg.Counter(fmt.Sprintf(`deferstm_wal_lane_records_total{lane="%d"}`, lane),
			"Committed records appended to this WAL lane.",
			func() uint64 { return l.BatchStats().Records })
		reg.Counter(fmt.Sprintf(`deferstm_wal_lane_flushes_total{lane="%d"}`, lane),
			"Group-commit flush cycles on this WAL lane.",
			func() uint64 { return l.BatchStats().Flushes })
		reg.Counter(fmt.Sprintf(`deferstm_wal_lane_fsyncs_total{lane="%d"}`, lane),
			"Fsyncs issued by this WAL lane (flushes, rotations of a dirty segment, checkpoints).",
			func() uint64 { return l.BatchStats().Fsyncs })
		reg.Counter(fmt.Sprintf(`deferstm_wal_lane_rotations_total{lane="%d"}`, lane),
			"Segments this WAL lane started since it was opened.",
			func() uint64 { return l.BatchStats().Rotations })
		reg.GaugeFunc(fmt.Sprintf(`deferstm_wal_lane_durable_lsn{lane="%d"}`, lane),
			"Published durable watermark of this WAL lane.",
			func() float64 { return float64(l.DurableWatermark()) })
		reg.GaugeFunc(fmt.Sprintf(`deferstm_wal_lane_lag_records{lane="%d"}`, lane),
			"Assigned-but-not-yet-durable records on this WAL lane.", func() float64 {
				if a, d := l.AssignedWatermark(), l.DurableWatermark(); a > d {
					return float64(a - d)
				}
				return 0
			})
		reg.Counter(fmt.Sprintf(`deferstm_wal_lane_stream_read_bytes_total{lane="%d"}`, lane),
			"Segment bytes replication streams read from this WAL lane's storage.",
			func() uint64 { return l.StreamReadBytes() })
	}
}
