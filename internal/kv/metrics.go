package kv

import (
	"fmt"

	"deferstm/internal/obs"
	"deferstm/internal/wal"
)

// registerWAL hands every lane one wal.Metrics set and exposes the
// store's WAL series on reg. Open calls it once, for a store with a log,
// before the store is shared; with a nil reg the lanes observe nothing.
//
// Runtime-wide series, each a sum over lanes (WALStats):
//
//	deferstm_wal_{records,flushes,fsyncs,checkpoints}_total
//	deferstm_wal_epochs_total, deferstm_wal_epoch_deadlines_total
//	deferstm_wal_append_durable_seconds, deferstm_wal_batch_wait_seconds
//
// Per-lane series (lane label = lane index):
//
//	deferstm_wal_lane_records_total  committed records appended to the lane
//	deferstm_wal_lane_flushes_total  group-commit drain+fsync cycles
//	deferstm_wal_lane_fsyncs_total   every fsync (flushes, rotations of a dirty segment, checkpoints)
//	deferstm_wal_lane_rotations_total  segments the lane started since Open
//	deferstm_wal_lane_durable_lsn    the lane's published durable watermark
//	deferstm_wal_lane_lag_records    assigned-but-not-durable records on the lane
//	deferstm_wal_lane_stream_read_bytes_total  segment bytes replication tails read
func (s *Store) registerWAL(reg *obs.Registry) {
	if reg == nil {
		return
	}
	met := wal.NewMetrics(reg)
	for i := range s.shards {
		s.shards[i].log.SetMetrics(met)
	}
	for _, c := range []struct {
		name, help string
		get        func(wal.BatchStats) uint64
	}{
		{"deferstm_wal_records_total", "Records appended to the WAL, summed over lanes.",
			func(b wal.BatchStats) uint64 { return b.Records }},
		{"deferstm_wal_flushes_total", "Group-commit flush cycles (one fsync each), summed over lanes.",
			func(b wal.BatchStats) uint64 { return b.Flushes }},
		{"deferstm_wal_fsyncs_total", "Fsyncs issued (flushes, rotations of a dirty segment, checkpoints), summed over lanes.",
			func(b wal.BatchStats) uint64 { return b.Fsyncs }},
		{"deferstm_wal_checkpoints_total", "Checkpoints written, summed over lanes.",
			func(b wal.BatchStats) uint64 { return b.Checkpoints }},
		{"deferstm_wal_epochs_total", "Flush epochs started: the lanes' batched flushes, started together.",
			func(b wal.BatchStats) uint64 { return b.Epochs }},
		{"deferstm_wal_epoch_deadlines_total", "Flush epochs started at the deadline rather than on the returning ack wave.",
			func(b wal.BatchStats) uint64 { return b.EpochDeadlines }},
	} {
		reg.Counter(c.name, c.help, func() uint64 { return c.get(s.WALStats()) })
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

// WALStats sums the lanes' group-commit statistics (MaxBatch is the
// largest batch on any lane). It is zero for a store without a log.
func (s *Store) WALStats() wal.BatchStats {
	var t wal.BatchStats
	for i := range s.shards {
		l := s.shards[i].log
		if l == nil {
			break
		}
		b := l.BatchStats()
		t.Flushes += b.Flushes
		t.Records += b.Records
		t.Fsyncs += b.Fsyncs
		t.Rotations += b.Rotations
		t.Checkpoints += b.Checkpoints
		t.Epochs += b.Epochs
		t.EpochDeadlines += b.EpochDeadlines
		t.MaxBatch = max(t.MaxBatch, b.MaxBatch)
		for j := range t.Hist {
			t.Hist[j] += b.Hist[j]
		}
	}
	return t
}
