package kv

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// crossLaneCuts is the cut pass recovery ran before the Applier, kept
// as the oracle TestApplierCutsMatchOracle compares the Applier with. It
// decides, per lane, the first LSN to drop: the lane's earliest record
// of a cross-shard batch missing a sibling. recs gives each lane's
// checkpoint and decoded its records, ascending. A sibling point is
// satisfied if its lane recovered that LSN below its own cut, or
// already folded it into a checkpoint. Cutting one lane can orphan a
// batch another lane thought complete, so the cuts iterate to a fixed
// point; each pass only lowers cuts, so it terminates. A record with a
// one-point vector has no sibling to miss.
func crossLaneCuts(recs []*wal.Recovery, decoded [][]laneRecord) ([]uint64, error) {
	present := make([]map[uint64]bool, len(decoded))
	for i, lane := range decoded {
		present[i] = make(map[uint64]bool, len(lane))
		for _, r := range lane {
			for _, p := range r.pts {
				if p.Lane < 0 || p.Lane >= len(decoded) {
					return nil, fmt.Errorf("kv: lane %d record %d: vector names lane %d of %d", i, r.lsn, p.Lane, len(decoded))
				}
			}
			present[i][r.lsn] = true
		}
	}
	cut := make([]uint64, len(decoded))
	kept := func(lane int, lsn uint64) bool {
		if lsn <= recs[lane].CheckpointLSN {
			return true
		}
		return present[lane][lsn] && (cut[lane] == 0 || lsn < cut[lane])
	}
	for changed := true; changed; {
		changed = false
		for i, lane := range decoded {
		records:
			for _, r := range lane {
				if cut[i] != 0 && r.lsn >= cut[i] {
					break // already dropped; records are ascending
				}
				for _, p := range r.pts {
					if p.Lane != i && !kept(p.Lane, p.LSN) {
						cut[i] = r.lsn
						changed = true
						break records
					}
				}
			}
		}
	}
	return cut, nil
}

// applierCuts feeds one crash image — each lane's checkpoint LSN and
// the records after it — through a fresh Applier on s, drains once, and
// returns each lane's cut: the LSN of its first record still held, or 0.
func applierCuts(s *Store, ckpt []uint64, lanes [][]laneRecord) ([]uint64, error) {
	a := NewApplier(s)
	for i, recs := range lanes {
		if err := a.Base(i, ckpt[i], encodeSnapshot(nil)); err != nil {
			return nil, err
		}
		for _, r := range recs {
			if err := a.Record(i, r.lsn, EncodeLaneRecord(r.gsn, r.pts, r.ops)); err != nil {
				return nil, err
			}
		}
	}
	if err := a.Drain(); err != nil {
		return nil, err
	}
	cuts := make([]uint64, len(lanes))
	for i, q := range a.q {
		if len(q) > 0 {
			cuts[i] = q[0].lsn
		}
	}
	return cuts, nil
}

// randomCrashImage draws what recovery could find on a lanes-lane
// store's disk. Commits touch random lane subsets and draw rising GSNs,
// so GSN rises with LSN in every lane; a single-lane commit carries a
// one-point vector. A lane has a checkpoint one time in three, at a
// random LSN. A checkpoint is GSN-closed — it fsyncs every lane up to
// the highest GSN it covers — so each lane's torn suffix keeps the
// checkpoint and every record with a GSN at or below that, and drops a
// random number of the rest.
func randomCrashImage(rng *rand.Rand, lanes int) (ckpt []uint64, kept [][]laneRecord) {
	all := make([][]laneRecord, lanes)
	ops := []Op{{Put: true, Key: "k", Value: "v"}}
	commits := uint64(1 + rng.IntN(12))
	for g := uint64(1); g <= commits; g++ {
		var pts []LanePoint
		for l := 0; l < lanes; l++ {
			if rng.IntN(2) == 0 {
				pts = append(pts, LanePoint{Lane: l, LSN: uint64(len(all[l]) + 1)})
			}
		}
		if len(pts) == 0 {
			l := rng.IntN(lanes)
			pts = []LanePoint{{Lane: l, LSN: uint64(len(all[l]) + 1)}}
		}
		for _, p := range pts {
			all[p.Lane] = append(all[p.Lane], laneRecord{lsn: p.LSN, gsn: g, pts: pts, ops: ops})
		}
	}
	ckpt = make([]uint64, lanes)
	var closed uint64 // highest GSN a checkpoint covers
	for l, recs := range all {
		if len(recs) > 0 && rng.IntN(3) == 0 {
			ckpt[l] = uint64(1 + rng.IntN(len(recs)))
			closed = max(closed, recs[ckpt[l]-1].gsn)
		}
	}
	kept = make([][]laneRecord, lanes)
	for l, recs := range all {
		keep := int(ckpt[l])
		for keep < len(recs) && recs[keep].gsn <= closed {
			keep++
		}
		keep += rng.IntN(len(recs) - keep + 1)
		kept[l] = recs[ckpt[l]:keep]
	}
	return ckpt, kept
}

// TestApplierCutsMatchOracle: on seeded random crash images of 1-, 2-
// and 4-lane stores, the records the Applier still holds after one
// drain start exactly at the cuts the old fixed-point pass computed.
func TestApplierCutsMatchOracle(t *testing.T) {
	const images = 12000
	start := time.Now()
	rng := rand.New(rand.NewPCG(41, 1))
	stores := map[int]*Store{}
	for _, lanes := range []int{1, 2, 4} {
		s, _, err := Open(stm.NewDefault(), nil, Options{Mode: ModeNone, Shards: lanes})
		if err != nil {
			t.Fatal(err)
		}
		stores[lanes] = s
	}
	nonzero := 0
	for i := 0; i < images; i++ {
		lanes := []int{1, 2, 4}[i%3]
		ckpt, kept := randomCrashImage(rng, lanes)
		recs := make([]*wal.Recovery, lanes)
		for l := range recs {
			recs[l] = &wal.Recovery{CheckpointLSN: ckpt[l]}
		}
		want, err := crossLaneCuts(recs, kept)
		if err != nil {
			t.Fatal(err)
		}
		got, err := applierCuts(stores[lanes], ckpt, kept)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("image %d (%d lanes, checkpoints %v): Applier cuts %v, oracle %v\nrecords: %+v", i, lanes, ckpt, got, want, kept)
		}
		for _, c := range want {
			if c != 0 {
				nonzero++
				break
			}
		}
	}
	// A generator that never tears a batch would compare nothing.
	if nonzero < images/5 {
		t.Fatalf("only %d of %d images have a cut", nonzero, images)
	}
	t.Logf("%d images, %d with a cut, in %v", images, nonzero, time.Since(start))
}

// handLane is one lane of a store directory built record by record:
// its record payloads at LSN 1, 2, … and, when ckpt > 0, a checkpoint
// of base taken right after record ckpt.
type handLane struct {
	recs [][]byte
	ckpt uint64
	base map[string]string
}

// writeLanes writes a len(lanes)-lane store directory on fs by hand:
// the manifest, then each lane's records and checkpoint, all fsynced.
func writeLanes(t *testing.T, fs *simio.FS, lanes []handLane) {
	t.Helper()
	rt, b := stm.NewDefault(), wal.NewSimBackend(fs)
	if err := writeManifest(b, len(lanes)); err != nil {
		t.Fatal(err)
	}
	for i, hl := range lanes {
		log, _, err := wal.Open(rt, laneBackend(b, i), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wal.JoinLanes([]*wal.Log{log})
		for j, p := range hl.recs {
			var lsn uint64
			_ = rt.Atomic(func(tx *stm.Tx) error {
				lsn = log.Reserve(tx)
				log.EnqueueReserved(tx, lsn, 0, false, p)
				return nil
			})
			log.WaitDurable(lsn)
			if uint64(j+1) == hl.ckpt {
				if _, err := log.Checkpoint(func(*stm.Tx) ([]byte, uint64, error) {
					return encodeSnapshot(hl.base), hl.ckpt, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func putOp(k, v string) []Op { return []Op{{Put: true, Key: k, Value: v}} }

// TestRecoveryRejectsSiblingGSNMismatch: two lanes' records name each
// other as the siblings of one commit but carry different GSNs, so they
// were not committed together. Recovery must refuse the directory
// rather than replay both.
func TestRecoveryRejectsSiblingGSNMismatch(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	pts := []LanePoint{{Lane: 0, LSN: 1}, {Lane: 1, LSN: 1}}
	writeLanes(t, fs, []handLane{
		{recs: [][]byte{EncodeLaneRecord(5, pts, putOp("a", "1"))}},
		{recs: [][]byte{EncodeLaneRecord(6, pts, putOp("b", "1"))}},
	})
	s, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), Options{})
	if err == nil {
		s.Close()
		t.Fatal("recovery replayed two records that name each other as siblings but carry GSNs 5 and 6")
	}
	if !strings.Contains(err.Error(), "gsn") {
		t.Fatalf("error does not name the GSN mismatch: %v", err)
	}
}

// TestRecoveryInfoAfterCut pins what Open reports when one lane is cut
// and the other is not. Lane 0 checkpoints after its LSN 1 and keeps
// LSN 2 (a batch with lane 1's LSN 1) and LSN 3. Lane 1's LSN 2 belongs
// to a batch whose lane-0 record (LSN 4) never reached the disk, so
// lane 1 is cut at 2 and loses LSN 3 with it.
func TestRecoveryInfoAfterCut(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	batch := []LanePoint{{Lane: 0, LSN: 2}, {Lane: 1, LSN: 1}}
	torn := []LanePoint{{Lane: 0, LSN: 4}, {Lane: 1, LSN: 2}}
	writeLanes(t, fs, []handLane{
		{
			recs: [][]byte{
				EncodeLaneRecord(1, []LanePoint{{Lane: 0, LSN: 1}}, putOp("a", "1")),
				EncodeLaneRecord(2, batch, putOp("b", "2")),
				EncodeLaneRecord(3, []LanePoint{{Lane: 0, LSN: 3}}, putOp("c", "3")),
			},
			ckpt: 1, base: map[string]string{"a": "1"},
		},
		{
			recs: [][]byte{
				EncodeLaneRecord(2, batch, putOp("d", "2")),
				EncodeLaneRecord(4, torn, putOp("e", "4")),
				EncodeLaneRecord(5, []LanePoint{{Lane: 1, LSN: 3}}, putOp("f", "5")),
			},
		},
	})
	s, info, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []LaneRecovery{
		{Lane: 0, CheckpointLSN: 1, Replayed: 2, LastLSN: 3},
		{Lane: 1, Replayed: 1, LastLSN: 1, TruncatedAt: 2},
	}
	if fmt.Sprint(info.Lanes) != fmt.Sprint(want) {
		t.Fatalf("lanes = %+v, want %+v", info.Lanes, want)
	}
	if info.SkippedRecords != 2 || info.MaxGSN != 3 || info.Replayed != 3 || info.Keys != 4 {
		t.Fatalf("skipped %d, max gsn %d, replayed %d, keys %d; want 2, 3, 3, 4",
			info.SkippedRecords, info.MaxGSN, info.Replayed, info.Keys)
	}
}

// TestTornBytesOfCutLane: a lane whose torn tail recovery truncated and
// which is then cut reports the torn bytes its first open found, not the
// reopen's 0. Lane 1's batch at LSN 1 lacks its lane-0 record, and 17
// garbage bytes follow it on lane 1's segment.
func TestTornBytesOfCutLane(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	torn := []LanePoint{{Lane: 0, LSN: 2}, {Lane: 1, LSN: 1}}
	writeLanes(t, fs, []handLane{
		{recs: [][]byte{EncodeLaneRecord(1, []LanePoint{{Lane: 0, LSN: 1}}, putOp("a", "1"))}},
		{recs: [][]byte{EncodeLaneRecord(2, torn, putOp("b", "2"))}},
	})
	lb := laneBackend(wal.NewSimBackend(fs), 1)
	names, err := lb.Names()
	if err != nil || len(names) != 1 {
		t.Fatalf("lane 1 files %v, %v; want one segment", names, err)
	}
	f, err := lb.OpenAppend(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("seventeen garbage")); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, info, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []LaneRecovery{
		{Lane: 0, Replayed: 1, LastLSN: 1},
		{Lane: 1, LastLSN: 0, TornBytes: 17, TruncatedAt: 1},
	}
	if fmt.Sprint(info.Lanes) != fmt.Sprint(want) || info.TornBytes != 17 {
		t.Fatalf("lanes = %+v (torn bytes %d), want %+v (17)", info.Lanes, info.TornBytes, want)
	}
}
