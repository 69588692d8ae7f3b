package kv

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"deferstm/internal/check"
	"deferstm/internal/history"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// formatCommits is the op lists TestRecordFormatPinned commits, one
// Update each: puts, a multi-key put, and deletes.
var formatCommits = [][]Op{
	{{Put: true, Key: "a", Value: "1"}},
	{{Put: true, Key: "b", Value: "2"}, {Put: true, Key: "c", Value: "3"}},
	{{Key: "a"}},
	{{Put: true, Key: "d", Value: "4"}, {Key: "b"}, {Put: true, Key: "e", Value: "5"}},
}

// laneRecords closes s and reads every lane's records back from fs.
func laneRecords(t *testing.T, s *Store, fs *simio.FS) [][]wal.Record {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([][]wal.Record, s.Shards())
	for lane := range out {
		log, rec, err := wal.Open(stm.NewDefault(), laneBackend(wal.NewSimBackend(fs), lane, s.Shards()), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[lane] = rec.Records
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRecordFormatPinned pins the on-disk record format. A 1-lane store
// writes each commit as the bare EncodeOps list, and its token is the
// plain LSN. A sharded store writes a lane record per touched lane (GSN,
// the commit's lane/LSN vector, then the ops), and the token names the
// vector's first point.
func TestRecordFormatPinned(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("group/shards=%d", shards), func(t *testing.T) {
			fs := simio.NewFS(simio.Latency{})
			s, _ := openStore(t, fs, Options{Shards: shards})
			toks := make([]uint64, len(formatCommits))
			for i, ops := range formatCommits {
				tok, err := s.Update(func(_ *stm.Tx, b *Batch) error {
					for _, op := range ops {
						if op.Put {
							b.Put(op.Key, op.Value)
						} else {
							b.Delete(op.Key)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				s.WaitDurable(tok)
				toks[i] = tok
			}
			lanes := laneRecords(t, s, fs)

			if shards == 1 {
				recs := lanes[0]
				if len(recs) != len(formatCommits) {
					t.Fatalf("%d records, want %d", len(recs), len(formatCommits))
				}
				for i, r := range recs {
					if toks[i] != r.LSN {
						t.Errorf("commit %d: token %d, record LSN %d", i, toks[i], r.LSN)
					}
					if want := EncodeOps(formatCommits[i]); !bytes.Equal(r.Payload, want) {
						t.Errorf("commit %d: payload %x, want the bare op list %x", i, r.Payload, want)
					}
				}
				return
			}

			// Sharded: every payload is a lane record whose vector
			// names its own lane and LSN; the records of commit i all
			// carry one GSN, and together hold exactly its ops.
			type part struct {
				gsn uint64
				pts []LanePoint
				ops []Op
			}
			byHome := map[uint64][]part{} // home token -> the commit's records
			for lane, recs := range lanes {
				for _, r := range recs {
					gsn, pts, ops, err := decodeLaneRecord(r.Payload)
					if err != nil {
						t.Fatalf("lane %d record %d: %v", lane, r.LSN, err)
					}
					if gsn == 0 || !slices.Contains(pts, LanePoint{Lane: lane, LSN: r.LSN}) {
						t.Fatalf("lane %d record %d: gsn %d, vector %v", lane, r.LSN, gsn, pts)
					}
					home := PackToken(pts[0].Lane, pts[0].LSN)
					byHome[home] = append(byHome[home], part{gsn: gsn, pts: pts, ops: ops})
				}
			}
			for i, ops := range formatCommits {
				parts := byHome[toks[i]]
				if len(parts) == 0 || len(parts) != len(parts[0].pts) {
					t.Fatalf("commit %d (token %x): %d records", i, toks[i], len(parts))
				}
				var got []Op
				for _, p := range parts {
					if p.gsn != parts[0].gsn {
						t.Fatalf("commit %d: GSNs %d and %d", i, parts[0].gsn, p.gsn)
					}
					got = append(got, p.ops...)
				}
				if len(got) != len(ops) {
					t.Fatalf("commit %d: records hold %v, want %v", i, got, ops)
				}
				for _, op := range ops {
					if !slices.Contains(got, op) {
						t.Fatalf("commit %d: records hold %v, want %v", i, got, ops)
					}
				}
			}
		})
	}
}

// TestGSNsUniqueAcrossReopen commits, closes, reopens on the same
// runtime and commits again, with the runtime's recorder attached, and
// checks the whole history: no GSN may be issued twice, even though a
// 1-lane store writes none to disk for the reopen to recover.
func TestGSNsUniqueAcrossReopen(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rec := history.New()
			rt := stm.New(stm.Config{Recorder: rec})
			fs := simio.NewFS(simio.Latency{})
			for round := 0; round < 2; round++ {
				s, _, err := Open(rt, wal.NewSimBackend(fs), Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				// Concurrent writers conflict on the lanes' LSNs, so some
				// attempts draw a GSN and abort: the GSNs that commit
				// are not 1..n, and none of them reaches a 1-lane disk.
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 25; i++ {
							tok, err := s.Update(func(_ *stm.Tx, b *Batch) error {
								b.Put(fmt.Sprintf("r%d-w%d-a%d", round, w, i), "v")
								b.Put(fmt.Sprintf("r%d-w%d-b%d", round, w, i), "v")
								return nil
							})
							if err != nil {
								t.Error(err)
								return
							}
							s.WaitDurable(tok)
						}
					}()
				}
				wg.Wait()
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if rep := check.History(rec.Events()); !rep.OK() {
				t.Fatalf("history across a reopen:\n%s", rep)
			}
		})
	}
}

// TestGSNsRiseAcrossRestart: a sharded store's GSNs reach the disk, and
// a store reopened by a new process (the GSN counter back at zero) draws
// past every GSN it recovered, so per lane GSN still rises with LSN.
func TestGSNsRiseAcrossRestart(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	var cross []string
	var issued uint64
	for round := 0; round < 2; round++ {
		lastGSN.Store(0) // a fresh process
		s, _ := openStore(t, fs, Options{Shards: 2})
		if cross == nil {
			cross = []string{keyFor(s, 0, "x"), keyFor(s, 1, "x")}
		}
		for i := 0; i < 3; i++ {
			tok, err := s.Update(func(_ *stm.Tx, b *Batch) error {
				for _, k := range cross {
					b.Put(k, fmt.Sprint(round, i))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			s.WaitDurable(tok)
		}
		// An attempt that aborts against a lane's flusher has already
		// drawn its GSN, so a round can issue more than 3; the last
		// Update's committed GSN is still the last one issued.
		issued = lastGSN.Load()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s, info := openStore(t, fs, Options{})
	if info.MaxGSN != issued {
		t.Fatalf("recovered MaxGSN %d, want %d (the last GSN issued)", info.MaxGSN, issued)
	}
	for lane, recs := range laneRecords(t, s, fs) {
		var prev uint64
		for _, r := range recs {
			gsn, _, _, err := decodeLaneRecord(r.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if gsn <= prev {
				t.Fatalf("lane %d: LSN %d carries GSN %d after GSN %d", lane, r.LSN, gsn, prev)
			}
			prev = gsn
		}
	}
}
