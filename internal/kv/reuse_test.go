package kv

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// Update recycles its Batch and Scan its cut buffer. These tests pin what
// the recycling must not change: a record holds exactly the ops of the
// attempt that committed, an Update that failed leaves nothing behind for
// the next one, and a store never sees another store's Batch.

// loggedOps closes s and returns every op its lanes' logs hold, each
// rendered "key=value" (or "key" for a delete), sorted.
func loggedOps(t *testing.T, s *Store, fs *simio.FS) []string {
	t.Helper()
	var got []string
	for lane, recs := range laneRecords(t, s, fs) {
		for _, r := range recs {
			_, _, ops, err := decodeLaneRecord(r.Payload)
			if err != nil {
				t.Fatalf("lane %d record %d: %v", lane, r.LSN, err)
			}
			for _, op := range ops {
				got = append(got, renderOp(op))
			}
		}
	}
	slices.Sort(got)
	return got
}

func renderOp(op Op) string {
	if op.Put {
		return op.Key + "=" + op.Value
	}
	return op.Key
}

// TestBatchReuseAbortedAttempts forces half of all commit attempts to
// abort, with several writers drawing Batches from the pool at once. Each
// attempt writes keys and values named after itself, a different number
// of them each time, so an op an aborted attempt left in the recycled
// Batch shows in the log as an extra op.
func TestBatchReuseAbortedAttempts(t *testing.T) {
	const (
		writers = 4
		updates = 50 // per writer
	)
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			fs := simio.NewFS(simio.Latency{})
			rt := stm.New(stm.Config{Inject: &stm.Inject{Seed: uint64(lanes), ConflictPct: 50}})
			s, _, err := Open(rt, wal.NewSimBackend(fs), Options{Mode: ModeGroup, Shards: lanes})
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg       sync.WaitGroup
				want     [writers][]string
				attempts [writers]int
			)
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for u := range updates {
						var last []string
						a := 0
						tok, err := s.Update(func(_ *stm.Tx, b *Batch) error {
							a++
							last = last[:0]
							for k := range 1 + (u+a)%3 {
								key, val := fmt.Sprintf("w%d-u%d-k%d", w, u, k), fmt.Sprintf("a%d", a)
								b.Put(key, val)
								last = append(last, key+"="+val)
							}
							if a%2 == 0 {
								gone := fmt.Sprintf("w%d-u%d-gone%d", w, u, a)
								b.Delete(gone)
								last = append(last, gone)
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
						s.WaitDurable(tok)
						want[w] = append(want[w], last...)
						attempts[w] += a
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			var all []string
			total := 0
			for w := range writers {
				all = append(all, want[w]...)
				total += attempts[w]
			}
			if total < writers*updates*3/2 {
				t.Fatalf("%d attempts for %d updates: the injected conflicts did not abort enough to test anything", total, writers*updates)
			}
			slices.Sort(all)
			if got := loggedOps(t, s, fs); !slices.Equal(got, all) {
				t.Fatalf("the log holds %d ops, want the committing attempts' %d\n got: %v\nwant: %v", len(got), len(all), got, all)
			}
		})
	}
}

// TestBatchReuseAfterFailedUpdate: an fn that returns an error, and one
// that panics, each after writing, must leave the next Update's record
// holding only its own op, and the released Batch holding no caller
// string.
func TestBatchReuseAfterFailedUpdate(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			fs := simio.NewFS(simio.Latency{})
			s, _ := openStore(t, fs, Options{Mode: ModeGroup, Shards: lanes})
			dirty := func(b *Batch) {
				for i := range 8 {
					b.Put(fmt.Sprintf("bad-%d", i), "x")
				}
				b.Delete("bad-gone")
			}
			errFn := errors.New("fn failed")
			if _, err := s.Update(func(_ *stm.Tx, b *Batch) error { dirty(b); return errFn }); !errors.Is(err, errFn) {
				t.Fatalf("Update returned %v, want %v", err, errFn)
			}
			assertReleased(t, s)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("fn's panic did not reach the caller")
					}
				}()
				_, _ = s.Update(func(_ *stm.Tx, b *Batch) error { dirty(b); panic("fn panicked") })
			}()
			assertReleased(t, s)
			s.WaitDurable(put(t, s, "good", "v"))
			assertReleased(t, s)
			if d := dump(t, s); len(d) != 1 || d["good"] != "v" {
				t.Fatalf("store holds %v, want only good=v", d)
			}
			if got := loggedOps(t, s, fs); !slices.Equal(got, []string{"good=v"}) {
				t.Fatalf("the log holds %v, want only the committed good=v", got)
			}
		})
	}
}

// assertReleased takes the Batch the last Update released back from the
// store's pool and checks that it holds no op, not even in the spare
// capacity of its op lists. (The pool may have dropped it: the race
// detector's pool drops a share of its puts on purpose.)
func assertReleased(t *testing.T, s *Store) {
	t.Helper()
	b, _ := s.batches.Get().(*Batch)
	if b == nil {
		return
	}
	defer s.batches.Put(b)
	if b.tx != nil || b.n != 0 || b.lanes != 0 {
		t.Fatalf("released Batch still has tx %p, n %d, lanes %d", b.tx, b.n, b.lanes)
	}
	for i, ops := range b.perShard {
		if len(ops) != 0 {
			t.Fatalf("released Batch op list %d has length %d", i, len(ops))
		}
		for _, op := range ops[:cap(ops)] {
			if op != (Op{}) {
				t.Fatalf("released Batch op list %d still holds %q in its spare capacity", i, renderOp(op))
			}
		}
	}
}

// TestBatchReusePerStore interleaves Updates on a 1-lane, a 2-lane and a
// 4-lane store from one goroutine, so a pool shared between them would
// hand each store the Batch the other had just released. The stores share
// one runtime, as stores in one process may, so a write that reached the
// wrong store would commit there rather than stall. Every store must end
// up holding, and logging, exactly its own writes.
func TestBatchReusePerStore(t *testing.T) {
	type store struct {
		s    *Store
		fs   *simio.FS
		want []string
	}
	rt := stm.NewDefault()
	var stores []*store
	for _, lanes := range []int{1, 4, 2} {
		fs := simio.NewFS(simio.Latency{})
		s, _, err := Open(rt, wal.NewSimBackend(fs), Options{Mode: ModeGroup, Shards: lanes})
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, &store{s: s, fs: fs})
	}
	for u := range 60 {
		for i, st := range stores {
			var ops []string
			tok, err := st.s.Update(func(_ *stm.Tx, b *Batch) error {
				ops = ops[:0]
				for k := range 3 {
					key, val := fmt.Sprintf("s%d-u%d-k%d", i, u, k), fmt.Sprintf("v%d", u)
					b.Put(key, val)
					ops = append(ops, key+"="+val)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			st.s.WaitDurable(tok)
			st.want = append(st.want, ops...)
		}
	}
	for i, st := range stores {
		prefix := fmt.Sprintf("s%d-", i)
		d := dump(t, st.s)
		for k := range d {
			if !strings.HasPrefix(k, prefix) {
				t.Fatalf("store %d (%d lanes) holds %q, another store's key", i, st.s.Shards(), k)
			}
		}
		if len(d) != len(st.want) {
			t.Fatalf("store %d (%d lanes) holds %d keys, want %d", i, st.s.Shards(), len(d), len(st.want))
		}
		slices.Sort(st.want)
		if got := loggedOps(t, st.s, st.fs); !slices.Equal(got, st.want) {
			t.Fatalf("store %d (%d lanes) logged %d ops, want its own %d", i, st.s.Shards(), len(got), len(st.want))
		}
	}
}

// TestScanReuseCut: a scan that stops early, and one of a store that has
// shrunk, deliver the current cut only, and the cut goes back to the
// pool cleared.
func TestScanReuseCut(t *testing.T) {
	s, keys := hotStore(t, 512, Options{Mode: ModeNone, Shards: 2})
	defer s.Close()
	scan := func(stopAt int) map[string]string {
		got := map[string]string{}
		if err := s.Scan(func(k, v string) bool {
			if _, dup := got[k]; dup {
				t.Fatalf("scan delivered %q twice", k)
			}
			got[k] = v
			return len(got) < stopAt
		}); err != nil {
			t.Fatal(err)
		}
		if c, _ := s.cuts.Get().(*scanCut); c != nil {
			defer s.cuts.Put(c)
			if len(c.e) != 0 {
				t.Fatalf("released cut has length %d", len(c.e))
			}
			for _, e := range c.e[:cap(c.e)] {
				if e != (scanEntry{}) {
					t.Fatalf("released cut still holds %q=%q", e.k, e.v)
				}
			}
		}
		return got
	}
	if got := scan(len(keys)); len(got) != len(keys) {
		t.Fatalf("full scan saw %d keys, want %d", len(got), len(keys))
	}
	if got := scan(10); len(got) != 10 {
		t.Fatalf("scan stopped at 10 delivered %d", len(got))
	}
	if _, err := s.Update(func(_ *stm.Tx, b *Batch) error {
		for _, k := range keys[100:] {
			b.Delete(k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := scan(len(keys))
	if len(got) != 100 {
		t.Fatalf("scan of the shrunk store saw %d keys, want 100", len(got))
	}
	for _, k := range keys[:100] {
		if got[k] != "v0" {
			t.Fatalf("scan of the shrunk store has %q=%q, want v0", k, got[k])
		}
	}
}
