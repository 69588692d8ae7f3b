// Durable: the paper's Listing 4 — durable output with guaranteed
// fsync ordering.
//
// Two files F1 and F2: F2 must not be written until F1's contents have
// reached the disk. Simply deferring the fsync is not enough — the
// *completion* of the first durable write must gate the second. The
// construction: the completion flag lives in a Deferrable buffer object,
// and the deferred operation sets it while holding the object's lock, so
// a transaction that subscribes and reads the flag either sees it set
// (the fsync returned) or waits (the deferred write is in flight) or sees
// it clear (the first transaction hasn't committed).
//
// The second half shows the same idea grown into a subsystem: the
// durable KV store (internal/kv) writes one WAL record per transaction
// and defers the append+fsync through the log's lock, so concurrent
// commits share fsyncs (group commit) — and the store recovers its exact
// contents from the log after a restart.
//
// Run with: go run ./examples/durable
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/kv"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

func main() {
	if err := listing4(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := groupCommit(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// listing4 is the paper's Listing 4: two files, the second gated on the
// first's durability through a deferrable completion flag. It fails if
// F2 is written before F1's fsync returned.
func listing4(out io.Writer) error {
	rt := stm.NewDefault()
	// A filesystem with a slow, visible fsync.
	fs := simio.NewFS(simio.Latency{Fsync: 3 * time.Millisecond})

	f1, err := fs.Create("wal-1")
	if err != nil {
		return err
	}
	f2, err := fs.Create("wal-2")
	if err != nil {
		return err
	}
	fd1 := simio.NewDeferFD(f1)
	fd2 := simio.NewDeferFD(f2)
	buf1 := simio.NewDeferBuffer([]byte("record-A: must be durable first\n"))
	buf2 := simio.NewDeferBuffer([]byte("record-B: only after A is on disk\n"))

	var wg sync.WaitGroup
	var t2err error

	// T2 — conditional durable output to F2, gated on buf1's flag
	// (Listing 4, right side). Started first to show the retry blocking.
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := rt.Atomic(func(tx *stm.Tx) error {
			if !buf1.Flag(tx) {
				// Case (1)/(2) of the paper's discussion: the flag is
				// unset or the deferred write is in flight — wait.
				tx.Retry()
			}
			// Case (3): buf1 is durable; emit F2's record.
			b := buf2.Buf(tx)
			f := fd2.FD(tx)
			core.AtomicDefer(tx, func(ctx *core.OpCtx) {
				durable, _ := fs.SyncedLen("wal-1")
				fmt.Fprintf(out, "T2 deferred write begins; wal-1 durable bytes: %d\n", durable)
				if durable == 0 {
					t2err = errors.New("ordering violated: wal-1 not durable before wal-2 write")
				}
				if _, err := f.Write(b); err != nil {
					log.Fatal(err)
				}
				if err := f.Fsync(); err != nil {
					log.Fatal(err)
				}
				buf2.SetFlagDirect(ctx, true)
			}, fd2, buf2)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}()

	time.Sleep(2 * time.Millisecond) // let T2 block on the flag

	// T1 — durable output to F1 (Listing 4, left side).
	err = rt.Atomic(func(tx *stm.Tx) error {
		b := buf1.Buf(tx)
		f := fd1.FD(tx)
		core.AtomicDefer(tx, func(ctx *core.OpCtx) {
			fmt.Fprintln(out, "T1 deferred write begins (slow fsync ahead)")
			if _, err := f.Write(b); err != nil {
				log.Fatal(err)
			}
			if err := f.Fsync(); err != nil {
				log.Fatal(err)
			}
			// The flag flips only after the fsync returned, still under
			// buf1's lock — this is what T2's subscription synchronizes
			// with.
			buf1.SetFlagDirect(ctx, true)
		}, fd1, buf1)
		return nil
	})
	if err != nil {
		return err
	}

	wg.Wait()
	if t2err != nil {
		return t2err
	}

	d1, _ := fs.SyncedLen("wal-1")
	d2, _ := fs.SyncedLen("wal-2")
	c1, _ := fs.ReadAll("wal-1")
	c2, _ := fs.ReadAll("wal-2")
	fmt.Fprintf(out, "wal-1: %d bytes, %d durable\nwal-2: %d bytes, %d durable\n",
		len(c1), d1, len(c2), d2)
	if d1 != len(c1) || d2 != len(c2) {
		return errors.New("durability accounting wrong")
	}
	fmt.Fprintln(out, "ok: wal-2 was written only after wal-1 reached the disk")
	return nil
}

// groupCommit drives the durable KV store: every Update appends one WAL
// record inside its transaction and the fsync is atomically deferred
// behind the log's lock — the first committer to find the lock free
// leads the flush, and commits that land during it share the next one.
// It fails if every commit took its own fsync, or if the store reopened
// from the log differs from the live one.
func groupCommit(out io.Writer) error {
	fs := simio.NewFS(simio.Latency{Fsync: 2 * time.Millisecond})
	s, _, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kv.Options{})
	if err != nil {
		return err
	}

	const writers, updates = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				lsn, err := s.Update(func(tx *stm.Tx, b *kv.Batch) error {
					b.Put(fmt.Sprintf("w%d-k%d", w, i%5), fmt.Sprintf("v%d", i))
					return nil
				})
				if err != nil {
					log.Fatal(err)
				}
				s.WaitDurable(lsn) // returns once a group flush covers us
			}
		}(w)
	}
	wg.Wait()

	st := s.WALStats()
	commits := uint64(writers * updates)
	fmt.Fprintf(out, "group commit: %d durable updates, %d fsyncs (mean batch %.1f, max %d)\n",
		commits, fs.Stats().Fsyncs, st.Mean(), st.MaxBatch)
	if st.Flushes >= commits {
		return errors.New("group commit never batched: as many fsyncs as commits")
	}

	// Snapshot the live contents, "restart", and recover from the log.
	live := map[string]string{}
	if err := s.View(func(tx *stm.Tx) error {
		s.Range(tx, func(k, v string) bool { live[k] = v; return true })
		return nil
	}); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	s2, info, err := kv.Open(stm.NewDefault(), wal.NewSimBackend(fs), kv.Options{})
	if err != nil {
		return err
	}
	defer s2.Close()
	recovered := map[string]string{}
	if err := s2.View(func(tx *stm.Tx) error {
		s2.Range(tx, func(k, v string) bool { recovered[k] = v; return true })
		return nil
	}); err != nil {
		return err
	}
	if len(recovered) != len(live) {
		return fmt.Errorf("recovered %d keys, want %d", len(recovered), len(live))
	}
	for k, v := range live {
		if recovered[k] != v {
			return fmt.Errorf("key %q diverged after recovery", k)
		}
	}
	fmt.Fprintf(out, "ok: replayed %d records, recovered store matches the live store exactly\n", info.Replayed)
	return nil
}
