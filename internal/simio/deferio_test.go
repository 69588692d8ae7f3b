package simio

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/stm"
)

// TestDeferredLogging reproduces Listing 3: transactions format a message
// from transactional state and defer the write to a shared log file. All
// messages must appear, whole, in the log.
func TestDeferredLogging(t *testing.T) {
	rt := stm.NewDefault()
	fs := NewFS(Latency{})
	logFile, err := fs.Create("stderr")
	if err != nil {
		t.Fatal(err)
	}
	df := NewDeferFD(logFile)
	x := stm.NewVar("item")
	i := stm.NewVar(0)

	var wg sync.WaitGroup
	const workers, per = 4, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				err := rt.Atomic(func(tx *stm.Tx) error {
					// Prepare the output string inside the transaction
					// (sprintf on transactional data), defer the fprintf.
					i.Set(tx, i.Get(tx)+1)
					msg := fmt.Sprintf("[%s %d.%d]", x.Get(tx), w, k)
					fd := df.FD(tx)
					core.AtomicDefer(tx, func(ctx *core.OpCtx) {
						if _, err := fd.Write([]byte(msg)); err != nil {
							t.Errorf("log write: %v", err)
						}
					}, df)
					return nil
				})
				if err != nil {
					t.Errorf("atomic: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := fs.ReadAll("stderr")
	for w := 0; w < workers; w++ {
		for k := 0; k < per; k++ {
			want := fmt.Sprintf("[item %d.%d]", w, k)
			if !bytes.Contains(got, []byte(want)) {
				t.Fatalf("log missing %q", want)
			}
		}
	}
	if n := i.Load(); n != workers*per {
		t.Errorf("i = %d, want %d", n, workers*per)
	}
}

// TestDurableOrderedOutput reproduces Listing 4: T2 must not write buffer2
// to fd2 until T1's write of buffer1 to fd1 is durable. We run T1 with a
// slow fsync and verify T2's write observes durability.
func TestDurableOrderedOutput(t *testing.T) {
	rt := stm.NewDefault()
	fs := NewFS(Latency{Fsync: 2 * time.Millisecond})
	f1, _ := fs.Create("f1")
	f2, _ := fs.Create("f2")
	fd1, fd2 := NewDeferFD(f1), NewDeferFD(f2)
	buf1 := NewDeferBuffer([]byte("first-payload"))
	buf2 := NewDeferBuffer([]byte("second-payload"))

	var wg sync.WaitGroup
	var orderViolation bool
	var mu sync.Mutex

	// T2: conditional durable output to fd2, gated on buf1's flag.
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := rt.Atomic(func(tx *stm.Tx) error {
			if !buf1.Flag(tx) { // Subscribe + read; retries while locked
				tx.Retry()
			}
			b := buf2.Buf(tx)
			f := fd2.FD(tx)
			core.AtomicDefer(tx, func(ctx *core.OpCtx) {
				// At this moment f1 must already be durable.
				n, err := fs.SyncedLen("f1")
				if err != nil || n == 0 {
					mu.Lock()
					orderViolation = true
					mu.Unlock()
				}
				if _, err := f.Write(b); err != nil {
					t.Errorf("t2 write: %v", err)
				}
				if err := f.Fsync(); err != nil {
					t.Errorf("t2 fsync: %v", err)
				}
				buf2.SetFlagDirect(ctx, true)
			}, fd2, buf2)
			return nil
		})
		if err != nil {
			t.Errorf("t2: %v", err)
		}
	}()

	// Give T2 a chance to block on the flag.
	time.Sleep(2 * time.Millisecond)

	// T1: durable output to fd1, setting the flag in the deferred op.
	if err := rt.Atomic(func(tx *stm.Tx) error {
		b := buf1.Buf(tx)
		f := fd1.FD(tx)
		core.AtomicDefer(tx, func(ctx *core.OpCtx) {
			if _, err := f.Write(b); err != nil {
				t.Errorf("t1 write: %v", err)
			}
			if err := f.Fsync(); err != nil {
				t.Errorf("t1 fsync: %v", err)
			}
			buf1.SetFlagDirect(ctx, true)
		}, fd1, buf1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	if orderViolation {
		t.Error("T2 wrote before T1's data was durable")
	}
	g1, _ := fs.ReadAll("f1")
	g2, _ := fs.ReadAll("f2")
	if string(g1) != "first-payload" || string(g2) != "second-payload" {
		t.Errorf("contents: f1=%q f2=%q", g1, g2)
	}
	if n, _ := fs.SyncedLen("f2"); n != len(g2) {
		t.Error("f2 not durable")
	}
}

// TestDeferFileMicrobenchOp reproduces Listing 6's deferred operation:
// open, seek to end for length, close, then append formatted content.
func TestDeferFileMicrobenchOp(t *testing.T) {
	rt := stm.NewDefault()
	fs := NewFS(Latency{})
	df, err := NewDeferFile(fs, "data-0")
	if err != nil {
		t.Fatal(err)
	}
	content := stm.NewVar("payload")

	for round := 0; round < 3; round++ {
		if err := rt.Atomic(func(tx *stm.Tx) error {
			df.Subscribe(tx)
			c := content.Get(tx)
			core.AtomicDefer(tx, func(ctx *core.OpCtx) {
				in, err := df.FS.Open(df.Name)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				length := in.Len()
				if err := in.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
				out, err := df.FS.OpenAppend(df.Name)
				if err != nil {
					t.Errorf("open out: %v", err)
					return
				}
				tmp := fmt.Sprintf("%s@%d;", c, length)
				if _, err := out.Write([]byte(tmp)); err != nil {
					t.Errorf("write: %v", err)
				}
				if err := out.Close(); err != nil {
					t.Errorf("close out: %v", err)
				}
			}, df)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := fs.ReadAll("data-0")
	want := "payload@0;payload@10;payload@21;"
	if string(got) != want {
		t.Errorf("contents = %q, want %q", got, want)
	}
	if df.Locked() {
		t.Error("lock leaked")
	}
}

func TestNewDeferFileCreatesOnce(t *testing.T) {
	fs := NewFS(Latency{})
	d1, err := NewDeferFile(fs, "x")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.OpenAppend("x")
	_, _ = f.Write([]byte("keep"))
	_ = f.Close()
	d2, err := NewDeferFile(fs, "x")
	if err != nil {
		t.Fatal(err)
	}
	if d1.Name != d2.Name {
		t.Error("names differ")
	}
	got, _ := fs.ReadAll("x")
	if string(got) != "keep" {
		t.Errorf("existing file truncated: %q", got)
	}
}
