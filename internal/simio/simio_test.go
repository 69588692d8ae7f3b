package simio

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/quick"
)

func TestCreateWriteRead(t *testing.T) {
	fs := NewFS(Latency{})
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Errorf("contents = %q", got)
	}
}

func TestOpenNotExist(t *testing.T) {
	fs := NewFS(Latency{})
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
	if _, err := fs.ReadAll("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("ReadAll err = %v", err)
	}
	if _, err := fs.SyncedLen("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("SyncedLen err = %v", err)
	}
	if err := fs.Remove("missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Remove err = %v", err)
	}
}

func TestCreateTruncates(t *testing.T) {
	fs := NewFS(Latency{})
	f, _ := fs.Create("a")
	_, _ = f.Write([]byte("data"))
	_ = f.Close()
	f2, _ := fs.Create("a")
	_ = f2.Close()
	got, _ := fs.ReadAll("a")
	if len(got) != 0 {
		t.Errorf("Create did not truncate: %q", got)
	}
}

func TestReadSeek(t *testing.T) {
	fs := NewFS(Latency{})
	f, _ := fs.Create("a")
	_, _ = f.Write([]byte("0123456789"))
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	n, err := f.Read(buf)
	if err != nil || n != 4 || string(buf) != "0123" {
		t.Errorf("Read = %d,%v,%q", n, err, buf)
	}
	if pos, err := f.Seek(-2, io.SeekEnd); err != nil || pos != 8 {
		t.Errorf("SeekEnd = %d,%v", pos, err)
	}
	n, _ = f.Read(buf)
	if n != 2 || string(buf[:2]) != "89" {
		t.Errorf("tail read = %q", buf[:n])
	}
	if _, err := f.Read(buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
	if pos, err := f.Seek(2, io.SeekCurrent); err != nil || pos != 12 {
		t.Errorf("SeekCurrent = %d,%v", pos, err)
	}
	if _, err := f.Seek(-100, io.SeekStart); err == nil {
		t.Error("negative seek allowed")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Error("bad whence allowed")
	}
}

func TestAppendMode(t *testing.T) {
	fs := NewFS(Latency{})
	f, _ := fs.Create("log")
	_, _ = f.Write([]byte("aa"))
	_ = f.Close()
	a1, _ := fs.OpenAppend("log")
	a2, _ := fs.OpenAppend("log")
	_, _ = a1.Write([]byte("bb"))
	_, _ = a2.Write([]byte("cc")) // appends at current end, not stale offset
	_ = a1.Close()
	_ = a2.Close()
	got, _ := fs.ReadAll("log")
	if string(got) != "aabbcc" {
		t.Errorf("append contents = %q, want aabbcc", got)
	}
}

func TestOpenAppendCreates(t *testing.T) {
	fs := NewFS(Latency{})
	f, err := fs.OpenAppend("new")
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if !fs.Exists("new") {
		t.Error("OpenAppend did not create")
	}
}

func TestCloseSemantics(t *testing.T) {
	fs := NewFS(Latency{})
	f, _ := fs.Create("a")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !f.closed {
		t.Error("closed = false")
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close err = %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write-after-close err = %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("read-after-close err = %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, ErrClosed) {
		t.Errorf("seek-after-close err = %v", err)
	}
	if err := f.Fsync(); !errors.Is(err, ErrClosed) {
		t.Errorf("fsync-after-close err = %v", err)
	}
}

func TestFsyncTracksDurability(t *testing.T) {
	fs := NewFS(Latency{})
	f, _ := fs.Create("d")
	_, _ = f.Write([]byte("abc"))
	if n, _ := fs.SyncedLen("d"); n != 0 {
		t.Errorf("synced before fsync = %d", n)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if n, _ := fs.SyncedLen("d"); n != 3 {
		t.Errorf("synced after fsync = %d", n)
	}
	_, _ = f.Write([]byte("de"))
	if n, _ := fs.SyncedLen("d"); n != 3 {
		t.Errorf("unsynced tail counted: %d", n)
	}
}

func TestRemoveAndNames(t *testing.T) {
	fs := NewFS(Latency{})
	for _, n := range []string{"b", "a", "c"} {
		f, _ := fs.Create(n)
		_ = f.Close()
	}
	names := fs.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("Names = %v", names)
	}
	if err := fs.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("b") {
		t.Error("removed file exists")
	}
}

func TestTransientFaultInjection(t *testing.T) {
	fs := NewFS(Latency{})
	fs.SetFaults(Faults{TransientEvery: 2})
	f, _ := fs.Create("x")
	// writeSeq=1: ok; writeSeq=2: transient partial.
	if _, err := f.Write([]byte("full")); err != nil {
		t.Fatalf("first write failed: %v", err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !IsTransient(err) {
		t.Fatalf("expected transient, got %v", err)
	}
	if n != 3 {
		t.Errorf("partial write = %d, want 3", n)
	}
	if fs.Stats().TransientErrors != 1 {
		t.Error("transient error not counted")
	}
}

func TestFatalFaultInjection(t *testing.T) {
	fs := NewFS(Latency{})
	fs.SetFaults(Faults{FatalOnWrite: 2})
	f, _ := fs.Create("x")
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("b")); !errors.Is(err, ErrFatal) {
		t.Fatalf("expected fatal, got %v", err)
	}
	if fs.Stats().FatalErrors != 1 {
		t.Error("fatal error not counted")
	}
}

func TestReliableWriteRetriesTransients(t *testing.T) {
	fs := NewFS(Latency{})
	fs.SetFaults(Faults{TransientEvery: 1}) // every write is a short write
	f, _ := fs.Create("out")
	payload := bytes.Repeat([]byte("deadbeef"), 64)
	if err := ReliableWrite(f, payload); err != nil {
		t.Fatalf("ReliableWrite: %v", err)
	}
	got, _ := fs.ReadAll("out")
	if !bytes.Equal(got, payload) {
		t.Errorf("contents mismatch: %d bytes vs %d", len(got), len(payload))
	}
	if n, _ := fs.SyncedLen("out"); n != len(payload) {
		t.Errorf("not durable: synced=%d", n)
	}
	if fs.Stats().TransientErrors == 0 {
		t.Error("no transients were injected — test is vacuous")
	}
}

func TestReliableWriteFatal(t *testing.T) {
	fs := NewFS(Latency{})
	fs.SetFaults(Faults{FatalOnWrite: 1})
	f, _ := fs.Create("out")
	if err := ReliableWrite(f, []byte("data")); !errors.Is(err, ErrFatal) {
		t.Errorf("expected fatal error, got %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	fs := NewFS(Latency{})
	f, _ := fs.Create("s")
	_, _ = f.Write([]byte("1234"))
	_, _ = f.Seek(0, io.SeekStart)
	_, _ = f.Read(make([]byte, 2))
	_ = f.Fsync()
	_ = f.Close()
	st := fs.Stats()
	if st.Opens != 1 || st.Closes != 1 || st.Writes != 1 || st.Reads != 1 || st.Seeks != 1 || st.Fsyncs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesWritten != 4 {
		t.Errorf("bytes = %d", st.BytesWritten)
	}
}

func TestConcurrentAppendersNoLostBytes(t *testing.T) {
	fs := NewFS(Latency{})
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := fs.OpenAppend("shared")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			defer f.Close() //nolint:errcheck
			for i := 0; i < per; i++ {
				if _, err := f.Write([]byte{byte(w)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := fs.ReadAll("shared")
	if len(got) != workers*per {
		t.Errorf("len = %d, want %d", len(got), workers*per)
	}
	counts := map[byte]int{}
	for _, b := range got {
		counts[b]++
	}
	for w := 0; w < workers; w++ {
		if counts[byte(w)] != per {
			t.Errorf("worker %d bytes = %d, want %d", w, counts[byte(w)], per)
		}
	}
}

// Property: for any sequence of appends, the file contents equal the
// concatenation.
func TestAppendConcatenationProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := NewFS(Latency{})
		file, err := fs.Create("p")
		if err != nil {
			return false
		}
		var want []byte
		for _, c := range chunks {
			if _, err := file.Write(c); err != nil {
				return false
			}
			want = append(want, c...)
		}
		got, err := fs.ReadAll("p")
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: ReliableWrite always produces exactly the payload, durable,
// under any transient-fault period.
func TestReliableWriteProperty(t *testing.T) {
	f := func(payload []byte, every uint8) bool {
		fs := NewFS(Latency{})
		fs.SetFaults(Faults{TransientEvery: int(every%7) + 2})
		file, err := fs.Create("p")
		if err != nil {
			return false
		}
		if err := ReliableWrite(file, payload); err != nil {
			return false
		}
		got, err := fs.ReadAll("p")
		if err != nil || !bytes.Equal(got, payload) {
			return false
		}
		n, err := fs.SyncedLen("p")
		return err == nil && n == len(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPageCacheLatencyNonZero(t *testing.T) {
	l := PageCacheLatency()
	if l.Open == 0 || l.Fsync == 0 || l.Write == 0 {
		t.Error("latency model has zero core costs")
	}
	if l.Fsync < l.Write {
		t.Error("fsync should dominate write")
	}
}
