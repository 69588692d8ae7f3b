package wal

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// Segment rotation and what a crash can find afterwards (DESIGN.md §6,
// "Rotation"). Recovery treats an invalid record as a torn tail only in
// the last segment, so a segment may be created only once every earlier
// one is durable: the order of Create and Fsync calls is the invariant.

// callLog records, in order, the backend calls that decide what a crash
// leaves on storage.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (c *callLog) note(op, name string) {
	c.mu.Lock()
	c.calls = append(c.calls, op+" "+name)
	c.mu.Unlock()
}

// since returns a copy of the calls recorded after the first mark.
func (c *callLog) since(mark int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.calls[mark:])
}

func (c *callLog) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

// recordingBackend notes every Create, Truncate, segment Write and Fsync.
type recordingBackend struct {
	Backend
	log *callLog
}

type recordingFile struct {
	File
	log  *callLog
	name string
}

func (b recordingBackend) wrap(name string, f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return recordingFile{File: f, log: b.log, name: name}, nil
}

func (b recordingBackend) Create(name string) (File, error) {
	b.log.note("Create", name)
	f, err := b.Backend.Create(name)
	return b.wrap(name, f, err)
}

func (b recordingBackend) OpenAppend(name string) (File, error) {
	f, err := b.Backend.OpenAppend(name)
	return b.wrap(name, f, err)
}

func (b recordingBackend) Truncate(name string, size int64) error {
	b.log.note("Truncate", name)
	return b.Backend.Truncate(name, size)
}

func (f recordingFile) Write(p []byte) (int, error) {
	f.log.note("Write", f.name)
	return f.File.Write(p)
}

func (f recordingFile) Fsync() error {
	f.log.note("Fsync", f.name)
	return f.File.Fsync()
}

// rotSeg is the segment size of the rotation tests; rotRec, a payload
// whose record takes 100 of its bytes, so two records fit and three do
// not.
const rotSeg = 256

var rotRec = bytes.Repeat([]byte{'r'}, 100-recordHeader)

// flushRecords commits n records in one transaction, so that one flush
// writes them as one batch, and waits until they are durable.
func flushRecords(t *testing.T, l *Log, n int) {
	t.Helper()
	var last uint64
	if err := l.rt.Atomic(func(tx *stm.Tx) error {
		for i := 0; i < n; i++ {
			last = l.Reserve(tx)
			l.EnqueueReserved(tx, last, 0, false, rotRec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	l.WaitDurable(last)
}

func openRecording(t *testing.T, fs *simio.FS, calls *callLog) *Log {
	t.Helper()
	l, _, err := Open(stm.NewDefault(), recordingBackend{NewSimBackend(fs), calls}, Options{SegmentBytes: rotSeg})
	if err != nil {
		t.Fatal(err)
	}
	JoinLanes([]*Log{l})
	closeAtEnd(t, l)
	return l
}

func closeLog(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRotationFsyncOrder pins the calls of a flush that rotates:
//
//   - a batch that fits in a segment but not in the rest of the current
//     one creates the next segment with no fsync in between (the old one
//     holds nothing unsynced), then writes and fsyncs once;
//   - a batch larger than a segment fills the current one and fsyncs it
//     before it creates the next;
//   - so does the first rotation after Open, whether recovery truncated a
//     torn tail or TruncateTail cut the segment: a truncation is durable
//     only after an fsync, and a later segment must not exist while the
//     old one may still hold the cut bytes on disk. (The simulated FS
//     makes a Truncate durable at once, so no crash image shows this;
//     the call order does.)
func TestRotationFsyncOrder(t *testing.T) {
	t.Run("rotate-first", func(t *testing.T) {
		fs, calls := simio.NewFS(simio.Latency{}), &callLog{}
		l := openRecording(t, fs, calls)
		flushRecords(t, l, 1) // seg-1 holds 100 bytes
		mark := calls.len()
		flushRecords(t, l, 2) // 200 bytes: fits a segment, not the 156 left
		want := []string{"Create " + segName(2), "Write " + segName(2), "Fsync " + segName(2)}
		if got := calls.since(mark); !slices.Equal(got, want) {
			t.Fatalf("rotate-first flush issued %q, want %q", got, want)
		}
		if st := l.BatchStats(); st.Fsyncs != st.Flushes || st.Rotations != 1 {
			t.Fatalf("%d fsyncs for %d flushes, %d rotations; want one fsync per flush, 1 rotation", st.Fsyncs, st.Flushes, st.Rotations)
		}
		closeLog(t, l)
		_, _, rec := openSim(t, fs, Options{SegmentBytes: rotSeg})
		if rec.LastLSN != 3 || len(rec.Records) != 3 || rec.Records[1].Seg != segName(2) || rec.Records[1].Off != 0 {
			t.Fatalf("recovered %d records up to %d, LSN 2 at %s+%d; want 3, LSN 2 at the start of %s",
				len(rec.Records), rec.LastLSN, rec.Records[1].Seg, rec.Records[1].Off, segName(2))
		}
	})
	t.Run("oversize", func(t *testing.T) {
		fs, calls := simio.NewFS(simio.Latency{}), &callLog{}
		l := openRecording(t, fs, calls)
		mark := calls.len()
		flushRecords(t, l, 3) // 300 bytes: two records fill seg-1, the third starts seg-3
		want := []string{"Write " + segName(1), "Fsync " + segName(1), "Create " + segName(3), "Write " + segName(3), "Fsync " + segName(3)}
		if got := calls.since(mark); !slices.Equal(got, want) {
			t.Fatalf("oversize flush issued %q, want %q", got, want)
		}
		closeLog(t, l)
	})
	t.Run("after-torn-tail", func(t *testing.T) {
		fs := simio.NewFS(simio.Latency{})
		rt, l, _ := openSim(t, fs, Options{SegmentBytes: rotSeg})
		appendOne(t, rt, l, string(rotRec))
		l.WaitDurable(1)
		closeLog(t, l)
		f, err := fs.OpenAppend(segName(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(appendRecord(nil, 2, rotRec)[:recordHeader+8]); err != nil {
			t.Fatal(err)
		}
		f.Close()

		calls := &callLog{}
		l = openRecording(t, fs, calls)
		flushRecords(t, l, 2)
		want := []string{"Truncate " + segName(1), "Fsync " + segName(1), "Create " + segName(2), "Write " + segName(2), "Fsync " + segName(2)}
		if got := calls.since(0); !slices.Equal(got, want) {
			t.Fatalf("after a torn-tail truncate the log issued %q, want %q", got, want)
		}
		closeLog(t, l)
	})
	t.Run("after-TruncateTail", func(t *testing.T) {
		fs := simio.NewFS(simio.Latency{})
		_, l, _ := openSim(t, fs, Options{SegmentBytes: rotSeg})
		flushRecords(t, l, 1)
		flushRecords(t, l, 1) // seg-1 holds LSNs 1 and 2
		closeLog(t, l)
		b := NewSimBackend(fs)
		_, l, rec := openSim(t, fs, Options{SegmentBytes: rotSeg})
		closeLog(t, l)
		if err := TruncateTail(b, rec, 2); err != nil {
			t.Fatal(err)
		}

		calls := &callLog{}
		l = openRecording(t, fs, calls)
		flushRecords(t, l, 2) // LSNs 2 and 3: 200 bytes after the 100 kept
		want := []string{"Fsync " + segName(1), "Create " + segName(2), "Write " + segName(2), "Fsync " + segName(2)}
		if got := calls.since(0); !slices.Equal(got, want) {
			t.Fatalf("after TruncateTail the log issued %q, want %q", got, want)
		}
		closeLog(t, l)
	})
}

// TestRotateFirstFsyncsEqualFlushes: when every batch fits in a segment
// but not in what is left of the current one, each flush is one fsync —
// its rotation adds none — and the disk agrees with the counters.
func TestRotateFirstFsyncsEqualFlushes(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	_, l, _ := openSim(t, fs, Options{SegmentBytes: rotSeg})
	before := fs.Stats().Fsyncs
	const flushes = 20
	for i := 0; i < flushes; i++ {
		flushRecords(t, l, 2) // 200 bytes: every flush after the first rotates first
	}
	st := l.BatchStats()
	if st.Flushes != flushes || st.Fsyncs != flushes || st.Rotations != flushes-1 {
		t.Fatalf("%d flushes, %d fsyncs, %d rotations; want %d, %d, %d",
			st.Flushes, st.Fsyncs, st.Rotations, flushes, flushes, flushes-1)
	}
	if disk := fs.Stats().Fsyncs - before; disk != st.Fsyncs {
		t.Fatalf("the log counted %d fsyncs, the disk saw %d", st.Fsyncs, disk)
	}
	closeLog(t, l)
	_, _, rec := openSim(t, fs, Options{SegmentBytes: rotSeg})
	if rec.LastLSN != 2*flushes || len(rec.Records) != 2*flushes {
		t.Fatalf("recovered %d records up to %d, want %d", len(rec.Records), rec.LastLSN, 2*flushes)
	}
}
