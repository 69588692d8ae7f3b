// Package simio provides the I/O substrate for the reproduction: an
// in-memory filesystem with a configurable latency model and fault
// injection.
//
// The paper's evaluation measures where time is spent while transactions
// or locks are held around I/O system calls (open, close, write, fsync),
// not disk physics. A simulated filesystem makes those costs explicit and
// controllable: each operation sleeps for its configured latency (yielding
// the CPU, as a blocking syscall would), and writes can be made to fail
// transiently or fatally to exercise the paper's pipeline_out error
// handling (Listing 7).
//
// A zero Latency gives a zero-cost filesystem, convenient for unit tests;
// the benchmark harness configures microsecond-scale latencies comparable
// to page-cache file I/O.
package simio

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by the simulated filesystem.
var (
	ErrNotExist  = errors.New("simio: file does not exist")
	ErrClosed    = errors.New("simio: file is closed")
	ErrTransient = errors.New("simio: transient write error")
	ErrFatal     = errors.New("simio: fatal write error")
)

// IsTransient reports whether err is a retryable write error (the
// "unreliable media" condition of Listing 7's pipeline_out).
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Latency models the cost of each filesystem operation. Zero values mean
// the operation is free.
type Latency struct {
	Open       time.Duration // per Open/Create
	Close      time.Duration // per Close
	Write      time.Duration // per Write call
	WritePerKB time.Duration // additional, per KiB written
	Read       time.Duration // per Read call
	Fsync      time.Duration // per Fsync
}

// PageCacheLatency approximates warm page-cache file I/O: cheap writes,
// expensive fsync — the regime of the paper's microbenchmark (Section 6.1).
//
// Note that time.Sleep has a platform floor (≈1 ms on small cloud VMs):
// sub-millisecond values all cost about the floor, which preserves "a
// syscall has a fixed cost" but flattens the ratios between operations.
// Benchmarks that need faithful ratios use SlowDiskLatency instead.
func PageCacheLatency() Latency {
	return Latency{
		Open:       20 * time.Microsecond,
		Close:      10 * time.Microsecond,
		Write:      4 * time.Microsecond,
		WritePerKB: 1 * time.Microsecond,
		Read:       2 * time.Microsecond,
		Fsync:      120 * time.Microsecond,
	}
}

// SlowDiskLatency models a spinning disk / network filesystem with every
// operation above the time.Sleep floor, so the configured ratios between
// operations (fsync ≫ write ≈ open) actually hold at runtime. This is
// the profile the benchmark harness uses: the paper's effects depend on
// *where* I/O time is spent while locks or transactions are held, which
// this profile renders faithfully on machines with coarse sleep
// granularity.
func SlowDiskLatency() Latency {
	return Latency{
		Open:       2 * time.Millisecond,
		Close:      1500 * time.Microsecond,
		Write:      1500 * time.Microsecond,
		WritePerKB: 10 * time.Microsecond,
		Read:       1500 * time.Microsecond,
		Fsync:      6 * time.Millisecond,
	}
}

// Faults configures write-fault injection on a filesystem.
type Faults struct {
	// TransientEvery makes every Nth write (counted per FS) fail with
	// ErrTransient after writing a partial prefix. 0 disables.
	TransientEvery int
	// FatalOnWrite makes the Nth write (1-based, counted per FS) fail
	// with ErrFatal. 0 disables.
	FatalOnWrite int
}

// FSStats counts filesystem operations.
type FSStats struct {
	Opens, Closes, Writes, Reads, Fsyncs uint64
	BytesWritten                         uint64
	TransientErrors, FatalErrors         uint64
}

// FS is an in-memory filesystem. All methods are safe for concurrent use.
type FS struct {
	mu    sync.Mutex
	files map[string]*fileData
	lat   Latency
	fl    Faults

	writeSeq atomic.Uint64

	opens, closes, writes, reads, fsyncs atomic.Uint64
	bytesWritten                         atomic.Uint64
	transientErrs, fatalErrs             atomic.Uint64

	crashState // crash-image capture (see crash.go)
}

type fileData struct {
	mu     sync.Mutex
	data   []byte
	synced int // prefix length known to be durable
	opens  int // currently open handles
}

// NewFS creates a filesystem with the given latency model.
func NewFS(lat Latency) *FS {
	return &FS{files: make(map[string]*fileData), lat: lat}
}

// SetFaults installs a fault-injection plan (replacing any previous one).
func (fs *FS) SetFaults(f Faults) {
	fs.mu.Lock()
	fs.fl = f
	fs.writeSeq.Store(0)
	fs.mu.Unlock()
}

// Stats returns a snapshot of operation counters.
func (fs *FS) Stats() FSStats {
	return FSStats{
		Opens:           fs.opens.Load(),
		Closes:          fs.closes.Load(),
		Writes:          fs.writes.Load(),
		Reads:           fs.reads.Load(),
		Fsyncs:          fs.fsyncs.Load(),
		BytesWritten:    fs.bytesWritten.Load(),
		TransientErrors: fs.transientErrs.Load(),
		FatalErrors:     fs.fatalErrs.Load(),
	}
}

func (fs *FS) sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Create creates (or truncates) a file and opens it.
func (fs *FS) Create(name string) (*File, error) {
	fs.sleep(fs.lat.Open)
	fs.opens.Add(1)
	fs.mu.Lock()
	fd, ok := fs.files[name]
	if !ok {
		fd = &fileData{}
		fs.files[name] = fd
	}
	fs.mu.Unlock()
	fd.mu.Lock()
	fd.data = fd.data[:0]
	fd.synced = 0
	fd.opens++
	fd.mu.Unlock()
	return &File{fs: fs, fd: fd, name: name}, nil
}

// Open opens an existing file for reading and writing, positioned at 0.
func (fs *FS) Open(name string) (*File, error) {
	fs.sleep(fs.lat.Open)
	fs.opens.Add(1)
	fs.mu.Lock()
	fd, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("open %s: %w", name, ErrNotExist)
	}
	fd.mu.Lock()
	fd.opens++
	fd.mu.Unlock()
	return &File{fs: fs, fd: fd, name: name}, nil
}

// OpenAppend opens an existing file (creating it if needed) positioned at
// its end, in append mode.
func (fs *FS) OpenAppend(name string) (*File, error) {
	fs.sleep(fs.lat.Open)
	fs.opens.Add(1)
	fs.mu.Lock()
	fd, ok := fs.files[name]
	if !ok {
		fd = &fileData{}
		fs.files[name] = fd
	}
	fs.mu.Unlock()
	fd.mu.Lock()
	fd.opens++
	off := len(fd.data)
	fd.mu.Unlock()
	return &File{fs: fs, fd: fd, name: name, offset: off, appendMode: true}, nil
}

// Exists reports whether name exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// Remove deletes a file. Open handles keep working on the orphaned data,
// as with POSIX unlink.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("remove %s: %w", name, ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

// Names returns the sorted names of all files.
func (fs *FS) Names() []string {
	fs.mu.Lock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	fs.mu.Unlock()
	sort.Strings(names)
	return names
}

// ReadAll returns a copy of a file's full contents (test convenience).
func (fs *FS) ReadAll(name string) ([]byte, error) {
	fs.mu.Lock()
	fd, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("readall %s: %w", name, ErrNotExist)
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	out := make([]byte, len(fd.data))
	copy(out, fd.data)
	return out, nil
}

// SyncedLen reports how many bytes of a file are durable (fsync'd).
func (fs *FS) SyncedLen(name string) (int, error) {
	fs.mu.Lock()
	fd, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("syncedlen %s: %w", name, ErrNotExist)
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.synced, nil
}

// File is an open handle on a simulated file. A File is safe for
// concurrent use by multiple goroutines (operations are atomic), though —
// like a POSIX fd — interleaved writes from different goroutines interleave
// at call granularity.
type File struct {
	fs         *FS
	fd         *fileData
	name       string
	appendMode bool

	mu     sync.Mutex
	offset int
	closed bool
}

// Write writes p at the current offset (or at end-of-file in append mode),
// applying the latency model and fault injection. On a transient fault a
// partial prefix may have been written; the returned count reflects it.
func (f *File) Write(p []byte) (int, error) {
	f.fs.sleep(f.fs.lat.Write + f.fs.lat.WritePerKB*time.Duration((len(p)+1023)/1024))
	f.fs.writes.Add(1)

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("write %s: %w", f.name, ErrClosed)
	}

	n := len(p)
	var werr error
	seq := f.fs.writeSeq.Add(1)
	if te := f.fs.fl.TransientEvery; te > 0 && seq%uint64(te) == 0 {
		// Partial write, then transient failure. At least one byte
		// makes progress so retry loops always terminate (as a real
		// short write would).
		n = len(p) / 2
		if n == 0 {
			n = 1
		}
		werr = fmt.Errorf("write %s: %w", f.name, ErrTransient)
		f.fs.transientErrs.Add(1)
	}
	if fo := f.fs.fl.FatalOnWrite; fo > 0 && seq == uint64(fo) {
		f.fs.fatalErrs.Add(1)
		return 0, fmt.Errorf("write %s: %w", f.name, ErrFatal)
	}

	// Crash injection: if this is the planned mid-write crash, only a
	// prefix of the payload is on the file when the image is captured;
	// the rest of the reserved range reads as zeros (a torn append). The
	// live write then completes normally.
	split, crashing := f.fs.crashWriteSplit(n)

	f.fd.mu.Lock()
	off := f.offset
	if f.appendMode {
		off = len(f.fd.data)
	}
	if need := off + n; need > len(f.fd.data) {
		if need > cap(f.fd.data) {
			grown := make([]byte, need, need*2)
			copy(grown, f.fd.data)
			f.fd.data = grown
		} else {
			f.fd.data = f.fd.data[:need]
		}
	}
	copy(f.fd.data[off:off+split], p[:split])
	f.fd.mu.Unlock()

	if crashing {
		f.fs.captureCrash()
		f.fd.mu.Lock()
		copy(f.fd.data[off+split:off+n], p[split:n])
		f.fd.mu.Unlock()
	}

	f.offset = off + n
	f.fs.bytesWritten.Add(uint64(n))
	return n, werr
}

// Read reads from the current offset.
func (f *File) Read(p []byte) (int, error) {
	f.fs.sleep(f.fs.lat.Read)
	f.fs.reads.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("read %s: %w", f.name, ErrClosed)
	}
	f.fd.mu.Lock()
	defer f.fd.mu.Unlock()
	if f.offset >= len(f.fd.data) {
		return 0, io.EOF
	}
	n := copy(p, f.fd.data[f.offset:])
	f.offset += n
	return n, nil
}

// Len returns the file's current size.
func (f *File) Len() int {
	f.fd.mu.Lock()
	defer f.fd.mu.Unlock()
	return len(f.fd.data)
}

// Fsync makes all written data durable (visible via SyncedLen), applying
// the fsync latency.
func (f *File) Fsync() error {
	f.fs.sleep(f.fs.lat.Fsync)
	f.fs.fsyncs.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("fsync %s: %w", f.name, ErrClosed)
	}
	if f.fs.crashFsyncHit(CrashPreFsync) {
		f.fs.captureCrash()
	}
	f.fd.mu.Lock()
	f.fd.synced = len(f.fd.data)
	f.fd.mu.Unlock()
	if f.fs.crashFsyncHit(CrashPostFsync) {
		f.fs.captureCrash()
	}
	return nil
}

// Close closes the handle. Closing twice returns ErrClosed.
func (f *File) Close() error {
	f.fs.sleep(f.fs.lat.Close)
	f.fs.closes.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("close %s: %w", f.name, ErrClosed)
	}
	f.closed = true
	f.fd.mu.Lock()
	f.fd.opens--
	f.fd.mu.Unlock()
	return nil
}

// ReliableWrite implements the paper's pipeline_out (Listing 7): write buf
// to f, retrying transient errors and resuming after partial writes, then
// fsync. A fatal error is returned as-is. It is the kind of long-running,
// irrevocable operation atomic deferral exists for.
func ReliableWrite(f *File, buf []byte) error {
	sent := 0
	for sent < len(buf) {
		n, err := f.Write(buf[sent:])
		sent += n
		if err != nil {
			if IsTransient(err) {
				continue
			}
			return err
		}
	}
	return f.Fsync()
}
