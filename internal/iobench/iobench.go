// Package iobench implements the paper's transactional I/O
// microbenchmark (Section 6.1, Figure 2), patterned after Demsky and
// Tehrany: threads cooperate to complete a fixed number of operations,
// each of which produces content, identifies a file, and performs I/O on
// it — open the file, read its length, and append formatted data
// (Listing 6). The I/O can be executed under a coarse global lock (CGL),
// one fine-grained lock per file (FGL), an irrevocable transaction
// (irrevoc), or atomically deferred from a transaction (defer).
//
// Four configurations reproduce the figure's panels:
//
//	(a) 1 file            — no concurrency available
//	(b) 2 files, +FGL
//	(c) 4 files
//	(d) 4 files kept open — short critical sections (append only)
package iobench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/core"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// Mode is the synchronization scheme for the I/O operation.
type Mode int

const (
	// CGL executes the operation under one global mutex.
	CGL Mode = iota
	// FGL executes the operation under a per-file mutex.
	FGL
	// Irrevoc executes the operation inside an irrevocable (serial)
	// transaction, as GCC runs a `synchronized` block that performs I/O
	// ("serializes early, avoids instrumentation").
	Irrevoc
	// Defer executes the bookkeeping in a transaction and atomically
	// defers the I/O on the file's deferrable object.
	Defer
)

var modeNames = map[Mode]string{CGL: "CGL", FGL: "FGL", Irrevoc: "irrevoc", Defer: "defer"}

func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config parameterizes a run.
type Config struct {
	Mode    Mode
	Files   int // number of files (1, 2 or 4 in the paper)
	Threads int
	Ops     int // total operations across all threads
	// KeepOpen selects Figure 2(d): files stay open and operations are
	// bare appends (short critical sections).
	KeepOpen bool
	// Latency overrides the filesystem latency model (zero value =
	// simio.PageCacheLatency()). Set NoLatency to force a free
	// filesystem instead (unit tests).
	Latency   simio.Latency
	NoLatency bool
	// TM optionally overrides the STM runtime tuning for Irrevoc/Defer.
	TM stm.Config
}

func (c Config) withDefaults() Config {
	if c.Files < 1 {
		c.Files = 1
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.Ops < 1 {
		c.Ops = 1000
	}
	if !c.NoLatency && c.Latency == (simio.Latency{}) {
		c.Latency = simio.PageCacheLatency()
	}
	return c
}

// Result summarizes a run.
type Result struct {
	Mode    Mode
	Threads int
	Elapsed time.Duration
	Ops     int
	FS      simio.FSStats
	TM      stm.StatsSnapshot // zero for lock modes
}

// OpsPerSec is throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// fileState is the per-file shared state: the deferrable identity, a
// transactional sequence number (the shared data the transaction reads
// and writes — "content" in Listing 6), and lock-mode equivalents.
type fileState struct {
	name string
	df   *simio.DeferFile
	seq  stm.Var[int] // TM modes
	mu   sync.Mutex   // FGL
	nSeq int          // lock modes
	open *simio.File  // KeepOpen handle
}

// Run executes the microbenchmark and returns statistics. The produced
// files contain one formatted line per operation; Verify checks them.
func Run(cfg Config) (Result, *simio.FS, error) {
	cfg = cfg.withDefaults()
	fs := simio.NewFS(cfg.Latency)

	files := make([]*fileState, cfg.Files)
	for i := range files {
		name := fmt.Sprintf("data-%d", i)
		df, err := simio.NewDeferFile(fs, name)
		if err != nil {
			return Result{}, nil, err
		}
		files[i] = &fileState{name: name, df: df}
		if cfg.KeepOpen {
			f, err := fs.OpenAppend(name)
			if err != nil {
				return Result{}, nil, err
			}
			files[i].open = f
		}
	}

	var rt *stm.Runtime
	if cfg.Mode == Irrevoc || cfg.Mode == Defer {
		rt = stm.New(cfg.TM)
	}
	var glock sync.Mutex

	payload := make([]byte, 64) // the formatted content of one append
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}

	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := uint64(tid)*0x9E3779B97F4A7C15 + 1
			for {
				op := next.Add(1)
				if op > int64(cfg.Ops) {
					return
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				f := files[rng%uint64(len(files))]
				if err := doOp(cfg, rt, &glock, f, payload); err != nil {
					errs <- err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return Result{}, nil, err
	default:
	}

	if cfg.KeepOpen {
		for _, f := range files {
			_ = f.open.Close()
		}
	}
	res := Result{Mode: cfg.Mode, Threads: cfg.Threads, Elapsed: elapsed, Ops: cfg.Ops, FS: fs.Stats()}
	if rt != nil {
		res.TM = rt.Snapshot()
	}
	return res, fs, nil
}

func doOp(cfg Config, rt *stm.Runtime, glock *sync.Mutex, f *fileState, payload []byte) error {
	switch cfg.Mode {
	case CGL:
		glock.Lock()
		defer glock.Unlock()
		f.nSeq++
		return ioOp(cfg, f, f.nSeq, payload)
	case FGL:
		f.mu.Lock()
		defer f.mu.Unlock()
		f.nSeq++
		return ioOp(cfg, f, f.nSeq, payload)
	case Irrevoc:
		// A synchronized block containing I/O: the runtime serializes
		// early and runs the whole operation irrevocably.
		return rt.AtomicSerial(func(tx *stm.Tx) error {
			seq := f.seq.Get(tx) + 1
			f.seq.Set(tx, seq)
			return ioOp(cfg, f, seq, payload)
		})
	case Defer:
		// The transactional part updates the shared sequence number;
		// the I/O is atomically deferred on the file's deferrable.
		return rt.Atomic(func(tx *stm.Tx) error {
			f.df.Subscribe(tx)
			seq := f.seq.Get(tx) + 1
			f.seq.Set(tx, seq)
			core.AtomicDefer(tx, func(ctx *core.OpCtx) {
				// Errors inside a deferred op cannot abort the
				// committed transaction (the paper's Section 7
				// discusses this limit); the benchmark treats them as
				// fatal output errors.
				if err := ioOp(cfg, f, seq, payload); err != nil {
					panic(fmt.Sprintf("iobench: deferred I/O failed: %v", err))
				}
			}, f.df)
			return nil
		})
	default:
		return fmt.Errorf("iobench: bad mode %v", cfg.Mode)
	}
}

// ioOp is Listing 6's operation: open, read length, close, append
// formatted content, close. In KeepOpen mode it is a bare append.
func ioOp(cfg Config, f *fileState, seq int, payload []byte) error {
	fs := f.df.FS
	var length int
	if cfg.KeepOpen {
		length = f.open.Len()
		rec := fmt.Sprintf("%s seq=%d len=%d %s\n", f.name, seq, length, payload)
		_, err := f.open.Write([]byte(rec))
		return err
	}
	in, err := fs.Open(f.name)
	if err != nil {
		return err
	}
	length = in.Len() // seekg(0,end); tellg
	if err := in.Close(); err != nil {
		return err
	}
	out, err := fs.OpenAppend(f.name)
	if err != nil {
		return err
	}
	rec := fmt.Sprintf("%s seq=%d len=%d %s\n", f.name, seq, length, payload)
	if _, err := out.Write([]byte(rec)); err != nil {
		return err
	}
	return out.Close()
}

// Verify checks a finished run's files: the total number of appended
// records must equal Ops, and within each file the sequence numbers must
// be exactly 1..n in order (each mode holds the file's lock — or runs
// serially — across the read-modify-write, so per-file order is total).
func Verify(fs *simio.FS, cfg Config) error {
	cfg = cfg.withDefaults()
	total := 0
	for i := 0; i < cfg.Files; i++ {
		name := fmt.Sprintf("data-%d", i)
		data, err := fs.ReadAll(name)
		if err != nil {
			return err
		}
		count := 0
		wantSeq := 1
		for _, line := range splitLines(data) {
			var gotName string
			var seq, length int
			var tail string
			if _, err := fmt.Sscanf(string(line), "%s seq=%d len=%d %s", &gotName, &seq, &length, &tail); err != nil {
				return fmt.Errorf("iobench: bad record in %s: %q: %w", name, line, err)
			}
			if gotName != name {
				return fmt.Errorf("iobench: record for %s found in %s", gotName, name)
			}
			if seq != wantSeq {
				return fmt.Errorf("iobench: %s seq %d out of order (want %d)", name, seq, wantSeq)
			}
			wantSeq++
			count++
		}
		total += count
	}
	if total != cfg.Ops {
		return fmt.Errorf("iobench: %d records, want %d", total, cfg.Ops)
	}
	return nil
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}
