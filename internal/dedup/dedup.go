package dedup

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deferstm/internal/chunker"
	"deferstm/internal/compress"
	"deferstm/internal/core"
	"deferstm/internal/mempool"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// Backend selects the synchronization scheme for the pipeline's shared
// state, matching the series of the paper's Figure 3.
type Backend int

const (
	// Pthread is the well-designed lock-based baseline: one lock per
	// fingerprint bucket, condition-variable reorder ring, output under
	// an output lock, compression outside all locks.
	Pthread Backend = iota
	// CGL holds a single global lock across table access and
	// compression (a deliberately coarse baseline).
	CGL
	// STM is the direct transactionalization (Wang et al.): table and
	// reorder accesses in transactions, compression inside the worker
	// transaction (a pure function), output in an irrevocable
	// transaction — which serializes every concurrent transaction.
	STM
	// HTM is STM executed on the simulated best-effort HTM:
	// compression overflows capacity (serial fallback), output aborts
	// to the serial path.
	HTM
	// STMDeferIO defers only the output (Listing 7): the write runs
	// post-commit under the packet's lock, so irrevocability is gone,
	// but compression still runs inside the worker transaction.
	STMDeferIO
	// HTMDeferIO is STMDeferIO under simulated HTM.
	HTMDeferIO
	// STMDeferAll additionally defers compression under the packet's
	// lock ("+DeferAll"): worker transactions become small, quiescence
	// windows shrink, and HTM capacity is no longer exceeded.
	STMDeferAll
	// HTMDeferAll is STMDeferAll under simulated HTM.
	HTMDeferAll
)

var backendNames = map[Backend]string{
	Pthread:     "pthread",
	CGL:         "cgl",
	STM:         "stm",
	HTM:         "htm",
	STMDeferIO:  "stm+deferio",
	HTMDeferIO:  "htm+deferio",
	STMDeferAll: "stm+deferall",
	HTMDeferAll: "htm+deferall",
}

func (b Backend) String() string {
	if s, ok := backendNames[b]; ok {
		return s
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend resolves a backend name (as printed by String).
func ParseBackend(s string) (Backend, error) {
	for b, name := range backendNames {
		if name == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("dedup: unknown backend %q", s)
}

// Backends lists all backends in presentation order.
func Backends() []Backend {
	return []Backend{Pthread, CGL, STM, HTM, STMDeferIO, HTMDeferIO, STMDeferAll, HTMDeferAll}
}

// IsTM reports whether the backend uses the TM runtime.
func (b Backend) IsTM() bool { return b != Pthread && b != CGL }

// htmMode reports whether the backend runs on the simulated HTM.
func (b Backend) htmMode() bool { return b == HTM || b == HTMDeferIO || b == HTMDeferAll }

// defersIO reports whether output is atomically deferred.
func (b Backend) defersIO() bool {
	return b == STMDeferIO || b == HTMDeferIO || b == STMDeferAll || b == HTMDeferAll
}

// defersCompress reports whether compression is atomically deferred.
func (b Backend) defersCompress() bool { return b == STMDeferAll || b == HTMDeferAll }

// Config parameterizes a pipeline run.
type Config struct {
	Backend Backend
	// Threads is the number of chunk-processing workers (the output
	// stage adds one more thread, as in PARSEC's pipeline). Minimum 1.
	Threads int
	// RingSize bounds the reorder window. 0 means 4 * Threads, floor 16.
	RingSize int
	// Buckets sizes the fingerprint table. 0 means 4096.
	Buckets int
	// Chunk configures content-defined chunking. The zero value selects
	// 32 KiB average chunks (AvgBits 15), large enough that in-
	// transaction compression exceeds simulated HTM capacity, as the
	// paper observed on real TSX.
	Chunk chunker.Config
	// Fsync controls whether the output stage fsyncs after every packet
	// (Listing 7's pipeline_out). Default true.
	NoFsync bool
	// CompressEffort is the hash-chain search depth of the compression
	// stage (compress.CompressLevel). Higher effort models the paper's
	// gzip-class Compress: a genuinely long-running pure function.
	// 0 means 8.
	CompressEffort int
	// InputRead simulates the pipeline's fragment stage reading each
	// chunk from storage: the worker sleeps this long per packet before
	// processing, outside any transaction or lock (PARSEC dedup reads
	// its input in a dedicated pipeline stage). Input reads from
	// different workers overlap, which is where thread scaling comes
	// from on machines whose CPU parallelism is limited. 0 disables.
	InputRead time.Duration
	// STMConfig optionally overrides runtime tuning (Mode is forced to
	// match the backend).
	STMConfig stm.Config
}

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.RingSize <= 0 {
		c.RingSize = 4 * c.Threads
		if c.RingSize < 16 {
			c.RingSize = 16
		}
	}
	if c.Buckets <= 0 {
		c.Buckets = 4096
	}
	if c.Chunk.AvgBits == 0 {
		c.Chunk.AvgBits = 15
	}
	if c.CompressEffort <= 0 {
		c.CompressEffort = 8
	}
	return c
}

// Result summarizes a pipeline run.
type Result struct {
	Backend      Backend
	Threads      int
	Elapsed      time.Duration
	Packets      uint64
	Uniques      uint64
	Dups         uint64
	BytesIn      uint64
	BytesOut     uint64
	TM           stm.StatsSnapshot // zero for lock backends
	PoolOut      int64             // pool buffers still outstanding (should be 0)
	TableEntries uint64            // unique fingerprints in the table
	FsyncCount   uint64
	OutputBytes  uint64
}

// DedupFactor is BytesIn / BytesOut.
func (r Result) DedupFactor() float64 {
	if r.BytesOut == 0 {
		return 0
	}
	return float64(r.BytesIn) / float64(r.BytesOut)
}

// Run executes the dedup pipeline over input, writing the record stream
// to outName in fs, and returns run statistics. The output is verifiable
// with Decode.
func Run(cfg Config, input []byte, fs *simio.FS, outName string) (Result, error) {
	cfg = cfg.withDefaults()
	out, err := fs.Create(outName)
	if err != nil {
		return Result{}, err
	}
	defer out.Close() //nolint:errcheck

	chunks := chunker.New(cfg.Chunk).Split(input)
	packets := make([]*packet, len(chunks))
	for i, ch := range chunks {
		packets[i] = &packet{seq: uint64(i), raw: ch.Data}
	}

	p := &pipeline{
		cfg:  cfg,
		out:  out,
		pool: mempool.New(),
	}
	if cfg.Backend.IsTM() {
		sc := cfg.STMConfig
		if cfg.Backend.htmMode() {
			sc.Mode = stm.ModeHTM
		} else {
			sc.Mode = stm.ModeSTM
		}
		p.rt = stm.New(sc)
		p.table = newTMTable(cfg.Buckets)
		p.ring = newTMRing(cfg.RingSize)
	} else {
		p.table = newLockTable(cfg.Buckets)
		p.ring = newLockRing(cfg.RingSize)
	}

	start := time.Now()
	if err := p.run(packets); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	res := Result{
		Backend:      cfg.Backend,
		Threads:      cfg.Threads,
		Elapsed:      elapsed,
		Packets:      uint64(len(packets)),
		Uniques:      p.uniques.Load(),
		Dups:         p.dups.Load(),
		BytesIn:      uint64(len(input)),
		BytesOut:     p.bytesOut.Load(),
		PoolOut:      p.pool.Stats().Outstanding,
		TableEntries: uint64(p.table.entries()),
		FsyncCount:   fs.Stats().Fsyncs,
		OutputBytes:  uint64(out.Len()),
	}
	if p.rt != nil {
		res.TM = p.rt.Snapshot()
	}
	return res, nil
}

// pipeline holds a run's wiring.
type pipeline struct {
	cfg   Config
	rt    *stm.Runtime
	table fpTable
	ring  reorder
	out   *simio.File
	pool  *mempool.Pool

	glock sync.Mutex // CGL
	outMu sync.Mutex // Pthread/CGL output lock

	uniques  atomic.Uint64
	dups     atomic.Uint64
	bytesOut atomic.Uint64

	errMu sync.Mutex
	err   error
}

func (p *pipeline) fail(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *pipeline) failed() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

func (p *pipeline) run(packets []*packet) error {
	feed := make(chan *packet, 2*p.cfg.Threads)
	var workers sync.WaitGroup
	for w := 0; w < p.cfg.Threads; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for pkt := range feed {
				p.processChunk(pkt)
			}
		}()
	}
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		p.writeStage(uint64(len(packets)))
	}()

	for _, pkt := range packets {
		feed <- pkt
	}
	close(feed)
	workers.Wait()
	writer.Wait()
	return p.failed()
}

// processChunk is the worker stage: fingerprint, dedup, (compression),
// publish to the reorder ring.
func (p *pipeline) processChunk(pkt *packet) {
	if p.cfg.InputRead > 0 {
		time.Sleep(p.cfg.InputRead) // stage-1 input read (overlappable)
	}
	pkt.fp = fingerprint(pkt.raw)
	switch {
	case !p.cfg.Backend.IsTM():
		p.processChunkLocked(pkt)
	default:
		p.processChunkTM(pkt)
	}
	if pkt.unique {
		p.uniques.Add(1)
	} else {
		p.dups.Add(1)
	}
}

func (p *pipeline) processChunkLocked(pkt *packet) {
	if p.cfg.Backend == CGL {
		// Coarse: table + compression under one global lock.
		p.glock.Lock()
		owner, inserted := p.table.lookupOrInsert(nil, pkt.fp, pkt.seq)
		pkt.unique, pkt.refSeq = inserted, owner
		if inserted {
			pkt.compressed.Init(compress.Compress(nil, pkt.raw))
		}
		p.glock.Unlock()
	} else {
		// Pthread: per-bucket lock inside lookupOrInsert; compression
		// outside any lock.
		owner, inserted := p.table.lookupOrInsert(nil, pkt.fp, pkt.seq)
		pkt.unique, pkt.refSeq = inserted, owner
		if inserted {
			pkt.compressed.Init(compress.CompressLevel(nil, pkt.raw, p.cfg.CompressEffort))
		}
	}
	p.ring.put(nil, pkt)
}

func (p *pipeline) processChunkTM(pkt *packet) {
	b := p.cfg.Backend
	err := p.rt.Atomic(func(tx *stm.Tx) error {
		// Bail out (cheaply, via retry) while the reorder window has no
		// room, before paying for compression.
		p.ring.reserve(tx, pkt.seq)
		owner, inserted := p.table.lookupOrInsert(tx, pkt.fp, pkt.seq)
		pkt.unique, pkt.refSeq = inserted, owner
		if inserted {
			if b.defersCompress() {
				// +DeferAll: compression runs after commit, under the
				// packet's lock; the writer's subscription blocks until
				// it completes.
				raw := pkt.raw
				core.AtomicDefer(tx, func(ctx *core.OpCtx) {
					buf := p.pool.Alloc(compress.MaxCompressedLen(len(raw)))
					comp := compress.CompressLevel(buf[:0], raw, p.cfg.CompressEffort)
					core.Store(ctx, &pkt.compressed, comp)
				}, pkt)
			} else {
				// Baseline / +DeferIO: the pure Compress call executes
				// inside the transaction. Under STM this stretches the
				// transaction (and everyone else's quiescence); under
				// simulated HTM the compressor's working set (input,
				// output, and its 64 KiB hash table) exceeds capacity
				// and forces the serial fallback, as on real TSX.
				tx.HTMTouch(len(pkt.raw),
					compress.MaxCompressedLen(len(pkt.raw))+compress.TableBytes+compress.ChainBytes(len(pkt.raw)))
				pkt.compressed.Set(tx, compress.CompressLevel(nil, pkt.raw, p.cfg.CompressEffort))
			}
		}
		p.ring.put(tx, pkt)
		return nil
	})
	if err != nil {
		p.fail(err)
	}
}

// writeStage is the single output thread: take packets in sequence order
// and emit records, fsyncing per packet (pipeline_out).
func (p *pipeline) writeStage(total uint64) {
	for seq := uint64(0); seq < total; seq++ {
		if p.failed() != nil {
			// Keep draining the ring so blocked workers can finish,
			// but stop emitting output.
			p.drainOne(seq)
			continue
		}
		if p.cfg.Backend.IsTM() {
			p.writeOneTM(seq)
		} else {
			p.writeOneLocked(seq)
		}
	}
}

func (p *pipeline) drainOne(seq uint64) {
	if p.cfg.Backend.IsTM() {
		_ = p.rt.Atomic(func(tx *stm.Tx) error {
			p.ring.take(tx, seq)
			return nil
		})
		return
	}
	p.ring.take(nil, seq)
}

func (p *pipeline) writeOneLocked(seq uint64) {
	pkt := p.ring.take(nil, seq)
	rec := buildRecord(pkt, pkt.compressed.Load())
	if p.cfg.Backend == CGL {
		p.glock.Lock()
		defer p.glock.Unlock()
	} else {
		p.outMu.Lock()
		defer p.outMu.Unlock()
	}
	if err := p.emit(rec); err != nil {
		p.fail(err)
	}
}

func (p *pipeline) writeOneTM(seq uint64) {
	b := p.cfg.Backend
	err := p.rt.Atomic(func(tx *stm.Tx) error {
		pkt := p.ring.take(tx, seq)
		// Subscribing to the packet blocks (via retry) while a deferred
		// compression still holds its lock (+DeferAll); it is a cheap
		// read otherwise.
		pkt.Subscribe(tx)
		comp := pkt.compressed.Get(tx)
		if b.defersIO() {
			// Listing 7: the write (with its retry loop and fsync) is
			// atomically deferred on the packet. The λ builds the record
			// too, so it is the pooled buffer's last reader and returns
			// it to the pool itself (DESIGN §5, "No free list").
			core.AtomicDefer(tx, func(ctx *core.OpCtx) {
				if err := p.emit(buildRecord(pkt, comp)); err != nil {
					p.fail(err)
				}
				if comp != nil && b.defersCompress() {
					release(p.pool, comp)
				}
			}, pkt)
			return nil
		}
		// Baseline: output inside the transaction requires
		// irrevocability and serializes every concurrent transaction.
		tx.Irrevocable()
		return p.emit(buildRecord(pkt, comp))
	})
	if err != nil {
		p.fail(err)
	}
}

// buildRecord renders pkt's output record; comp is its compressed chunk
// (unused for a duplicate).
func buildRecord(pkt *packet, comp []byte) []byte {
	if !pkt.unique {
		return buildDupRecord(pkt.seq, pkt.refSeq)
	}
	return buildUniqueRecord(pkt.seq, comp)
}

// release returns a compressed buffer to the pool. It is a variable so
// that a test can poison the bytes it frees.
var release = (*mempool.Pool).Release

// emit performs the reliable, durable write of one record.
func (p *pipeline) emit(rec []byte) error {
	if p.cfg.NoFsync {
		sent := 0
		for sent < len(rec) {
			n, err := p.out.Write(rec[sent:])
			sent += n
			if err != nil {
				if simio.IsTransient(err) {
					continue
				}
				return err
			}
		}
	} else if err := simio.ReliableWrite(p.out, rec); err != nil {
		return err
	}
	p.bytesOut.Add(uint64(len(rec)))
	return nil
}
