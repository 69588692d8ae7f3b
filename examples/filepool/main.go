// Filepool: the paper's Listing 5 — MySQL InnoDB-style file-descriptor
// pool management with deferred open/close.
//
// InnoDB keeps a bounded pool of open file descriptors. Appending to a
// file updates its metadata under the pool lock and then issues
// asynchronous I/O; opening a file when the pool is at capacity must
// close other files first. In a transactional port, those open/close
// system calls would force irrevocability and serialize even read-only
// queries. With atomic deferral the pool is a Deferrable: metadata
// transactions on disjoint files run fully in parallel, and in the
// uncommon open/close case the system calls are deferred while concurrent
// pool accesses stall (via retry) only for the duration of the calls.
//
// Run with: go run ./examples/filepool
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"deferstm/internal/core"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// fileNode is per-file metadata in the pool (file_space_t/node in
// Listing 5): all fields are transactional.
type fileNode struct {
	name    string
	open    stm.Var[bool]
	handle  stm.Var[*simio.File]
	size    stm.Var[int] // metadata size, updated before the async write
	inUse   stm.Var[int] // in-flight asynchronous writes
	openSeq stm.Var[int] // for LRU victim selection
}

// filePool is Listing 5's file_system_t: the whole pool wrapped as one
// deferrable object whose lock "abstractly covers an unbounded set of
// file descriptors".
type filePool struct {
	core.Deferrable
	fs      *simio.FS
	maxOpen int
	nodes   []*fileNode
	seq     stm.Var[int]
}

func newFilePool(fs *simio.FS, maxOpen int, names []string) *filePool {
	p := &filePool{fs: fs, maxOpen: maxOpen}
	for _, n := range names {
		node := &fileNode{name: n}
		p.nodes = append(p.nodes, node)
	}
	return p
}

// openCount counts open nodes inside tx.
func (p *filePool) openCount(tx *stm.Tx) int {
	n := 0
	for _, node := range p.nodes {
		if node.open.Get(tx) {
			n++
		}
	}
	return n
}

// ensureOpen makes node's descriptor usable, deferring the open (and any
// capacity-driven closes) from the transaction — Listing 5's
// mySQL_io_prepare. It returns once the node is open (possibly after the
// deferred operation of a prior transaction completes).
func (p *filePool) ensureOpen(rt *stm.Runtime, node *fileNode) error {
	return rt.Atomic(func(tx *stm.Tx) error {
		p.Subscribe(tx)
		if node.open.Get(tx) {
			return nil
		}
		// Select victims transactionally: oldest-opened idle nodes
		// beyond capacity.
		var victims []*fileNode
		needClose := p.openCount(tx) >= p.maxOpen
		if needClose {
			excess := p.openCount(tx) - p.maxOpen + 1
			for excess > 0 {
				var victim *fileNode
				best := int(^uint(0) >> 1)
				for _, cand := range p.nodes {
					if cand == node || !cand.open.Get(tx) || cand.inUse.Get(tx) > 0 {
						continue
					}
					if s := cand.openSeq.Get(tx); s < best {
						best, victim = s, cand
					}
				}
				if victim == nil {
					// Every open file has I/O in flight; wait for some
					// write to retire and re-run.
					tx.Retry()
				}
				victims = append(victims, victim)
				victim.open.Set(tx, false)
				excess--
			}
		}
		node.open.Set(tx, true)
		s := p.seq.Get(tx) + 1
		p.seq.Set(tx, s)
		node.openSeq.Set(tx, s)

		// The system calls run after commit, under the pool's lock:
		// concurrent pool transactions stall via their subscription
		// until the descriptors are usable again.
		core.AtomicDefer(tx, func(ctx *core.OpCtx) {
			for _, v := range victims {
				if h := v.handle.Load(); h != nil {
					if err := h.Close(); err != nil {
						log.Fatalf("close %s: %v", v.name, err)
					}
					core.Store(ctx, &v.handle, (*simio.File)(nil))
				}
			}
			h, err := p.fs.OpenAppend(node.name)
			if err != nil {
				log.Fatalf("open %s: %v", node.name, err)
			}
			core.Store(ctx, &node.handle, h)
		}, p)
		return nil
	})
}

// appendRecord is the hot path: update metadata transactionally (pool
// subscription + per-file vars), then issue the "asynchronous" write
// outside any transaction, exactly as InnoDB issues AIO after updating
// the size under the pool lock. Subsequent appends see the new size, so
// records land at increasing offsets even if their writes retire out of
// order.
func (p *filePool) appendRecord(rt *stm.Runtime, node *fileNode, payload []byte) error {
	var handle *simio.File
	err := rt.Atomic(func(tx *stm.Tx) error {
		p.Subscribe(tx)
		if !node.open.Get(tx) {
			return errNotOpen
		}
		node.size.Set(tx, node.size.Get(tx)+len(payload))
		node.inUse.Set(tx, node.inUse.Get(tx)+1)
		handle = node.handle.Get(tx)
		return nil
	})
	if err != nil {
		return err
	}
	// Asynchronous write (here: synchronous on this goroutine, after the
	// transaction — the pool lock is not held).
	if _, err := handle.Write(payload); err != nil {
		return err
	}
	return rt.Atomic(func(tx *stm.Tx) error {
		node.inUse.Set(tx, node.inUse.Get(tx)-1)
		return nil
	})
}

var errNotOpen = fmt.Errorf("filepool: not open")

func main() {
	if err := run(os.Stdout, 150); err != nil {
		log.Fatal(err)
	}
}

// run makes perWorker appends from each of 6 workers over 12 files
// through a pool of 4 descriptors, reports to out, and checks that every
// file's metadata matches its bytes, the pool never ends over capacity,
// and the runtime never serialized.
func run(out io.Writer, perWorker int) error {
	rt := stm.NewDefault()
	fs := simio.NewFS(simio.Latency{})

	const nFiles = 12
	const maxOpen = 4
	names := make([]string, nFiles)
	for i := range names {
		names[i] = fmt.Sprintf("tablespace-%02d", i)
		f, err := fs.Create(names[i])
		if err != nil {
			return err
		}
		_ = f.Close()
	}
	pool := newFilePool(fs, maxOpen, names)

	const workers = 6
	var wg sync.WaitGroup
	var appends [nFiles]int
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9E3779B97F4A7C15 + 7
			for i := 0; i < perWorker; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				node := pool.nodes[rng%uint64(nFiles)]
				payload := []byte(fmt.Sprintf("w%d op%d on %s\n", w, i, node.name))
				for {
					err := pool.appendRecord(rt, node, payload)
					if err == nil {
						break
					}
					if err == errNotOpen {
						if err := pool.ensureOpen(rt, node); err != nil {
							log.Fatal(err)
						}
						continue
					}
					log.Fatal(err)
				}
				mu.Lock()
				appends[rng%uint64(nFiles)] += len(payload)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Verify: per-file metadata size equals bytes actually written, and
	// no more than maxOpen descriptors remain open.
	openNow := 0
	for i, node := range pool.nodes {
		size := node.size.Load()
		data, err := fs.ReadAll(node.name)
		if err != nil {
			return err
		}
		if size != len(data) || size != appends[i] {
			return fmt.Errorf("%s: metadata=%d file=%d expected=%d", node.name, size, len(data), appends[i])
		}
		if node.open.Load() {
			openNow++
		}
	}
	if openNow > maxOpen {
		return fmt.Errorf("pool over capacity: %d > %d", openNow, maxOpen)
	}
	st := fs.Stats()
	snap := rt.Snapshot()
	fmt.Fprintf(out, "appended %d records across %d files; pool capacity %d, open now %d\n",
		workers*perWorker, nFiles, maxOpen, openNow)
	fmt.Fprintf(out, "filesystem: opens=%d closes=%d writes=%d\n", st.Opens, st.Closes, st.Writes)
	fmt.Fprintf(out, "runtime:    serialRuns=%d deferredOps=%d retries=%d\n",
		snap.SerialRuns, snap.DeferredOps, snap.Retries)
	if snap.SerialRuns != 0 {
		return fmt.Errorf("pool management serialized the runtime %d times — deferral failed", snap.SerialRuns)
	}
	fmt.Fprintln(out, "ok: open/close ran deferred, appends never serialized, metadata consistent")
	return nil
}
