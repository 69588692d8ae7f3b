// Logging: the paper's Listing 3 — diagnostic logging from critical
// sections without serialization.
//
// Programs like memcached occasionally log from critical sections. With
// plain TM the fprintf makes the transaction irrevocable, serializing
// everything; transactional ports therefore usually delete the logging.
// Atomic deferral keeps the logging *and* the scalability: the message is
// formatted inside the transaction (it reads mutable shared data) and the
// write is deferred on the log's deferrable object.
//
// This example contrasts three strategies on the same workload and prints
// how often each serialized the runtime.
//
// Run with: go run ./examples/logging
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

// deferFprintf is Listing 3's defer_fprintf: a Deferrable wrapping the
// log file descriptor.
type deferFprintf struct {
	core.Deferrable
	fd *simio.File
}

const workers = 4

func main() {
	if err := run(os.Stdout, 200); err != nil {
		log.Fatal(err)
	}
}

// run logs perW events from each worker under every strategy, reports
// to out, and checks that each strategy logged every event and that only
// the irrevocable one serialized the runtime — once per event.
func run(out io.Writer, perW int) error {
	fs := simio.NewFS(simio.Latency{})

	type strategy struct {
		name string
		run  func(rt *stm.Runtime, df *deferFprintf, x *stm.Var[string], i *stm.Var[int])
	}

	strategies := []strategy{
		{
			// Irrevocable: fprintf inside a synchronized block.
			name: "irrevocable",
			run: func(rt *stm.Runtime, df *deferFprintf, x *stm.Var[string], i *stm.Var[int]) {
				err := rt.AtomicSerial(func(tx *stm.Tx) error {
					i.Set(tx, i.Get(tx)+1)
					msg := fmt.Sprintf("event %s #%d\n", x.Get(tx), i.Get(tx))
					_, werr := df.fd.Write([]byte(msg))
					return werr
				})
				if err != nil {
					log.Fatal(err)
				}
			},
		},
		{
			// Atomic deferral, ordered on the log's lock (Listing 3).
			name: "atomic_defer",
			run: func(rt *stm.Runtime, df *deferFprintf, x *stm.Var[string], i *stm.Var[int]) {
				err := rt.Atomic(func(tx *stm.Tx) error {
					i.Set(tx, i.Get(tx)+1)
					// sprintf inside the transaction: x and i are
					// mutable shared data.
					msg := fmt.Sprintf("event %s #%d\n", x.Get(tx), i.Get(tx))
					core.AtomicDefer(tx, func(ctx *core.OpCtx) {
						if _, err := df.fd.Write([]byte(msg)); err != nil {
							log.Printf("log write: %v", err)
						}
					}, df)
					return nil
				})
				if err != nil {
					log.Fatal(err)
				}
			},
		},
		{
			// The "pass nil" variant: no lock association. Valid when no
			// ordering among log entries is required (they carry their
			// own sequence numbers); the deferred write races only with
			// other writes to the same fd, which the File serializes.
			name: "defer_unordered",
			run: func(rt *stm.Runtime, df *deferFprintf, x *stm.Var[string], i *stm.Var[int]) {
				err := rt.Atomic(func(tx *stm.Tx) error {
					i.Set(tx, i.Get(tx)+1)
					msg := fmt.Sprintf("event %s #%d\n", x.Get(tx), i.Get(tx))
					core.AtomicDefer(tx, func(ctx *core.OpCtx) {
						if _, err := df.fd.Write([]byte(msg)); err != nil {
							log.Printf("log write: %v", err)
						}
					}) // no objects
					return nil
				})
				if err != nil {
					log.Fatal(err)
				}
			},
		},
	}

	for _, s := range strategies {
		rt := stm.NewDefault()
		f, err := fs.Create("log-" + s.name)
		if err != nil {
			return err
		}
		df := &deferFprintf{fd: f}
		x := stm.NewVar("cache-miss")
		i := stm.NewVar(0)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perW; k++ {
					s.run(rt, df, x, i)
				}
			}()
		}
		wg.Wait()

		data, _ := fs.ReadAll("log-" + s.name)
		lines := 0
		for _, b := range data {
			if b == '\n' {
				lines++
			}
		}
		snap := rt.Snapshot()
		fmt.Fprintf(out, "%-16s entries=%d serialRuns=%d deferredOps=%d aborts=%d\n",
			s.name, lines, snap.SerialRuns, snap.DeferredOps, snap.Aborts())
		if lines != workers*perW {
			return fmt.Errorf("%s: lost log entries: %d != %d", s.name, lines, workers*perW)
		}
		wantSerial := uint64(0)
		if s.name == "irrevocable" {
			wantSerial = workers * uint64(perW)
		}
		if snap.SerialRuns != wantSerial {
			return fmt.Errorf("%s: serialized %d times, want %d", s.name, snap.SerialRuns, wantSerial)
		}
	}
	fmt.Fprintln(out, "ok: all strategies logged every event; only 'irrevocable' serialized")
	return nil
}
