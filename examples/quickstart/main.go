// Quickstart: transactional memory with atomic deferral in five minutes.
//
// A tiny payment system: accounts are transactional variables, transfers
// are transactions, and the audit-log write — an I/O operation that must
// appear atomic with the transfer but must not serialize the system — is
// atomically deferred (the paper's core idea).
//
// Run with: go run ./examples/quickstart
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

// auditLog wraps the log file as a deferrable object: its implicit lock
// is what keeps deferred writes atomic with their transactions.
type auditLog struct {
	core.Deferrable
	fd *simio.File
}

func main() {
	if _, err := run(os.Stdout, 25); err != nil {
		log.Fatal(err)
	}
}

// run makes perWorker transfers from each of 4 workers, reports to out,
// checks that money is conserved and every transfer was logged, and
// returns the audit log.
func run(out io.Writer, perWorker int) ([]byte, error) {
	rt := stm.NewDefault()

	// Two accounts as transactional variables.
	alice := stm.NewVar(100)
	bob := stm.NewVar(50)

	// A simulated filesystem for the audit log (swap in any io.Writer-
	// style sink in real code).
	fs := simio.NewFS(simio.Latency{})
	logFile, err := fs.Create("audit.log")
	if err != nil {
		return nil, err
	}
	audit := &auditLog{fd: logFile}

	// transfer moves amount from one account to another and logs it.
	// The format string is built inside the transaction (it reads
	// transactional state), but the write happens after commit — without
	// making the transaction irrevocable, and without any other
	// transaction being able to observe "transferred but not logged".
	transfer := func(from, to *stm.Var[int], amount int, label string) error {
		return rt.Atomic(func(tx *stm.Tx) error {
			f := from.Get(tx)
			if f < amount {
				return fmt.Errorf("insufficient funds: %d < %d", f, amount)
			}
			from.Set(tx, f-amount)
			to.Set(tx, to.Get(tx)+amount)
			line := fmt.Sprintf("%s: %d moved (balances now %d/%d)\n",
				label, amount, from.Get(tx), to.Get(tx))
			core.AtomicDefer(tx, func(ctx *core.OpCtx) {
				if _, err := audit.fd.Write([]byte(line)); err != nil {
					log.Printf("audit write failed: %v", err)
				}
			}, audit)
			return nil
		})
	}

	// Concurrent transfers in both directions.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if i%2 == 0 {
					_ = transfer(alice, bob, 1, fmt.Sprintf("a->b[%d.%d]", i, j))
				} else {
					_ = transfer(bob, alice, 1, fmt.Sprintf("b->a[%d.%d]", i, j))
				}
			}
		}(i)
	}
	wg.Wait()

	fmt.Fprintf(out, "final balances: alice=%d bob=%d (total %d)\n",
		alice.Load(), bob.Load(), alice.Load()+bob.Load())
	data, _ := fs.ReadAll("audit.log")
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	fmt.Fprintf(out, "audit log: %d entries, %d bytes\n", lines, len(data))
	fmt.Fprintf(out, "runtime:   %s\n", rt.Snapshot())
	if alice.Load()+bob.Load() != 150 {
		return data, fmt.Errorf("money was created or destroyed")
	}
	if lines != 4*perWorker {
		return data, fmt.Errorf("expected %d audit entries, got %d", 4*perWorker, lines)
	}
	fmt.Fprintln(out, "ok: serializability and audit completeness held")
	return data, nil
}
