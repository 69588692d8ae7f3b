// Cache: a memcached-shaped workload (the paper's §5.1 example). A
// transactional CLOCK cache serves gets and puts from several client
// goroutines; eviction events are logged through atomic deferral — the
// logging memcached's transactional ports had to delete to avoid
// irrevocability stays in, and the runtime never serializes.
//
// Run with: go run ./examples/cache
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"deferstm/internal/cache"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

func main() {
	if err := run(os.Stdout, 400); err != nil {
		log.Fatal(err)
	}
}

// run serves perClient requests from each of 6 clients, reports to out,
// and checks that the cache evicted, that every eviction was logged, and
// that the runtime never serialized.
func run(out io.Writer, perClient int) error {
	rt := stm.NewDefault()
	fs := simio.NewFS(simio.Latency{})
	logFile, err := fs.Create("evictions.log")
	if err != nil {
		return err
	}
	var logMu sync.Mutex
	el := cache.NewEvictionLog(func(rec string) {
		logMu.Lock()
		defer logMu.Unlock()
		if _, err := logFile.Write([]byte(rec)); err != nil {
			log.Printf("eviction log: %v", err)
		}
	})
	c := cache.New[string](rt, 64).WithEvictionLog(el)

	// Clients: a zipf-ish mix of gets and puts over a keyspace larger
	// than the cache.
	const clients, keySpace = 6, 200
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := uint64(cl)*0x9E3779B97F4A7C15 + 11
			for i := 0; i < perClient; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				// Skew toward low-numbered keys.
				k := rng % keySpace
				if k > keySpace/4 && rng&7 != 0 {
					k %= keySpace / 4
				}
				key := fmt.Sprintf("user:%d", k)
				err := rt.Atomic(func(tx *stm.Tx) error {
					if v, ok := c.Get(tx, key); ok {
						_ = v // cache hit: serve it
						return nil
					}
					// Miss: "fetch from the database" and populate.
					c.Put(tx, key, fmt.Sprintf("profile-%d", k))
					return nil
				})
				if err != nil {
					log.Fatal(err)
				}
			}
		}(cl)
	}
	wg.Wait()

	st := c.Stats()
	snap := rt.Snapshot()
	logData, _ := fs.ReadAll("evictions.log")
	logLines := 0
	for _, b := range logData {
		if b == '\n' {
			logLines++
		}
	}
	fmt.Fprintf(out, "requests: %d   hits: %d   misses: %d   hit rate: %.1f%%\n",
		clients*perClient, st.Hits, st.Misses,
		100*float64(st.Hits)/float64(st.Hits+st.Misses))
	fmt.Fprintf(out, "evictions: %d (all logged: %d lines)\n", st.Evictions, logLines)
	fmt.Fprintf(out, "runtime: %s\n", snap.String())
	if st.Evictions == 0 {
		return fmt.Errorf("no evictions: the workload never filled the cache")
	}
	if uint64(logLines) != st.Evictions {
		return fmt.Errorf("eviction log incomplete: %d lines for %d evictions", logLines, st.Evictions)
	}
	if snap.SerialRuns != 0 {
		return fmt.Errorf("logging serialized the runtime %d times — deferral failed", snap.SerialRuns)
	}
	fmt.Fprintln(out, "ok: every eviction logged, zero serializations")
	return nil
}
