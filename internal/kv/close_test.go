package kv

import (
	"sync"
	"testing"

	"deferstm/internal/simio"
)

// TestCloseIdempotent: server shutdown paths overlap (signal handler vs
// deferred cleanup), so Close must tolerate being called from several
// goroutines and repeatedly, with every caller seeing the first result.
func TestCloseIdempotent(t *testing.T) {
	for _, mode := range []Mode{ModeGroup, ModeNone} {
		t.Run(mode.String(), func(t *testing.T) {
			var fs *simio.FS
			if mode != ModeNone {
				fs = simio.NewFS(simio.Latency{})
			}
			s, _ := openStore(t, fs, Options{Mode: mode})
			if mode != ModeNone {
				put(t, s, "k", "v")
			}

			const closers = 8
			errs := make([]error, closers)
			var wg sync.WaitGroup
			for i := 0; i < closers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = s.Close()
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Errorf("concurrent Close %d: %v", i, err)
				}
			}
			// And again, sequentially, well after the store is down.
			if err := s.Close(); err != nil {
				t.Errorf("repeat Close: %v", err)
			}
		})
	}
}
