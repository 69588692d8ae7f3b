package main

import (
	"io"
	"testing"
)

// TestEvictionsLoggedWithoutSerializing runs the §5.1 cache small. run
// checks the claim: the cache evicts, every eviction reaches the log
// through its deferred write, and the runtime serializes 0 times.
func TestEvictionsLoggedWithoutSerializing(t *testing.T) {
	if err := run(io.Discard, 100); err != nil {
		t.Fatal(err)
	}
}
