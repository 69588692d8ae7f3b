package main

import (
	"io"
	"testing"
)

// TestPoolNeverSerializes runs Listing 5 small: 12 files through 4
// descriptors, so opens and closes are frequent. run checks the claim:
// the deferred open/close keeps every file's metadata equal to its bytes
// and the pool within capacity, and the runtime serializes 0 times.
func TestPoolNeverSerializes(t *testing.T) {
	if err := run(io.Discard, 30); err != nil {
		t.Fatal(err)
	}
}
