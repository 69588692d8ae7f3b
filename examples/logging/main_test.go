package main

import (
	"io"
	"testing"
)

// TestOnlyIrrevocableSerializes runs Listing 3 small. run checks the
// example's claim: every strategy logs every event, the irrevocable one
// serializes the runtime once per event, and both deferral strategies
// serialize it 0 times.
func TestOnlyIrrevocableSerializes(t *testing.T) {
	if err := run(io.Discard, 20); err != nil {
		t.Fatal(err)
	}
}
