package main

import (
	"io"
	"testing"
)

// TestBackendsAgree runs every backend on a 256 KiB input. run checks
// the claim: each output decodes to the input, the TM baselines
// serialize per packet, +Defer removes that under STM, and deferred
// compression fits in HTM.
func TestBackendsAgree(t *testing.T) {
	if err := run(io.Discard, 256<<10, 2, 0.6); err != nil {
		t.Fatal(err)
	}
}
