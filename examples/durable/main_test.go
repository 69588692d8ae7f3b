package main

import (
	"io"
	"testing"
)

// TestListing4Ordering: F2 is never written before F1's fsync returned
// (listing4 checks F1's durable length as F2's deferred write begins).
func TestListing4Ordering(t *testing.T) {
	if err := listing4(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitRecovers: concurrent durable updates share fsyncs, and
// the store reopened from its log equals the live one.
func TestGroupCommitRecovers(t *testing.T) {
	if err := groupCommit(io.Discard); err != nil {
		t.Fatal(err)
	}
}
